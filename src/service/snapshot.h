// The unit of index hot-swapping: an immutable bundle of everything one
// published index generation needs to stay alive while queries run
// against it.
//
// SearchService publishes snapshots behind a std::shared_ptr; every batch
// of queries acquires the pointer once and holds it for the duration of
// execution, so a Publish() of a rebuilt or freshly LoadIndex-ed index
// never invalidates an in-flight query — the old generation is destroyed
// when its last running query drops the reference.
//
// Every generation is a shard::ShardedIndex: a single tree is served as
// a one-shard index over its own collection (WrapIndex,
// AdoptLoadedIndex), so one query path covers single, sharded and
// derived generations (one shard rebuilt or replaced) alike.
//
// An *ingesting* sharded generation additionally carries ShardBuffers:
// live per-shard insert buffers plus, per shard, the first buffer row its
// tree does NOT cover, plus the live tombstone set of deleted ids. A
// query then merges each shard's tree answer with an exact flat scan of
// that shard's buffer rows [start[s], live size), masking tombstoned
// rows everywhere — so rows inserted after the generation was published
// are visible immediately and rows deleted after it vanish immediately,
// with no republish per mutation — and every live row is answered
// exactly once (tree below the cut, buffer at or above it). Compaction
// publishes a derived generation whose rebuilt shard covers the live
// rows up to a new cut, with start[s] advanced to match; the tombstones
// it folded away are purged once every older generation retires.

#ifndef SOFA_SERVICE_SNAPSHOT_H_
#define SOFA_SERVICE_SNAPSHOT_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "index/serialization.h"
#include "index/tree_index.h"
#include "ingest/insert_buffer.h"
#include "ingest/tombstone_set.h"
#include "shard/sharded_index.h"

namespace sofa {
namespace service {

/// The mutable delta sets of an ingesting sharded generation. `buffers`
/// and `start` are indexed by shard id; `start[s]` is the first row of
/// `buffers[s]` the generation's shard-s tree does not already cover.
/// `tombstones` is the generation's view of deleted global ids: a query
/// takes one immutable snapshot of it (TombstoneSet::view) and masks
/// those ids out of the buffer scans and the gather merge. The struct
/// itself is immutable per generation (compaction republishes with
/// advanced starts); the buffers and tombstone set it points at are live
/// and internally synchronized, which is what makes mutations visible
/// between publishes. `tombstones` may be null (no delete path attached —
/// treated as empty).
struct ShardBuffers {
  std::vector<std::shared_ptr<const ingest::InsertBuffer>> buffers;
  std::vector<std::size_t> start;
  std::shared_ptr<const ingest::TombstoneSet> tombstones;

  /// Live per-shard counts of un-purged tombstones routed to each shard
  /// (maintained by the Compactor: incremented before the tombstone
  /// becomes visible, decremented only when it is purged). A deleted row
  /// can displace candidates only within its own shard, so the query
  /// path widens shard s's tree search by counts[s] — not by the global
  /// tombstone count, which over-fetches num_shards-fold under
  /// delete-heavy load. Sample counts AFTER TombstoneSet::view(): every
  /// view id still resident in a live generation's tree is then
  /// guaranteed to be counted (purge ordering — see
  /// ingest/tombstone_set.h). Null means "use |view|" (conservative).
  std::shared_ptr<const std::vector<std::atomic<std::size_t>>>
      tombstone_shard_counts;
};

/// One published index generation: the sharded index (always set) plus,
/// on an ingesting generation, its live insert buffers and tombstones.
/// The ShardedIndex shares ownership of its shards; a generation wrapped
/// from a borrowed tree leaves that tree's lifetime to the caller.
struct IndexSnapshot {
  std::shared_ptr<const shard::ShardedIndex> sharded;

  /// Set only on an ingesting generation (see header comment).
  std::shared_ptr<const ShardBuffers> buffers;

  bool is_ingesting() const { return buffers != nullptr; }

  /// Series length queries against this generation must have.
  std::size_t series_length() const { return sharded->length(); }
};

/// Wraps a sharded index; the ShardedIndex shares ownership of its shards,
/// so the snapshot needs no further keep-alive handles.
inline std::shared_ptr<const IndexSnapshot> WrapShardedIndex(
    std::shared_ptr<const shard::ShardedIndex> sharded) {
  auto snapshot = std::make_shared<IndexSnapshot>();
  snapshot->sharded = std::move(sharded);
  return snapshot;
}

/// Wraps an externally owned index as a one-shard generation (the common
/// case for benches and tests: index, scheme and dataset outlive the
/// service).
inline std::shared_ptr<const IndexSnapshot> WrapIndex(
    const index::TreeIndex* tree) {
  return WrapShardedIndex(shard::ShardedIndex::FromTree(
      std::shared_ptr<const index::TreeIndex>(
          std::shared_ptr<const index::TreeIndex>(), tree)));
}

/// Wraps an ingesting sharded generation: the trees of `sharded` plus the
/// live per-shard insert buffers and tombstone set (the
/// ingest::Compactor's publish path).
inline std::shared_ptr<const IndexSnapshot> WrapIngestingIndex(
    std::shared_ptr<const shard::ShardedIndex> sharded,
    std::shared_ptr<const ShardBuffers> buffers) {
  auto snapshot = std::make_shared<IndexSnapshot>();
  snapshot->sharded = std::move(sharded);
  snapshot->buffers = std::move(buffers);
  return snapshot;
}

/// Adopts the result of index::LoadIndex (scheme + tree) as a one-shard
/// generation, optionally with a keep-alive handle on the collection it
/// was loaded against — the serialization → hot-swap path.
inline std::shared_ptr<const IndexSnapshot> AdoptLoadedIndex(
    index::LoadedIndex loaded, std::shared_ptr<const Dataset> data = nullptr) {
  // One owner for all three parts; members destroy tree first.
  struct Parts {
    std::shared_ptr<const Dataset> data;
    std::unique_ptr<quant::SummaryScheme> scheme;
    std::unique_ptr<index::TreeIndex> tree;
  };
  auto parts = std::make_shared<Parts>(Parts{
      std::move(data), std::move(loaded.scheme), std::move(loaded.tree)});
  const index::TreeIndex* tree = parts->tree.get();
  return WrapShardedIndex(shard::ShardedIndex::FromTree(
      std::shared_ptr<const index::TreeIndex>(parts, tree)));
}

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_SNAPSHOT_H_
