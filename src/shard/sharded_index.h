// Scatter-gather sharding over the exact tree index (ROADMAP: "shard one
// logical service across multiple indexes").
//
// A ShardedIndex partitions one logical collection across N TreeIndex
// shards, assigned at build time either by contiguous range or by a hash
// of the global series id. A query scatters through the service executor
// — one single-threaded task per shard — and the per-shard top-k heaps
// are gathered by a tournament (k-way) merge into the exact global top-k,
// FAISS-style (Johnson et al., billion-scale similarity search). The
// merge remaps shard-local ids to global ids and merges the per-shard
// QueryProfile pruning counters, so exactness accounting over the whole
// collection still holds: on tie-free collections every reported
// neighbor is bit-identical (same id, same float distance) to what the
// single-index engine reports for the same query. When distinct series
// tie at exactly equal distance across the k boundary (duplicate rows),
// the reported distances are still exact; the merge then picks ids
// deterministically (lowest global id first — both across source lists
// and within one list, whose tie runs are normalized before merging)
// whereas the single-index heap keeps whichever tied candidate its scan
// reached first.
//
// A ShardedIndex is immutable (it is published behind the same
// shared_ptr snapshot that SearchService hot-swaps); "updating" one
// shard means deriving a new generation that shares the N-1 untouched
// shards and replaces one — WithShardRebuilt / WithShardReplaced — and
// publishing the derived index. That per-shard republish is the first
// step toward index updates between generations.

#ifndef SOFA_SHARD_SHARDED_INDEX_H_
#define SOFA_SHARD_SHARDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "index/tree_index.h"
#include "quant/summary_scheme.h"
#include "util/thread_pool.h"

namespace sofa {
namespace shard {

/// How global series ids map to shards (fixed at build time; queries do
/// not depend on it, only the partition does).
enum class ShardAssignment {
  kContiguous,  // shard s holds one contiguous global-id range (default)
  kHash,        // shard = mix64(global id) % N — spreads hot inserts
};

/// Sharded-build parameters. `index` configures every per-shard tree.
struct ShardingConfig {
  std::size_t num_shards = 2;
  ShardAssignment assignment = ShardAssignment::kContiguous;
  index::IndexConfig index;

  /// Compressed pruning tier: when set, every built or rebuilt shard
  /// tree carries a quant::RowQuant sidecar (scalar-quantized row
  /// copies whose SIMD lower bounds prune ahead of the exact kernel),
  /// and the ingest path quantizes buffered rows too. Answers are
  /// bit-identical either way; only the work counters differ.
  bool enable_rowq = false;
};

/// One shard: its slice of the collection, the tree over that slice, and
/// the mapping from shard-local row ids back to global collection ids.
/// All handles are shared so a derived generation (one shard replaced)
/// aliases the untouched shards instead of copying them.
struct Shard {
  std::shared_ptr<const Dataset> data;
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::shared_ptr<const index::TreeIndex> tree;
  std::shared_ptr<const std::vector<std::uint32_t>> global_ids;
  std::uint64_t generation = 1;  // bumped by WithShardRebuilt/Replaced
};

/// The row slices and id mappings of one deterministic partition —
/// exposed so index persistence can re-create the identical split when
/// reloading per-shard index files against the full collection.
struct ShardPartition {
  std::vector<std::shared_ptr<const Dataset>> data;
  std::vector<std::shared_ptr<const std::vector<std::uint32_t>>> global_ids;
};

/// Merges per-source exact top-k lists — each ascending by distance and
/// carrying *global* ids — into the global top-k, ascending by
/// (distance, id). Ties at equal distance resolve to the lowest global id
/// deterministically, across lists and within one list (per-source
/// engines emit tie runs in scan order, so each run is id-normalized
/// before the tournament merge). The guarantee is over the candidates the
/// source lists surfaced: a source engine that truncated a tie run at its
/// own internal k boundary already chose which tied ids to keep (the tree
/// engine keeps scan order there — see the class comment above; the
/// insert buffer keeps lowest ids). This is the one gather everything
/// funnels through: shard scatter (via ShardedIndex::MergeTopK) and the
/// tree-∪-insert-buffer merge of the ingest path.
///
/// `exclude`, when given, drops every candidate whose global id is in the
/// set before the merge — the ingest path's tombstone filter for deleted
/// rows still physically present in a tree. The caller must have widened
/// the per-source k by |exclude| (a deleted row can displace at most one
/// live candidate per source list), so the surviving candidates still
/// contain each source's true top-k; `filtered`, when non-null, is
/// incremented by the number of candidates dropped (QueryProfile
/// accounting).
std::vector<Neighbor> MergeNeighborLists(
    std::vector<std::vector<Neighbor>> lists, std::size_t k,
    const std::unordered_set<std::uint32_t>* exclude = nullptr,
    std::uint64_t* filtered = nullptr);

class ShardedIndex {
 public:
  /// Shard of global id `id` under `assignment` (deterministic; the
  /// contract Partition() and any loader must agree on). Ids at or beyond
  /// `total` — inserted after the build-time partition — map to the last
  /// shard under kContiguous (which owns the open-ended tail range) and
  /// hash normally under kHash.
  static std::size_t AssignShard(ShardAssignment assignment, std::uint32_t id,
                                 std::size_t total, std::size_t num_shards);

  /// Splits `data` into per-shard datasets + id maps. Every shard of a
  /// contiguous split is non-empty when num_shards <= data.size(); a hash
  /// split may leave tiny collections with empty shards (still valid).
  static ShardPartition Partition(const Dataset& data, std::size_t num_shards,
                                  ShardAssignment assignment);

  /// Partitions `data` and builds one tree per shard, all with the same
  /// summarization scheme (trained once over the full collection) and the
  /// same per-shard index config. `pool` is used for the builds and for
  /// query scatter; it must outlive the index.
  static std::shared_ptr<const ShardedIndex> Build(
      const Dataset& data, const ShardingConfig& config,
      std::shared_ptr<const quant::SummaryScheme> scheme, ThreadPool* pool);

  /// Assembles an index from already-built shards (the persistence path:
  /// Partition() the collection, LoadIndex each shard file, wrap here).
  /// All shards must share the series length.
  static std::shared_ptr<const ShardedIndex> FromShards(
      std::vector<Shard> shards, const ShardingConfig& config,
      std::size_t length, ThreadPool* pool);

  /// Wraps one built tree as a one-shard index over the tree's own
  /// collection: the shard aliases that collection (no row copy) under an
  /// identity id map, and its scheme and data handles share `tree`'s
  /// owner — so an owning handle keeps all three alive and a borrowed
  /// one (empty owner) leaves their lifetime to the caller. Per-shard
  /// config (index config, rowq tier) is read off the tree.
  static std::shared_ptr<const ShardedIndex> FromTree(
      std::shared_ptr<const index::TreeIndex> tree);

  /// Exact global k-NN: scatters one single-threaded task per shard
  /// through the service executor on `num_workers` workers (0 = pool
  /// size) of `pool` (null = the pool the index was built with), then
  /// tournament-merges the per-shard answers. `profile`, if given,
  /// receives the work counters merged across all shards. Must be called
  /// from a thread that is not a worker of the chosen pool (it blocks).
  ///
  /// With epsilon > 0 the per-rank (1+ε) bound survives the merge: the
  /// global exact top-i splits as counts c_s per shard, shard s's local
  /// rank-c_s exact distance is ≤ the global rank-i distance, and each
  /// shard answers within (1+ε) of its local exact ranks — so the merged
  /// rank-i answer is within (1+ε) of the global rank-i distance.
  std::vector<Neighbor> SearchKnn(const float* query, std::size_t k,
                                  double epsilon = 0.0,
                                  index::QueryProfile* profile = nullptr,
                                  std::size_t num_workers = 0,
                                  ThreadPool* pool = nullptr) const;

  /// The scatter half of SearchKnn without the gather: fills
  /// `per_shard[s]` with shard s's exact top-k (shard-local ids) and, when
  /// `profiles` is non-null, `(*profiles)[s]` with shard s's work counters
  /// (each counter lands in exactly one entry — callers merge once).
  /// `k_extra`, when given (size num_shards), deepens shard s's search to
  /// k + (*k_extra)[s] — the ingest path's per-shard tombstone widening,
  /// so the true live top-k survives the merge filter without every
  /// shard over-fetching by the global tombstone count. Exposed so a
  /// caller can gather tree answers together with other global lists
  /// (insert-buffer answers) in a single MergeTopK. Same threading
  /// contract as SearchKnn.
  void ScatterKnn(const float* query, std::size_t k, double epsilon,
                  std::vector<std::vector<Neighbor>>* per_shard,
                  std::vector<index::QueryProfile>* profiles,
                  std::size_t num_workers = 0, ThreadPool* pool = nullptr,
                  const std::vector<std::size_t>* k_extra = nullptr) const;

  /// Gathers per-shard answers (ascending, shard-local ids; indexed by
  /// shard) into the exact global top-k with global ids via
  /// MergeNeighborLists (ties: lowest global id first). `extras` are
  /// additional already-global ascending lists merged alongside — the
  /// ingest path's per-shard insert-buffer answers. `exclude`/`filtered`
  /// are the tombstone filter and its profile counter, applied after the
  /// shard-local → global id remap (see MergeNeighborLists for the
  /// contract). Exposed for the service's batched scatter, which runs the
  /// shard tasks itself.
  std::vector<Neighbor> MergeTopK(
      const std::vector<std::vector<Neighbor>>& per_shard, std::size_t k,
      std::vector<std::vector<Neighbor>> extras = {},
      const std::unordered_set<std::uint32_t>* exclude = nullptr,
      std::uint64_t* filtered = nullptr) const;

  /// A new generation with shard `shard_id`'s tree rebuilt from its own
  /// rows (same scheme and config); the other shards are shared, not
  /// copied. The rebuild is deterministic, so answers are bit-identical.
  std::shared_ptr<const ShardedIndex> WithShardRebuilt(
      std::size_t shard_id) const;

  /// A new generation with shard `shard_id` replaced wholesale (e.g.
  /// reloaded from disk); the replacement's generation counter is bumped
  /// past the current one. Series length must match.
  std::shared_ptr<const ShardedIndex> WithShardReplaced(std::size_t shard_id,
                                                        Shard shard) const;

  std::size_t num_shards() const { return shards_.size(); }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  std::size_t size() const { return total_size_; }    // total series
  std::size_t length() const { return length_; }      // series length
  ThreadPool* pool() const { return pool_; }
  const ShardingConfig& config() const { return config_; }

 private:
  ShardedIndex(std::vector<Shard> shards, const ShardingConfig& config,
               std::size_t length, ThreadPool* pool);

  std::vector<Shard> shards_;
  ShardingConfig config_;
  std::size_t length_;
  std::size_t total_size_ = 0;
  ThreadPool* pool_;
};

}  // namespace shard
}  // namespace sofa

#endif  // SOFA_SHARD_SHARDED_INDEX_H_
