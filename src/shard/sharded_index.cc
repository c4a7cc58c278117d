#include "shard/sharded_index.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "service/executor.h"
#include "util/check.h"

namespace sofa {
namespace shard {
namespace {

// splitmix64 finalizer: a full-avalanche mix so consecutive ids spread
// uniformly (plain `id % N` would stripe, defeating the point of a hash
// assignment under sequential inserts).
std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::size_t ShardedIndex::AssignShard(ShardAssignment assignment,
                                      std::uint32_t id, std::size_t total,
                                      std::size_t num_shards) {
  SOFA_DCHECK(num_shards > 0);
  if (assignment == ShardAssignment::kHash) {
    return static_cast<std::size_t>(Mix64(id) % num_shards);
  }
  // Contiguous: the first (total % num_shards) shards hold one extra row,
  // so shard sizes differ by at most one. Ids beyond the build-time total
  // (the ingest path's inserts) extend the last shard's range — without
  // this the arithmetic below would yield a shard index >= num_shards.
  if (id >= total) {
    return num_shards - 1;
  }
  const std::size_t base = total / num_shards;
  const std::size_t extra = total % num_shards;
  const std::size_t boundary = extra * (base + 1);
  if (id < boundary) {
    return id / (base + 1);
  }
  return base == 0 ? num_shards - 1 : extra + (id - boundary) / base;
}

ShardPartition ShardedIndex::Partition(const Dataset& data,
                                       std::size_t num_shards,
                                       ShardAssignment assignment) {
  SOFA_CHECK(num_shards > 0);
  std::vector<std::shared_ptr<Dataset>> slices;
  std::vector<std::shared_ptr<std::vector<std::uint32_t>>> ids;
  slices.reserve(num_shards);
  ids.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    slices.push_back(std::make_shared<Dataset>(data.length()));
    ids.push_back(std::make_shared<std::vector<std::uint32_t>>());
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(i);
    const std::size_t s = AssignShard(assignment, id, data.size(), num_shards);
    slices[s]->Append(data.row(i));
    ids[s]->push_back(id);
  }
  ShardPartition partition;
  partition.data.assign(slices.begin(), slices.end());
  partition.global_ids.assign(ids.begin(), ids.end());
  return partition;
}

ShardedIndex::ShardedIndex(std::vector<Shard> shards,
                           const ShardingConfig& config, std::size_t length,
                           ThreadPool* pool)
    : shards_(std::move(shards)), config_(config), length_(length),
      pool_(pool) {
  SOFA_CHECK(pool_ != nullptr);
  SOFA_CHECK(!shards_.empty());
  for (const Shard& shard : shards_) {
    SOFA_CHECK(shard.data != nullptr && shard.tree != nullptr &&
               shard.global_ids != nullptr);
    SOFA_CHECK(shard.data->length() == length_);
    SOFA_CHECK(shard.global_ids->size() == shard.data->size());
    total_size_ += shard.data->size();
  }
}

std::shared_ptr<const ShardedIndex> ShardedIndex::Build(
    const Dataset& data, const ShardingConfig& config,
    std::shared_ptr<const quant::SummaryScheme> scheme, ThreadPool* pool) {
  SOFA_CHECK(scheme != nullptr);
  ShardPartition partition =
      Partition(data, config.num_shards, config.assignment);
  std::vector<Shard> shards(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    shards[s].data = partition.data[s];
    shards[s].scheme = scheme;
    shards[s].global_ids = partition.global_ids[s];
    auto tree = std::make_shared<index::TreeIndex>(
        shards[s].data.get(), scheme.get(), config.index, pool);
    if (config.enable_rowq) {
      tree->AttachRowQuant(quant::RowQuant::Build(*shards[s].data));
    }
    shards[s].tree = std::move(tree);
  }
  return std::shared_ptr<const ShardedIndex>(
      new ShardedIndex(std::move(shards), config, data.length(), pool));
}

std::shared_ptr<const ShardedIndex> ShardedIndex::FromShards(
    std::vector<Shard> shards, const ShardingConfig& config,
    std::size_t length, ThreadPool* pool) {
  return std::shared_ptr<const ShardedIndex>(
      new ShardedIndex(std::move(shards), config, length, pool));
}

std::shared_ptr<const ShardedIndex> ShardedIndex::FromTree(
    std::shared_ptr<const index::TreeIndex> tree) {
  SOFA_CHECK(tree != nullptr);
  std::vector<Shard> shards(1);
  Shard& shard = shards[0];
  shard.data = std::shared_ptr<const Dataset>(tree, &tree->data());
  shard.scheme =
      std::shared_ptr<const quant::SummaryScheme>(tree, &tree->scheme());
  auto ids = std::make_shared<std::vector<std::uint32_t>>(tree->data().size());
  std::iota(ids->begin(), ids->end(), 0u);
  shard.global_ids = std::move(ids);
  ShardingConfig config;
  config.num_shards = 1;
  config.index = tree->config();
  config.enable_rowq = tree->rowq() != nullptr;
  const std::size_t length = tree->data().length();
  ThreadPool* pool = tree->pool();
  shard.tree = std::move(tree);
  return FromShards(std::move(shards), config, length, pool);
}

std::shared_ptr<const ShardedIndex> ShardedIndex::WithShardRebuilt(
    std::size_t shard_id) const {
  SOFA_CHECK(shard_id < shards_.size());
  Shard rebuilt = shards_[shard_id];
  auto tree = std::make_shared<index::TreeIndex>(
      rebuilt.data.get(), rebuilt.scheme.get(), config_.index, pool_);
  if (config_.enable_rowq) {
    tree->AttachRowQuant(quant::RowQuant::Build(*rebuilt.data));
  }
  rebuilt.tree = std::move(tree);
  return WithShardReplaced(shard_id, std::move(rebuilt));
}

std::shared_ptr<const ShardedIndex> ShardedIndex::WithShardReplaced(
    std::size_t shard_id, Shard shard) const {
  SOFA_CHECK(shard_id < shards_.size());
  SOFA_CHECK(shard.data != nullptr && shard.data->length() == length_);
  shard.generation = shards_[shard_id].generation + 1;
  std::vector<Shard> shards = shards_;  // aliases: every handle is shared
  shards[shard_id] = std::move(shard);
  return std::shared_ptr<const ShardedIndex>(
      new ShardedIndex(std::move(shards), config_, length_, pool_));
}

std::vector<Neighbor> ShardedIndex::SearchKnn(const float* query,
                                              std::size_t k, double epsilon,
                                              index::QueryProfile* profile,
                                              std::size_t num_workers,
                                              ThreadPool* pool) const {
  if (total_size_ == 0 || k == 0) {
    return {};
  }
  std::vector<std::vector<Neighbor>> per_shard;
  std::vector<index::QueryProfile> profiles;
  ScatterKnn(query, k, epsilon, &per_shard,
             profile != nullptr ? &profiles : nullptr, num_workers, pool);
  if (profile != nullptr) {
    for (const index::QueryProfile& shard_profile : profiles) {
      profile->Merge(shard_profile);
    }
  }
  return MergeTopK(per_shard, k);
}

void ShardedIndex::ScatterKnn(const float* query, std::size_t k,
                              double epsilon,
                              std::vector<std::vector<Neighbor>>* per_shard,
                              std::vector<index::QueryProfile>* profiles,
                              std::size_t num_workers, ThreadPool* pool,
                              const std::vector<std::size_t>* k_extra) const {
  SOFA_CHECK(per_shard != nullptr);
  SOFA_CHECK(k_extra == nullptr || k_extra->size() == shards_.size());
  if (pool == nullptr) {
    pool = pool_;
  }
  per_shard->assign(shards_.size(), {});
  if (profiles != nullptr) {
    profiles->assign(shards_.size(), index::QueryProfile{});
  }
  if (k == 0) {
    return;
  }
  std::vector<service::QueryTask> tasks(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    tasks[s].index = shards_[s].tree.get();
    tasks[s].query = query;
    tasks[s].k = k + (k_extra != nullptr ? (*k_extra)[s] : 0);
    tasks[s].epsilon = epsilon;
    tasks[s].result = &(*per_shard)[s];
    tasks[s].profile = profiles != nullptr ? &(*profiles)[s] : nullptr;
  }
  service::RunTaskBatch(&tasks, pool, num_workers);
}

std::vector<Neighbor> MergeNeighborLists(
    std::vector<std::vector<Neighbor>> lists, std::size_t k,
    const std::unordered_set<std::uint32_t>* exclude,
    std::uint64_t* filtered) {
  // Tombstone filter first: a deleted row may still sit inside a tree
  // until its shard compacts; dropping it here (the caller searched each
  // source k + |exclude| deep) keeps the surviving per-source lists
  // ascending and complete for the merge below.
  if (exclude != nullptr && !exclude->empty()) {
    for (std::vector<Neighbor>& list : lists) {
      const auto is_deleted = [exclude](const Neighbor& nb) {
        return exclude->count(nb.id) != 0;
      };
      const auto end = std::remove_if(list.begin(), list.end(), is_deleted);
      if (filtered != nullptr) {
        *filtered += static_cast<std::uint64_t>(list.end() - end);
      }
      list.erase(end, list.end());
    }
  }
  // Per-source engines report ties in scan order; normalize each run of
  // equal distances to ascending id so the cursor merge below emits the
  // one total order (distance, id) — and a k boundary inside a tie run
  // keeps the lowest global ids, deterministically.
  std::size_t available = 0;
  for (std::vector<Neighbor>& list : lists) {
    available += list.size();
    auto run = list.begin();
    while (run != list.end()) {
      auto end = run + 1;
      while (end != list.end() && end->distance == run->distance) {
        ++end;
      }
      if (end - run > 1) {
        std::sort(run, end, [](const Neighbor& a, const Neighbor& b) {
          return a.id < b.id;
        });
      }
      run = end;
    }
  }
  // Tournament merge: every list is ascending by (distance, id), so a
  // min-heap of one cursor per list yields the global answer in order.
  struct Cursor {
    float distance;
    std::uint32_t id;
    std::uint32_t list;
    std::uint32_t pos;
    bool operator>(const Cursor& other) const {
      if (distance != other.distance) {
        return distance > other.distance;
      }
      return id > other.id;
    }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<Cursor>> heap;
  for (std::uint32_t s = 0; s < lists.size(); ++s) {
    if (!lists[s].empty()) {
      heap.push(Cursor{lists[s][0].distance, lists[s][0].id, s, 0});
    }
  }
  std::vector<Neighbor> merged;
  merged.reserve(std::min(k, available));
  while (merged.size() < k && !heap.empty()) {
    const Cursor top = heap.top();
    heap.pop();
    merged.push_back(Neighbor{top.id, top.distance});
    const std::uint32_t next = top.pos + 1;
    if (next < lists[top.list].size()) {
      heap.push(Cursor{lists[top.list][next].distance,
                       lists[top.list][next].id, top.list, next});
    }
  }
  return merged;
}

std::vector<Neighbor> ShardedIndex::MergeTopK(
    const std::vector<std::vector<Neighbor>>& per_shard, std::size_t k,
    std::vector<std::vector<Neighbor>> extras,
    const std::unordered_set<std::uint32_t>* exclude,
    std::uint64_t* filtered) const {
  SOFA_CHECK(per_shard.size() == shards_.size());
  std::vector<std::vector<Neighbor>> lists;
  lists.reserve(per_shard.size() + extras.size());
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    std::vector<Neighbor> mapped(per_shard[s].size());
    const std::vector<std::uint32_t>& global_ids = *shards_[s].global_ids;
    for (std::size_t i = 0; i < per_shard[s].size(); ++i) {
      mapped[i] =
          Neighbor{global_ids[per_shard[s][i].id], per_shard[s][i].distance};
    }
    lists.push_back(std::move(mapped));
  }
  for (std::vector<Neighbor>& extra : extras) {
    lists.push_back(std::move(extra));
  }
  return MergeNeighborLists(std::move(lists), k, exclude, filtered);
}

}  // namespace shard
}  // namespace sofa
