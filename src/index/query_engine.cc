#include "index/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>

#include "core/distance.h"
#include "quant/lbd.h"
#include "quant/rowq.h"
#include "util/aligned.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace sofa {
namespace index {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Shared k-NN result set: a bounded max-heap under a mutex plus an atomic
// mirror of the pruning bound (k-th best squared distance) for cheap reads
// from all workers.
class ResultSet {
 public:
  explicit ResultSet(std::size_t k) : k_(k) { bsf_sq_.store(kInf); }

  /// Current pruning bound (squared distance); +inf until k results exist.
  float bsf_sq() const { return bsf_sq_.load(std::memory_order_relaxed); }

  /// Offers a candidate; keeps the k smallest.
  void Update(std::uint32_t id, float dist_sq) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (heap_.size() < k_) {
      heap_.push(Entry{dist_sq, id});
      if (heap_.size() == k_) {
        bsf_sq_.store(heap_.top().dist_sq, std::memory_order_relaxed);
      }
      return;
    }
    if (dist_sq < heap_.top().dist_sq) {
      heap_.pop();
      heap_.push(Entry{dist_sq, id});
      bsf_sq_.store(heap_.top().dist_sq, std::memory_order_relaxed);
    }
  }

  /// Drains into a sorted (ascending) neighbor list.
  std::vector<Neighbor> Finish() {
    std::vector<Neighbor> result;
    result.reserve(heap_.size());
    while (!heap_.empty()) {
      result.push_back(
          Neighbor{heap_.top().id, std::sqrt(heap_.top().dist_sq)});
      heap_.pop();
    }
    std::reverse(result.begin(), result.end());
    return result;
  }

 private:
  struct Entry {
    float dist_sq;
    std::uint32_t id;
    bool operator<(const Entry& other) const {  // max-heap on distance
      return dist_sq < other.dist_sq;
    }
  };

  std::size_t k_;
  std::priority_queue<Entry> heap_;
  std::atomic<float> bsf_sq_;
  std::mutex mutex_;
};

struct LeafEntry {
  float lbd_sq;
  const Node* leaf;
  bool operator>(const LeafEntry& other) const {
    return lbd_sq > other.lbd_sq;
  }
};

// One lock-protected min-priority queue of candidate leaves (the paper uses
// #cores of these, accessed under locks).
class LeafQueue {
 public:
  void Push(LeafEntry entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(entry);
  }

  std::optional<LeafEntry> PopMin() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) {
      return std::nullopt;
    }
    const LeafEntry top = queue_.top();
    queue_.pop();
    return top;
  }

  // "Abandon": everything still queued is at least as far as the entry that
  // triggered abandonment, so it can all be pruned at once. Returns the
  // number of entries dropped.
  std::size_t Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t dropped = queue_.size();
    queue_ = {};
    return dropped;
  }

 private:
  std::mutex mutex_;
  std::priority_queue<LeafEntry, std::vector<LeafEntry>,
                      std::greater<LeafEntry>>
      queue_;
};

// Per-query immutable context.
struct QueryContext {
  const TreeIndex* index;
  const float* query;
  std::vector<float> projection;   // query in summary space
  std::vector<std::uint8_t> word;  // query's own word
  // Per-series LBD lookup table of this query (quant::BuildLbdTable):
  // word_length × alphabet terms, read by the dispatched tier that built
  // it.
  AlignedVector<float> lbd_table;
  // ε-approximation: lower bounds are inflated by this factor before being
  // compared against the BSF; 1.0 = exact search.
  float lbd_inflation_sq = 1.0f;
  // Compressed pruning tier (engaged when the index carries a rowq
  // sidecar): quantized-row lower bounds evaluated between the summary
  // LBD and the exact kernel.
  std::optional<quant::RowQuantView> rowq;
};

// The rowq tier: true when the quantized lower bound proves row `id`
// cannot be admitted at `bound`. Admission everywhere requires a strict
// d < bound, and the deflated bound never exceeds the float the exact
// kernel reports, so pruning at lb ≥ bound is answer-preserving bit for
// bit (ties included). The bound < kInf guard keeps the tier out of the
// heap-filling phase, where inflated products could overflow to +inf
// and compare ≥ an infinite bound.
inline bool RowqPrunes(const QueryContext& ctx, std::uint32_t id, float bound,
                       QueryProfile* profile) {
  if (!ctx.rowq || !(bound < kInf) || !ctx.rowq->prunable(id)) {
    return false;
  }
  ++profile->rowq_checked;
  // The kernel may stop scanning once its partial sum crosses the raw
  // threshold; the predicate below is applied to whatever (partial or
  // full) adjusted bound comes back, so the abandon point affects cost
  // only, never the decision's soundness.
  const float lb = ctx.rowq->LowerBoundEarlyAbandon(
      id, ctx.rowq->RawAbandonThreshold(bound, ctx.lbd_inflation_sq));
  if (lb * ctx.lbd_inflation_sq >= bound) {
    ++profile->rowq_pruned;
    return true;
  }
  return false;
}

// The refine stages of one candidate: the rowq tier, then the
// early-abandoning exact kernel at the live `bound`.
inline void Refine(const QueryContext& ctx, std::uint32_t id, float bound,
                   ResultSet* results, QueryProfile* profile) {
  if (RowqPrunes(ctx, id, bound, profile)) {
    return;
  }
  const Dataset& data = ctx.index->data();
  const float d = SquaredEuclideanEarlyAbandon(ctx.query, data.row(id),
                                               data.length(), bound);
  ++profile->series_ed_computed;
  if (d < bound) {
    results->Update(id, d);
  }
}

// Scans every series of a leaf with the real distance only (approximate
// search seeding the BSF).
void ScanLeafExact(const QueryContext& ctx, const Node& leaf,
                   ResultSet* results, QueryProfile* profile) {
  for (const std::uint32_t id : leaf.series_ids) {
    Refine(ctx, id, results->bsf_sq(), results, profile);
  }
}

// Scans a leaf with the LBD → real-distance cascade (Algorithm 3 call
// site) in two passes. Pass 1: the table LBD of every word against the
// BSF at leaf entry, survivors into the worker's `scratch`.
void ScanLeafPruned(const QueryContext& ctx, const Node& leaf,
                    ResultSet* results, QueryProfile* profile,
                    std::vector<quant::LbdCandidate>* scratch) {
  const quant::SummaryScheme& scheme = ctx.index->scheme();
  const std::size_t n = leaf.leaf_size();
  scratch->resize(std::max(scratch->size(), n));
  const std::size_t survivors = quant::LbdTableFilter(
      ctx.lbd_table.data(), scheme.word_length(), scheme.table().alphabet(),
      leaf.words.data(), leaf.series_ids.data(), n, results->bsf_sq(),
      ctx.lbd_inflation_sq, scratch->data());
  profile->series_lbd_checked += n;
  profile->series_lbd_pruned += n - survivors;
  // Pass 2: the survivors in order, each re-checked against the live BSF
  // by its stored LBD (pass 1 compared it with the BSF at leaf entry,
  // which may have tightened since). For exact search on one worker
  // every decision equals the one a per-series inline cascade makes: the
  // BSF sequence is the same, and an LBD abandoned at a looser bound is
  // never smaller than one abandoned at the live bound.
  for (std::size_t i = 0; i < survivors; ++i) {
    const quant::LbdCandidate& candidate = (*scratch)[i];
    const float bound = results->bsf_sq();
    if (candidate.lbd_sq * ctx.lbd_inflation_sq >= bound) {
      ++profile->series_lbd_pruned;
      continue;
    }
    Refine(ctx, candidate.id, bound, results, profile);
  }
}

// Descends from `node` to the leaf matching the query's own word bits.
const Node* DescendToLeaf(const QueryContext& ctx, const Node* node) {
  const std::uint32_t bits = ctx.index->scheme().bits();
  while (!node->is_leaf()) {
    const std::size_t dim = node->split_dim;
    const std::uint32_t child_card = node->left->cards[dim];
    const std::uint32_t bit = (ctx.word[dim] >> (bits - child_card)) & 1u;
    node = bit == 0 ? node->left.get() : node->right.get();
  }
  return node;
}

// Approximate search (paper Section IV-C): the leaf the query itself would
// be stored in, or the most promising subtree when that root child is
// empty.
const Node* ApproximateLeaf(const QueryContext& ctx) {
  const TreeIndex& index = *ctx.index;
  const std::size_t root_bits = index.root_bits();
  const std::uint32_t bits = index.scheme().bits();
  std::uint32_t key = 0;
  for (std::size_t dim = 0; dim < root_bits; ++dim) {
    key = (key << 1) | (ctx.word[dim] >> (bits - 1));
  }
  const Node* start = index.root_child(key);
  if (start == nullptr) {
    float best_lbd = kInf;
    for (const auto& [subtree_key, node] : index.subtrees()) {
      const float lbd = quant::NodeLbdSquared(
          index.scheme().table(), index.scheme().weights(),
          ctx.projection.data(), node->prefixes.data(), node->cards.data());
      if (lbd < best_lbd) {
        best_lbd = lbd;
        start = node;
      }
    }
  }
  return start == nullptr ? nullptr : DescendToLeaf(ctx, start);
}

// DFS of one subtree, pruning by node LBD and spreading surviving leaves
// round-robin over the queues.
void CollectLeaves(const QueryContext& ctx, const Node* node,
                   const ResultSet& results, std::vector<LeafQueue>* queues,
                   std::atomic<std::size_t>* queue_cursor,
                   const Node* skip_leaf, QueryProfile* profile) {
  if (node->is_leaf() && node == skip_leaf) {
    return;  // already scanned exhaustively by the approximate phase
  }
  const quant::SummaryScheme& scheme = ctx.index->scheme();
  const float lbd_sq = quant::NodeLbdSquared(
      scheme.table(), scheme.weights(), ctx.projection.data(),
      node->prefixes.data(), node->cards.data());
  ++profile->nodes_visited;
  if (lbd_sq * ctx.lbd_inflation_sq >= results.bsf_sq()) {
    ++profile->nodes_pruned;  // prunes the entire subtree
    return;
  }
  if (node->is_leaf()) {
    const std::size_t qi =
        queue_cursor->fetch_add(1, std::memory_order_relaxed) %
        queues->size();
    (*queues)[qi].Push(LeafEntry{lbd_sq, node});
    ++profile->leaves_collected;
    return;
  }
  CollectLeaves(ctx, node->left.get(), results, queues, queue_cursor,
                skip_leaf, profile);
  CollectLeaves(ctx, node->right.get(), results, queues, queue_cursor,
                skip_leaf, profile);
}

// Builds the per-query context (projection, word, LBD table).
QueryContext MakeContext(const TreeIndex* index, const float* query,
                         double epsilon) {
  const quant::SummaryScheme& scheme = index->scheme();
  const std::size_t l = scheme.word_length();
  QueryContext ctx;
  ctx.index = index;
  ctx.query = query;
  ctx.projection.resize(l);
  ctx.word.resize(l);
  const double inflation = (1.0 + epsilon) * (1.0 + epsilon);
  ctx.lbd_inflation_sq = static_cast<float>(inflation);
  auto scratch = scheme.NewScratch();
  scheme.Project(query, ctx.projection.data(), scratch.get());
  for (std::size_t dim = 0; dim < l; ++dim) {
    ctx.word[dim] = scheme.table().Quantize(dim, ctx.projection[dim]);
  }
  ctx.lbd_table.resize(l * scheme.table().alphabet());
  quant::BuildLbdTable(scheme.table(), scheme.weights(), ctx.projection.data(),
                       ctx.lbd_table.data());
  if (index->rowq() != nullptr) {
    ctx.rowq.emplace(index->rowq().get(), query);
  }
  return ctx;
}

}  // namespace

std::vector<Neighbor> QueryEngine::Search(const float* query, std::size_t k,
                                          double epsilon,
                                          QueryProfile* profile,
                                          std::size_t num_threads) const {
  const TreeIndex& index = *index_;
  const Dataset& data = index.data();
  if (data.empty() || k == 0) {
    return {};
  }
  SOFA_CHECK(epsilon >= 0.0);
  k = std::min(k, data.size());
  const QueryContext ctx = MakeContext(index_, query, epsilon);
  ResultSet results(k);
  QueryProfile local_profile;

  // Phase 1: approximate answer seeds the BSF.
  const Node* approx_leaf = ApproximateLeaf(ctx);
  if (approx_leaf != nullptr) {
    ScanLeafExact(ctx, *approx_leaf, &results, &local_profile);
  }

  ThreadPool* pool = index.pool();
  if (num_threads == 0) {
    num_threads = index.config().num_threads == 0
                      ? pool->size()
                      : index.config().num_threads;
  }
  const std::size_t num_queues = index.config().num_queues == 0
                                     ? num_threads
                                     : index.config().num_queues;

  // Phase 2: collect candidate leaves into the priority queues, using
  // exactly num_threads workers over dynamically handed-out subtree chunks.
  std::vector<LeafQueue> queues(num_queues);
  std::atomic<std::size_t> queue_cursor(0);
  const auto& subtrees = index.subtrees();
  std::mutex profile_mutex;
  {
    std::atomic<std::size_t> next_subtree(0);
    constexpr std::size_t kGrain = 4;
    ParallelRun(pool, num_threads, [&](std::size_t) {
      QueryProfile worker_profile;
      while (true) {
        const std::size_t begin = next_subtree.fetch_add(kGrain);
        if (begin >= subtrees.size()) {
          break;
        }
        const std::size_t end = std::min(subtrees.size(), begin + kGrain);
        for (std::size_t s = begin; s < end; ++s) {
          CollectLeaves(ctx, subtrees[s].second, results, &queues,
                        &queue_cursor, approx_leaf, &worker_profile);
        }
      }
      std::lock_guard<std::mutex> lock(profile_mutex);
      local_profile.Merge(worker_profile);
    });
  }

  // Phase 3: workers drain the queues with BSF pruning and abandonment.
  ParallelRun(pool, num_threads, [&](std::size_t worker) {
    QueryProfile worker_profile;
    std::vector<quant::LbdCandidate> scratch;  // this worker's survivors
    for (std::size_t offset = 0; offset < num_queues; ++offset) {
      LeafQueue& queue = queues[(worker + offset) % num_queues];
      while (true) {
        const std::optional<LeafEntry> entry = queue.PopMin();
        if (!entry.has_value()) {
          break;  // queue exhausted, move to the next one
        }
        if (entry->lbd_sq * ctx.lbd_inflation_sq >= results.bsf_sq()) {
          // All remaining entries are at least as far: abandon the queue.
          worker_profile.leaves_abandoned += 1 + queue.Clear();
          break;
        }
        ScanLeafPruned(ctx, *entry->leaf, &results, &worker_profile,
                       &scratch);
      }
    }
    std::lock_guard<std::mutex> lock(profile_mutex);
    local_profile.Merge(worker_profile);
  });

  if (profile != nullptr) {
    profile->Merge(local_profile);
  }
  return results.Finish();
}

std::vector<Neighbor> QueryEngine::SearchLeafOnly(const float* query,
                                                  std::size_t k) const {
  const TreeIndex& index = *index_;
  if (index.data().empty() || k == 0) {
    return {};
  }
  k = std::min(k, index.data().size());
  const QueryContext ctx = MakeContext(index_, query, 0.0);
  const Node* leaf = ApproximateLeaf(ctx);
  if (leaf == nullptr) {
    return {};
  }
  ResultSet results(std::min(k, leaf->leaf_size()));
  QueryProfile profile;
  ScanLeafExact(ctx, *leaf, &results, &profile);
  return results.Finish();
}

}  // namespace index
}  // namespace sofa
