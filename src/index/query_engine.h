// Exact GEMINI query answering over a TreeIndex (paper Section IV-C).
//
// Per query:
//   1. Approximate search: descend the tree along the query's own word to
//      one leaf and compute real distances there — the initial best-so-far
//      (BSF).
//   2. Collect: walk all subtrees in parallel; prune nodes whose summary
//      LBD ≥ BSF; surviving leaves go into a fixed set of lock-protected
//      priority queues ordered by leaf LBD.
//   3. Process: workers repeatedly pop the minimum-LBD leaf of a queue. If
//      its LBD ≥ BSF the whole queue is abandoned (everything behind it is
//      farther). Otherwise the leaf is scanned in two passes: every word's
//      LBD from the query's lookup table against the BSF at leaf entry,
//      survivors into the worker's scratch buffer; then, survivor by
//      survivor, the stored LBD against the live BSF, the rowq bound and
//      the early-abandoning real distance; improvements update the shared
//      BSF / k-NN heap.

#ifndef SOFA_INDEX_QUERY_ENGINE_H_
#define SOFA_INDEX_QUERY_ENGINE_H_

#include <cstddef>
#include <vector>

#include "index/tree_index.h"

namespace sofa {
namespace index {

/// Stateless facade; one Search call = one exact (or ε-approximate) query,
/// internally parallelized on the index's thread pool.
class QueryEngine {
 public:
  explicit QueryEngine(const TreeIndex* index) : index_(index) {}

  /// k-NN ascending by distance (Euclidean, not squared). With epsilon > 0
  /// every answer is within (1+epsilon) of the exact distance; 0 = exact.
  /// `profile` (optional) receives merged work counters. `num_threads`
  /// overrides the index configuration (0 = use it); batch mode passes 1.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               double epsilon = 0.0,
                               QueryProfile* profile = nullptr,
                               std::size_t num_threads = 0) const;

  /// Phase-1-only approximate answer (the query's own leaf).
  std::vector<Neighbor> SearchLeafOnly(const float* query,
                                       std::size_t k) const;

 private:
  const TreeIndex* index_;
};

}  // namespace index
}  // namespace sofa

#endif  // SOFA_INDEX_QUERY_ENGINE_H_
