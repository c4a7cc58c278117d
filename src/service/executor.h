// Batch execution: the one way the serving stack runs work. A batch is a
// list of tasks, each one query against one source (a shard tree or an
// insert buffer); SearchService runs every dispatch round as one or more
// such batches, ShardedIndex scatters a query as one task per shard, and
// TreeIndex::SearchKnnBatch runs one task per query. Under load, cores
// are better spent on many single-threaded queries at once (FAISS-style
// batching, FLASH's inter-query parallelism) than inside one query, so
// tasks run single-threaded across the workers — except a batch of one
// task, a whole query with nothing to overlap, which gets the paper's
// intra-query parallelism.

#ifndef SOFA_SERVICE_EXECUTOR_H_
#define SOFA_SERVICE_EXECUTOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/neighbor.h"
#include "index/tree_index.h"
#include "ingest/insert_buffer.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace sofa {
namespace service {

/// One query unit of a cross-query batch. `result` is required; `profile`
/// is optional (merged work counters for this query alone).
struct QueryTask {
  const float* query = nullptr;
  std::size_t k = 1;
  double epsilon = 0.0;
  index::QueryProfile* profile = nullptr;
  std::vector<Neighbor>* result = nullptr;

  /// Index this task runs against (required unless `buffer` is set).
  const index::TreeIndex* index = nullptr;

  /// Insert-buffer scan unit: when `buffer` is non-null the task is an
  /// exact flat scan of the buffer rows [buffer_start, live size)
  /// instead of a tree search (`index` is then ignored) — the ingest
  /// path's delta-set half of a query, load-balanced through the same
  /// executor scatter as the tree halves. `exclude` masks tombstoned
  /// global ids inside the scan; rows scanned land in
  /// profile->series_ed_computed like any other real-distance work.
  const ingest::InsertBuffer* buffer = nullptr;
  std::size_t buffer_start = 0;
  const std::unordered_set<std::uint32_t>* exclude = nullptr;

  /// Drop-dead time, re-checked when a worker picks the task up (a task
  /// can expire while earlier tasks of the same batch run). Expired
  /// tasks are skipped and flagged instead of executed.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  bool expired = false;  // output: set by the executor

  /// Optional per-query tracing: when `trace` is non-null the worker
  /// stamps slot `span` (pre-allocated by the coordinator) with this
  /// task's execution window. Each slot belongs to exactly one task, so
  /// stamping never races.
  obs::QueryTrace* trace = nullptr;
  int span = -1;

  /// Output: hardware counters of this task's execution window (traced
  /// single-threaded tasks only — untraced tasks skip sampling, and one
  /// thread's counters cannot describe a multi-threaded lone task). Also
  /// stamped onto the trace span; the service aggregates it into the
  /// sofa_query_stage_{cycles,instructions,llc_misses,stalled_cycles}
  /// histograms. `perf.hardware == false` means the rdtsc fallback
  /// (perf_event_open denied — containers, CI).
  obs::PerfSample perf;
};

/// Answers all tasks exactly. A batch of one task runs inline on the
/// caller, a tree search with intra-query parallelism on `num_workers`
/// threads of the index's pool (0 = the index's configured count).
/// Otherwise `num_workers` workers of `pool` (0 = pool size) pull tasks
/// dynamically and run each single-threaded, so per-query work never
/// nests parallel sections. Safe to call from a non-pool thread only (it
/// blocks on the pool).
void RunTaskBatch(std::vector<QueryTask>* tasks, ThreadPool* pool,
                  std::size_t num_workers = 0);

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_EXECUTOR_H_
