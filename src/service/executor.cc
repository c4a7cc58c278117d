#include "service/executor.h"

#include <algorithm>
#include <atomic>

#include "index/query_engine.h"
#include "util/check.h"

namespace sofa {
namespace service {
namespace {

// One task: deadline check, then either the buffer flat scan or the tree
// search on `num_threads` threads.
void ExecuteTask(QueryTask* task_ptr, std::size_t num_threads) {
  QueryTask& task = *task_ptr;
  if (task.deadline != std::chrono::steady_clock::time_point::max() &&
      task.deadline < std::chrono::steady_clock::now()) {
    task.expired = true;
    return;
  }
  if (task.buffer != nullptr) {
    // Delta-set half of an ingesting query: exact flat scan of the
    // shard's insert buffer, tombstones masked inline. With the rowq
    // tier attached to the buffer, quantized-pruned rows never reach
    // the distance kernel, so ed/rowq work is accounted separately.
    ingest::InsertBuffer::ScanStats stats;
    task.buffer->SearchKnn(task.query, task.k, task.buffer_start, task.result,
                           task.exclude, &stats);
    if (task.profile != nullptr) {
      task.profile->series_ed_computed += stats.ed_computed;
      task.profile->rowq_checked += stats.rowq_checked;
      task.profile->rowq_pruned += stats.rowq_pruned;
    }
    return;
  }
  SOFA_DCHECK(task.index != nullptr);
  const index::QueryEngine engine(task.index);
  *task.result = engine.Search(task.query, task.k, task.epsilon,
                               task.profile, num_threads);
}

// One task, traced or not. A traced task stamps its span with its
// execution window (an expired task stamps a zero-length span at pickup
// time — the timeline then shows where the deadline cut the scatter).
// A task running on this thread alone is also bracketed by this thread's
// hardware counters (one thread_local perf group, opened once per
// thread), so cycles/instructions/LLC-miss attribution is exact per
// span; a multi-threaded task gets no sample, since one thread's
// counters miss its helpers. Untraced tasks skip all of it — the hot
// path stays one branch.
void RunTask(QueryTask* task, std::size_t num_threads) {
  SOFA_DCHECK(task->result != nullptr);
  if (task->trace == nullptr) {
    ExecuteTask(task, num_threads);
    return;
  }
  const double span_start = task->trace->NowMs();
  if (num_threads == 1) {
    obs::PerfCounters& perf = obs::PerfCounters::ForCurrentThread();
    perf.Start();
    ExecuteTask(task, num_threads);
    task->perf = perf.Stop();
    task->trace->StampSpanPerf(task->span, task->perf);
  } else {
    ExecuteTask(task, num_threads);
  }
  task->trace->StampSpan(task->span, span_start, task->trace->NowMs());
}

}  // namespace

void RunTaskBatch(std::vector<QueryTask>* tasks, ThreadPool* pool,
                  std::size_t num_workers) {
  SOFA_CHECK(tasks != nullptr);
  SOFA_CHECK(pool != nullptr);
  if (tasks->empty()) {
    return;
  }
  if (tasks->size() == 1) {
    // A lone task is a whole query with nothing to overlap it: give it
    // every thread, the paper's exploratory protocol.
    RunTask(&tasks->front(), num_workers);
    return;
  }
  if (num_workers == 0) {
    num_workers = pool->size();
  }
  num_workers = std::min(num_workers, tasks->size());
  // Grain 1: per-query costs are skewed (pruning power varies wildly
  // between queries), so workers pull one query at a time.
  std::atomic<std::size_t> next(0);
  ParallelRun(pool, num_workers, [&](std::size_t) {
    while (true) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks->size()) {
        return;
      }
      RunTask(&(*tasks)[t], /*num_threads=*/1);
    }
  });
}

}  // namespace service
}  // namespace sofa
