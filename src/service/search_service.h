// SearchService — the concurrent query-serving layer over the exact
// engine (ROADMAP: "serves heavy traffic from millions of users").
//
// Clients Submit() k-NN requests from any number of threads; a bounded
// admission queue sheds load beyond its capacity (kRejected). A dedicated
// dispatcher thread drains the queue in batches and runs them all down
// one path: every generation is a shard::ShardedIndex (a single tree is a
// one-shard index, see snapshot.h), every query is one task per source —
// shard tree or insert buffer — run through RunTaskBatch, and every
// answer comes out of the exact merge (ShardedIndex::MergeTopK). Only the
// grouping adapts to load:
//
//   * light load (batch ≤ latency_mode_threshold): one executor batch per
//     query. A one-shard query is a lone task, which the executor runs
//     with full intra-query parallelism — the paper's protocol;
//   * heavy load: one executor batch of (query × source) tasks, each
//     single-threaded — maximal throughput at the same core count.
//
// Answers are exact in both modes and match a sequential
// QueryEngine::Search, with distance ties broken by the lowest global id
// (single-tree generations included). A query with any expired task
// fails whole (kDeadlineExpired); a traced query records admission →
// scatter → shard_scan×N (+ buffer_scan×B) → merge. The service owns the
// live generation behind a std::shared_ptr<const IndexSnapshot>;
// Publish() swaps it without stopping traffic (in-flight batches finish
// on the generation they started with), which is also the per-shard
// republish path. Serving metrics accumulate in a MetricsCollector.
//
// Admission understands per-request priority classes (interactive >
// batch > background): each class has its own FIFO inside the shared
// admission bound, dispatch drains strictly by class with a small
// per-round reserve for waiting lower classes (no total starvation), and
// latency-mode batches execute interactive requests first. Requests are
// tenant-tagged; with ServiceConfig::tenant_max_in_flight set, each
// tenant is capped to that many requests in flight (queued + executing)
// and excess is shed as kQuotaExceeded without touching the queue.
//
// The request/response structs themselves live in service/request.h —
// they are the transport-neutral API shared bit-for-bit with the network
// front end (src/net/).
//
// Threading contract: Submit() is thread-safe; the blocking helpers
// (Search, Drain, Shutdown, destructor) must be called from threads that
// are NOT workers of the service's thread pool — they wait on work the
// pool must execute.

#ifndef SOFA_SERVICE_SEARCH_SERVICE_H_
#define SOFA_SERVICE_SEARCH_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/neighbor.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/metrics.h"
#include "service/request.h"
#include "service/snapshot.h"
#include "util/thread_pool.h"

namespace sofa {
namespace service {

/// Service tuning knobs.
struct ServiceConfig {
  /// Admission bound: requests beyond this many pending are kRejected.
  std::size_t max_pending = 1024;

  /// Most requests drained per dispatch round (one executor batch).
  std::size_t max_batch = 64;

  /// Batches of at most this many requests run in latency mode (one
  /// executor batch per query); larger batches run in throughput mode
  /// (one executor batch for all, one thread per task). 0 forces
  /// throughput mode for everything.
  std::size_t latency_mode_threshold = 1;

  /// Worker threads per executor batch (0 = pool size); for a lone task,
  /// its intra-query thread count (0 = the index's configured count).
  std::size_t num_threads = 0;

  /// Start with the dispatcher paused (requests queue up until Resume()).
  bool start_paused = false;

  /// Per dispatch round, the number of batch slots guaranteed to waiting
  /// non-interactive requests (filled batch-before-background) while
  /// interactive traffic floods the queue — the anti-starvation bound.
  /// 0 = max(1, max_batch / 8). Priority order is otherwise strict.
  std::size_t priority_reserve = 0;

  /// Per-tenant cap on requests in flight (queued + executing); requests
  /// over the cap are shed as kQuotaExceeded at Submit(). 0 = no quotas
  /// (tenants untracked, no per-tenant accounting cost).
  std::size_t tenant_max_in_flight = 0;

  /// Metrics registry the service registers its instruments into; null =
  /// a private registry owned by the collector (per-instance semantics).
  /// Pass one shared registry to co-expose service + ingest + persist
  /// metrics from a single endpoint.
  obs::Registry* registry = nullptr;

  /// Per-query tracing & slow-query log (off by default; see TraceConfig).
  obs::TraceConfig trace;
};

class SearchService {
 public:
  /// Starts serving `snapshot` (version 1) on `pool`. The pool must
  /// outlive the service and should not be shared with blocking callers
  /// (see the threading contract above).
  SearchService(std::shared_ptr<const IndexSnapshot> snapshot,
                ThreadPool* pool, ServiceConfig config = ServiceConfig{});

  /// Stops the dispatcher; pending requests are answered kShutdown.
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Enqueues a request; the future resolves when it completes (any
  /// status). Never blocks on query execution.
  std::future<SearchResponse> Submit(SearchRequest request);

  /// Synchronous convenience: Submit + wait.
  SearchResponse Search(SearchRequest request);

  /// Publishes a new index generation; takes effect from the next
  /// dispatch round, without interrupting in-flight queries. Returns the
  /// new generation's version number.
  std::uint64_t Publish(std::shared_ptr<const IndexSnapshot> snapshot);

  /// The currently live generation (and its version, if wanted).
  std::shared_ptr<const IndexSnapshot> snapshot() const;
  std::uint64_t version() const;

  /// Pauses/resumes dispatch (admission stays open — useful to stage a
  /// backlog or quiesce execution around maintenance).
  void Pause();
  void Resume();

  /// Blocks until the queue is empty and no batch is executing. With the
  /// dispatcher paused and work queued this can only return after a
  /// Resume() from another thread — call Resume() first when staging a
  /// backlog single-threadedly.
  void Drain();

  /// Stops accepting work and fails everything still queued with
  /// kShutdown; idempotent.
  void Shutdown();

  /// Point-in-time serving metrics.
  MetricsSnapshot Metrics() const;

  /// The registry the service's instruments live in (owned or the one
  /// passed through ServiceConfig).
  obs::Registry* registry() const { return metrics_.registry(); }

  /// Traces of queries that exceeded the slow threshold (or expired
  /// their deadline) — dump on demand and at shutdown.
  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

  /// Current queue depth (pending, not yet dispatched).
  std::size_t PendingCount() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct PendingRequest {
    SearchRequest request;
    std::promise<SearchResponse> promise;
    std::chrono::steady_clock::time_point submit_time;

    // Tracing state of a sampled/opted-in query (null otherwise).
    std::unique_ptr<obs::QueryTrace> trace;
    int admission_span = -1;
    std::uint64_t query_id = 0;
  };

  void DispatcherLoop();
  /// Pops up to max_batch requests in priority order (with the
  /// anti-starvation reserve) into `batch`. Caller holds mutex_.
  void FillBatchLocked(std::vector<PendingRequest>* batch);
  std::size_t QueuedCountLocked() const;
  /// Drops one in-flight slot of `tenant` (no-op with quotas off). Caller
  /// holds mutex_.
  void ReleaseTenantLocked(const std::string& tenant);
  /// Releases the tenant in-flight slots of a finished batch and resolves
  /// every promise (outside the lock).
  void FinishBatch(std::vector<PendingRequest>* batch,
                   std::vector<SearchResponse>* responses);
  /// The one execution routine: admission checks, then one executor
  /// batch of (query × source) tasks per group and one merge per query.
  void ExecuteBatch(std::vector<PendingRequest>* batch,
                    const IndexSnapshot& snapshot, std::uint64_t version);
  /// Seals a traced request: attaches profile counters, feeds the stage
  /// histograms, pushes to the slow log, hands the record to the caller
  /// when requested. Must run before the response promise resolves.
  void FinishTrace(PendingRequest* pending, SearchResponse* response);
  obs::Histogram* StageHistogram(const char* span_name);

  /// Hardware-counter histograms of one executor-run stage
  /// (sofa_query_stage_{cycles,instructions,llc_misses,stalled_cycles}).
  struct StagePerfHistograms {
    obs::Histogram* cycles = nullptr;
    obs::Histogram* instructions = nullptr;
    obs::Histogram* llc_misses = nullptr;
    obs::Histogram* stalled_cycles = nullptr;
  };
  const StagePerfHistograms* StagePerf(const char* span_name) const;

  static double ElapsedMs(std::chrono::steady_clock::time_point since);

  ThreadPool* pool_;
  ServiceConfig config_;
  MetricsCollector metrics_;
  obs::TraceSampler sampler_;
  obs::SlowQueryLog slow_log_;
  std::atomic<std::uint64_t> next_query_id_{0};
  obs::Counter* traces_total_ = nullptr;
  obs::Counter* slow_queries_total_ = nullptr;
  obs::Histogram* stage_admission_ = nullptr;
  obs::Histogram* stage_scatter_ = nullptr;
  obs::Histogram* stage_shard_scan_ = nullptr;
  obs::Histogram* stage_buffer_scan_ = nullptr;
  obs::Histogram* stage_merge_ = nullptr;
  // Perf attribution of the executor-run scan stages (the spans the
  // workers bracket with obs::PerfCounters).
  StagePerfHistograms perf_shard_scan_;
  StagePerfHistograms perf_buffer_scan_;

  std::mutex shutdown_mutex_;  // serializes Shutdown() callers
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // dispatcher wakeups
  std::condition_variable drain_cv_;  // Drain()/Shutdown() waiters
  std::shared_ptr<const IndexSnapshot> snapshot_;
  std::uint64_t version_ = 1;
  // One FIFO per priority class inside the shared admission bound.
  std::deque<PendingRequest> queues_[kNumPriorities];
  // In-flight (queued + executing) request count per tenant; populated
  // only when tenant quotas are on.
  std::unordered_map<std::string, std::size_t> tenant_in_flight_;
  bool paused_ = false;
  bool stopping_ = false;
  bool executing_ = false;  // a batch is running outside the lock

  std::thread dispatcher_;
};

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_SEARCH_SERVICE_H_
