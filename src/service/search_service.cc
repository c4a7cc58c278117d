#include "service/search_service.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

#include "service/executor.h"
#include "util/check.h"

namespace sofa {
namespace service {
namespace {

// One consistent tombstone snapshot for a query (or a whole batch): the
// live set can grow concurrently, and tree scatter + buffer scan + merge
// must all filter the same ids. Null when the generation has no delete
// path or nothing is tombstoned — the fast path skips all filtering.
std::shared_ptr<const std::unordered_set<std::uint32_t>> TombstoneViewOf(
    const IndexSnapshot& snapshot) {
  if (!snapshot.is_ingesting() || snapshot.buffers->tombstones == nullptr) {
    return nullptr;
  }
  auto view = snapshot.buffers->tombstones->view();
  if (view->empty()) {
    return nullptr;
  }
  return view;
}

// Per-shard widening for the tree searches of a query whose filter view
// is non-empty: a deleted row still inside shard s's tree can displace
// at most one live candidate from shard s's own list, so each shard
// over-fetches by the tombstones routed to it, not by the global count.
// Must be sampled AFTER TombstoneViewOf (see ShardBuffers); falls back
// to the global view size when the snapshot carries no counts.
std::vector<std::size_t> ShardKExtra(
    const IndexSnapshot& snapshot,
    const std::unordered_set<std::uint32_t>& view) {
  const std::size_t num_shards = snapshot.sharded->num_shards();
  std::vector<std::size_t> extra(num_shards, view.size());
  const auto& counts = snapshot.buffers->tombstone_shard_counts;
  if (counts != nullptr && counts->size() == num_shards) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      extra[s] = (*counts)[s].load(std::memory_order_relaxed);
    }
  }
  return extra;
}

// Span names used by this TU and matched by pointer in StageHistogram —
// every span is begun/allocated with one of these arrays, so identity
// comparison is exact and free.
constexpr char kSpanAdmission[] = "admission";
constexpr char kSpanScatter[] = "scatter";
constexpr char kSpanShardScan[] = "shard_scan";
constexpr char kSpanBufferScan[] = "buffer_scan";
constexpr char kSpanMerge[] = "merge";

}  // namespace

SearchService::SearchService(std::shared_ptr<const IndexSnapshot> snapshot,
                             ThreadPool* pool, ServiceConfig config)
    : pool_(pool), config_(config), metrics_(config.registry),
      sampler_(config.trace.sample_every),
      slow_log_(config.trace.slow_log_capacity),
      snapshot_(std::move(snapshot)), paused_(config.start_paused) {
  SOFA_CHECK(pool_ != nullptr);
  SOFA_CHECK(snapshot_ != nullptr && snapshot_->sharded != nullptr);
  SOFA_CHECK(config_.max_pending > 0);
  if (config_.max_batch == 0) {
    config_.max_batch = 1;
  }
  obs::Registry* registry = metrics_.registry();
  traces_total_ = registry->GetCounter("sofa_query_traces_total", {},
                                       "Queries that carried a trace");
  slow_queries_total_ =
      registry->GetCounter("sofa_slow_queries_total", {},
                           "Queries recorded in the slow-query log");
  const char* kStage = "sofa_query_stage_ms";
  const char* kStageHelp = "Per-stage time of traced queries (ms)";
  const obs::HistogramOptions stage_options;  // 1 µs .. 100 s
  stage_admission_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", "admission"}}, kStageHelp);
  stage_scatter_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", "scatter"}}, kStageHelp);
  stage_shard_scan_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", "shard_scan"}}, kStageHelp);
  stage_buffer_scan_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", "buffer_scan"}}, kStageHelp);
  stage_merge_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", "merge"}}, kStageHelp);
  // Hardware-counter attribution of the executor-run stages. Counts per
  // scan span range from a handful (tiny buffers) to billions of cycles,
  // hence the wide geometry.
  obs::HistogramOptions perf_options;
  perf_options.min_value = 1.0;
  perf_options.max_value = 1e12;
  perf_options.buckets_per_decade = 5;
  struct {
    StagePerfHistograms* slot;
    const char* stage;
  } const perf_stages[] = {{&perf_shard_scan_, "shard_scan"},
                           {&perf_buffer_scan_, "buffer_scan"}};
  for (const auto& entry : perf_stages) {
    entry.slot->cycles = registry->GetHistogram(
        "sofa_query_stage_cycles", perf_options, {{"stage", entry.stage}},
        "CPU cycles per traced stage execution (rdtsc fallback when "
        "perf_event_open is unavailable)");
    entry.slot->instructions = registry->GetHistogram(
        "sofa_query_stage_instructions", perf_options,
        {{"stage", entry.stage}},
        "Retired instructions per traced stage execution");
    entry.slot->llc_misses = registry->GetHistogram(
        "sofa_query_stage_llc_misses", perf_options, {{"stage", entry.stage}},
        "Last-level-cache misses per traced stage execution");
    entry.slot->stalled_cycles = registry->GetHistogram(
        "sofa_query_stage_stalled_cycles", perf_options,
        {{"stage", entry.stage}},
        "Backend-stalled cycles per traced stage execution");
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

SearchService::~SearchService() { Shutdown(); }

double SearchService::ElapsedMs(
    std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

std::future<SearchResponse> SearchService::Submit(SearchRequest request) {
  metrics_.RecordSubmitted();
  PendingRequest pending;
  pending.request = std::move(request);
  pending.submit_time = std::chrono::steady_clock::now();
  // Wire clients express deadlines as the relative deadline_ms field;
  // derive the absolute in-process deadline at admission when the caller
  // did not set one directly (the wire never carries a clock reading).
  if (pending.request.deadline_ms > 0.0 &&
      pending.request.deadline ==
          std::chrono::steady_clock::time_point::max()) {
    pending.request.deadline =
        pending.submit_time +
        std::chrono::microseconds(
            static_cast<std::int64_t>(pending.request.deadline_ms * 1e3));
  }
  // Tracing decision: explicit opt-in, trace-everything (slow-query log
  // armed), or every Nth by the sampler. When all three are off this is
  // one branch + one relaxed load — the zero-cost path.
  if (pending.request.collect_trace || config_.trace.slow_query_ms > 0.0 ||
      sampler_.ShouldSample()) {
    pending.trace.reset(new obs::QueryTrace(config_.trace.max_spans));
    pending.query_id =
        next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    pending.admission_span = pending.trace->BeginSpan(kSpanAdmission);
  }
  std::future<SearchResponse> future = pending.promise.get_future();
  RequestStatus shed = RequestStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      shed = RequestStatus::kShutdown;
    } else if (QueuedCountLocked() >= config_.max_pending) {
      shed = RequestStatus::kRejected;
    } else if (config_.tenant_max_in_flight > 0 &&
               [&] {
                 auto it = tenant_in_flight_.find(pending.request.tenant);
                 return it != tenant_in_flight_.end() &&
                        it->second >= config_.tenant_max_in_flight;
               }()) {
      shed = RequestStatus::kQuotaExceeded;
    } else {
      if (config_.tenant_max_in_flight > 0) {
        ++tenant_in_flight_[pending.request.tenant];
      }
      const std::size_t cls =
          std::min(static_cast<std::size_t>(pending.request.priority),
                   kNumPriorities - 1);
      queues_[cls].push_back(std::move(pending));
      work_cv_.notify_one();
      return future;
    }
  }
  // Shed without running: stopped, admission queue full, or the tenant's
  // in-flight quota is spent.
  SearchResponse response;
  response.status = shed;
  if (shed == RequestStatus::kQuotaExceeded) {
    metrics_.RecordQuotaRejected();
  } else {
    metrics_.RecordRejected();
  }
  pending.promise.set_value(std::move(response));
  return future;
}

SearchResponse SearchService::Search(SearchRequest request) {
  return Submit(std::move(request)).get();
}

std::uint64_t SearchService::Publish(
    std::shared_ptr<const IndexSnapshot> snapshot) {
  SOFA_CHECK(snapshot != nullptr && snapshot->sharded != nullptr);
  std::uint64_t version;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = std::move(snapshot);
    version = ++version_;
  }
  metrics_.RecordSwap();
  return version;
}

std::shared_ptr<const IndexSnapshot> SearchService::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

std::uint64_t SearchService::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

void SearchService::Pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void SearchService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void SearchService::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] {
    return stopping_ || (QueuedCountLocked() == 0 && !executing_);
  });
}

void SearchService::Shutdown() {
  // Serialized: a second caller (e.g. the destructor racing an explicit
  // Shutdown) blocks here until the first has joined the dispatcher, so
  // nobody returns while the dispatcher thread is still alive.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::deque<PendingRequest> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (std::size_t cls = 0; cls < kNumPriorities; ++cls) {
      for (PendingRequest& pending : queues_[cls]) {
        ReleaseTenantLocked(pending.request.tenant);
        drained.push_back(std::move(pending));
      }
      queues_[cls].clear();
    }
  }
  work_cv_.notify_all();
  drain_cv_.notify_all();
  for (PendingRequest& pending : drained) {
    SearchResponse response;
    response.status = RequestStatus::kShutdown;
    response.latency_ms = ElapsedMs(pending.submit_time);
    metrics_.RecordRejected();
    pending.promise.set_value(std::move(response));
  }
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
}

MetricsSnapshot SearchService::Metrics() const { return metrics_.Snapshot(); }

std::size_t SearchService::PendingCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return QueuedCountLocked();
}

std::size_t SearchService::QueuedCountLocked() const {
  std::size_t total = 0;
  for (std::size_t cls = 0; cls < kNumPriorities; ++cls) {
    total += queues_[cls].size();
  }
  return total;
}

void SearchService::ReleaseTenantLocked(const std::string& tenant) {
  if (config_.tenant_max_in_flight == 0) {
    return;
  }
  auto it = tenant_in_flight_.find(tenant);
  if (it != tenant_in_flight_.end() && --(it->second) == 0) {
    tenant_in_flight_.erase(it);
  }
}

// Pops up to max_batch requests in strict priority order — except for a
// small per-round reserve granted to waiting lower classes, so a steady
// interactive flood cannot starve batch/background forever. The batch
// comes out interactive-first, which also makes latency-mode execution
// (sequential within the batch) serve interactive requests first.
void SearchService::FillBatchLocked(std::vector<PendingRequest>* batch) {
  const std::size_t max_batch = config_.max_batch;
  const std::size_t reserve_cap =
      config_.priority_reserve != 0
          ? config_.priority_reserve
          : std::max<std::size_t>(1, max_batch / 8);
  const std::size_t lower_waiting = queues_[1].size() + queues_[2].size();
  std::size_t reserved = std::min(reserve_cap, lower_waiting);
  if (!queues_[0].empty()) {
    // Never let the reserve consume the whole round while interactive
    // work waits.
    reserved = std::min(reserved, max_batch > 1 ? max_batch - 1 : 0);
  }
  // Strict priority for the unreserved budget; leftover budget (e.g. a
  // short interactive queue) spills down to the lower classes naturally.
  std::size_t budget = max_batch - reserved;
  for (std::size_t cls = 0; cls < kNumPriorities; ++cls) {
    while (budget > 0 && !queues_[cls].empty()) {
      batch->push_back(std::move(queues_[cls].front()));
      queues_[cls].pop_front();
      --budget;
    }
  }
  // The reserved slots go to whatever lower-class work is still waiting,
  // batch before background.
  budget += reserved;
  for (std::size_t cls = 1; cls < kNumPriorities; ++cls) {
    while (budget > 0 && !queues_[cls].empty()) {
      batch->push_back(std::move(queues_[cls].front()));
      queues_[cls].pop_front();
      --budget;
    }
  }
}

void SearchService::DispatcherLoop() {
  while (true) {
    std::vector<PendingRequest> batch;
    std::shared_ptr<const IndexSnapshot> snapshot;
    std::uint64_t version = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && QueuedCountLocked() > 0);
      });
      if (stopping_) {
        return;  // Shutdown() fails whatever is still queued
      }
      batch.reserve(std::min(QueuedCountLocked(), config_.max_batch));
      FillBatchLocked(&batch);
      snapshot = snapshot_;  // the generation this whole batch runs against
      version = version_;
      executing_ = true;
    }
    ExecuteBatch(&batch, *snapshot, version);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      executing_ = false;
      if (QueuedCountLocked() == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

void SearchService::ExecuteBatch(std::vector<PendingRequest>* batch,
                                 const IndexSnapshot& snapshot,
                                 std::uint64_t version) {
  const std::size_t series_length = snapshot.series_length();
  const auto now = std::chrono::steady_clock::now();

  // Admission-time bookkeeping per request; expired/malformed requests are
  // answered without touching the engine.
  std::vector<SearchResponse> responses(batch->size());
  std::vector<std::size_t> runnable;
  runnable.reserve(batch->size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    const SearchRequest& request = (*batch)[i].request;
    responses[i].index_version = version;
    if ((*batch)[i].trace != nullptr) {
      // Queue wait ends when the batch picks the request up.
      (*batch)[i].trace->EndSpan((*batch)[i].admission_span);
    }
    if (request.deadline < now) {
      responses[i].status = RequestStatus::kDeadlineExpired;
      metrics_.RecordExpired();
    } else if (request.query.size() != series_length) {
      responses[i].status = RequestStatus::kInvalidArgument;
      metrics_.RecordInvalid();
    } else {
      runnable.push_back(i);
    }
  }

  // Every generation is sharded, so every group of queries runs alike:
  // one executor batch of (query × source) tasks — a source is a shard
  // tree or a non-null insert buffer — then one exact merge per query.
  // Latency mode makes each request its own group (on a one-shard
  // generation that is one task, which the executor runs with
  // intra-query parallelism); throughput mode makes the whole batch one
  // group, load-balanced across the workers.
  const shard::ShardedIndex& sharded = *snapshot.sharded;
  const std::size_t num_shards = sharded.num_shards();
  std::vector<std::size_t> buffered_shards;
  if (snapshot.is_ingesting()) {
    for (std::size_t s = 0; s < snapshot.buffers->buffers.size(); ++s) {
      if (snapshot.buffers->buffers[s] != nullptr) {
        buffered_shards.push_back(s);
      }
    }
  }
  // One tombstone snapshot for the whole batch (every request here was
  // submitted before the batch started, so batch-time visibility
  // satisfies the delete contract); each shard task over-fetches by that
  // shard's resident tombstone count so the merges can filter without
  // losing live candidates.
  const auto tombstones = TombstoneViewOf(snapshot);
  const std::vector<std::size_t> k_extra =
      tombstones != nullptr ? ShardKExtra(snapshot, *tombstones)
                            : std::vector<std::size_t>(num_shards, 0);
  const std::size_t sources = num_shards + buffered_shards.size();
  const bool latency_mode = runnable.size() <= config_.latency_mode_threshold;
  const std::size_t group_size = latency_mode ? 1 : runnable.size();
  for (std::size_t first = 0; first < runnable.size(); first += group_size) {
    const std::size_t* group = &runnable[first];
    // Tasks, results and profiles line up: query q's sources occupy
    // slots [q * sources, (q + 1) * sources), shard trees first.
    const std::size_t total_tasks = group_size * sources;
    std::vector<std::vector<Neighbor>> results(total_tasks);
    std::vector<index::QueryProfile> profiles(total_tasks);
    std::vector<QueryTask> tasks(total_tasks);
    // One scatter span per traced query: it brackets the shared executor
    // run, inside which the per-task shard/buffer spans get stamped.
    std::vector<int> scatter_spans(group_size, -1);
    for (std::size_t q = 0; q < group_size; ++q) {
      const SearchRequest& request = (*batch)[group[q]].request;
      obs::QueryTrace* trace = (*batch)[group[q]].trace.get();
      // Traced queries always collect work counters — the trace attaches
      // them — so the profile lands in the response either way.
      const bool want_profile = request.collect_profile || trace != nullptr;
      if (trace != nullptr) {
        scatter_spans[q] = trace->BeginSpan(kSpanScatter);
      }
      for (std::size_t j = 0; j < sources; ++j) {
        const std::size_t t = q * sources + j;
        QueryTask& task = tasks[t];
        task.query = request.query.data();
        task.k = request.k;
        task.epsilon = request.epsilon;
        task.deadline = request.deadline;
        task.result = &results[t];
        task.profile = want_profile ? &profiles[t] : nullptr;
        if (j < num_shards) {
          task.index = sharded.shard(j).tree.get();
          task.k += k_extra[j];
        } else {
          const std::size_t s = buffered_shards[j - num_shards];
          task.buffer = snapshot.buffers->buffers[s].get();
          task.buffer_start = snapshot.buffers->start[s];
          task.exclude = tombstones.get();
        }
        if (trace != nullptr) {
          task.trace = trace;
          task.span = trace->AllocateSpan(
              j < num_shards ? kSpanShardScan : kSpanBufferScan,
              scatter_spans[q]);
        }
      }
    }
    RunTaskBatch(&tasks, pool_, config_.num_threads);
    for (std::size_t q = 0; q < group_size; ++q) {
      if ((*batch)[group[q]].trace != nullptr) {
        (*batch)[group[q]].trace->EndSpan(scatter_spans[q]);
      }
    }
    if (!latency_mode) {
      metrics_.RecordThroughputBatch(group_size);
    }

    for (std::size_t q = 0; q < group_size; ++q) {
      SearchResponse& response = responses[group[q]];
      const SearchRequest& request = (*batch)[group[q]].request;
      obs::QueryTrace* trace = (*batch)[group[q]].trace.get();
      // A query with any expired task has no exact answer — fail it
      // whole rather than merge a subset of its sources.
      const auto query_tasks = tasks.begin() + static_cast<std::ptrdiff_t>(
                                                   q * sources);
      if (std::any_of(query_tasks, query_tasks + sources,
                      [](const QueryTask& task) { return task.expired; })) {
        response.status = RequestStatus::kDeadlineExpired;
        metrics_.RecordExpired();
        continue;
      }
      if (latency_mode) {
        metrics_.RecordLatencyModeQuery();
      }
      const bool want_profile = request.collect_profile || trace != nullptr;
      std::vector<std::vector<Neighbor>> per_shard(num_shards);
      std::vector<std::vector<Neighbor>> extras;
      for (std::size_t j = 0; j < sources; ++j) {
        const std::size_t t = q * sources + j;
        if (want_profile) {
          response.profile.Merge(profiles[t]);
        }
        if (j < num_shards) {
          per_shard[j] = std::move(results[t]);
        } else if (!results[t].empty()) {
          extras.push_back(std::move(results[t]));
        }
      }
      std::uint64_t filtered = 0;
      const int merge_span =
          trace != nullptr ? trace->BeginSpan(kSpanMerge) : -1;
      response.neighbors = sharded.MergeTopK(per_shard, request.k,
                                             std::move(extras),
                                             tombstones.get(), &filtered);
      if (trace != nullptr) {
        trace->EndSpan(merge_span);
      }
      if (want_profile) {
        response.profile.candidates_filtered += filtered;
      }
    }
  }
  FinishBatch(batch, &responses);
}

void SearchService::FinishBatch(std::vector<PendingRequest>* batch,
                                std::vector<SearchResponse>* responses) {
  if (config_.tenant_max_in_flight > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (PendingRequest& pending : *batch) {
      ReleaseTenantLocked(pending.request.tenant);
    }
  }
  for (std::size_t i = 0; i < batch->size(); ++i) {
    PendingRequest& pending = (*batch)[i];
    SearchResponse& response = (*responses)[i];
    response.latency_ms = ElapsedMs(pending.submit_time);
    if (response.status == RequestStatus::kOk) {
      metrics_.RecordCompleted(
          response.latency_ms,
          pending.request.collect_profile ? &response.profile : nullptr,
          pending.request.priority);
    }
    if (pending.trace != nullptr) {
      FinishTrace(&pending, &response);
    }
    pending.promise.set_value(std::move(response));
  }
}

obs::Histogram* SearchService::StageHistogram(const char* span_name) {
  if (span_name == kSpanAdmission) return stage_admission_;
  if (span_name == kSpanScatter) return stage_scatter_;
  if (span_name == kSpanShardScan) return stage_shard_scan_;
  if (span_name == kSpanBufferScan) return stage_buffer_scan_;
  if (span_name == kSpanMerge) return stage_merge_;
  return nullptr;
}

const SearchService::StagePerfHistograms* SearchService::StagePerf(
    const char* span_name) const {
  if (span_name == kSpanShardScan) return &perf_shard_scan_;
  if (span_name == kSpanBufferScan) return &perf_buffer_scan_;
  return nullptr;
}

void SearchService::FinishTrace(PendingRequest* pending,
                                SearchResponse* response) {
  obs::QueryTrace& trace = *pending->trace;
  const index::QueryProfile& profile = response->profile;
  trace.AddCounter("nodes_visited", profile.nodes_visited);
  trace.AddCounter("nodes_pruned", profile.nodes_pruned);
  trace.AddCounter("leaves_collected", profile.leaves_collected);
  trace.AddCounter("leaves_abandoned", profile.leaves_abandoned);
  trace.AddCounter("series_lbd_checked", profile.series_lbd_checked);
  trace.AddCounter("series_lbd_pruned", profile.series_lbd_pruned);
  trace.AddCounter("series_ed_computed", profile.series_ed_computed);
  trace.AddCounter("candidates_filtered", profile.candidates_filtered);
  trace.AddCounter("rowq_checked", profile.rowq_checked);
  trace.AddCounter("rowq_pruned", profile.rowq_pruned);
  const bool expired =
      response->status == RequestStatus::kDeadlineExpired;
  obs::TraceRecord record =
      trace.Finish(pending->query_id, response->latency_ms, expired);
  traces_total_->Add();
  for (const obs::TraceSpan& span : record.spans) {
    obs::Histogram* histogram = StageHistogram(span.name);
    if (histogram != nullptr) {
      histogram->Record(std::max(0.0, span.end_ms - span.start_ms));
    }
    if (span.perf.Any()) {
      const StagePerfHistograms* perf = StagePerf(span.name);
      if (perf != nullptr) {
        // Fallback samples (hardware == false) carry a meaningful tsc
        // cycle delta but zeros elsewhere — the zeros stay out of the
        // instruction/cache histograms so they never skew percentiles.
        perf->cycles->Record(static_cast<double>(span.perf.cycles));
        if (span.perf.hardware) {
          perf->instructions->Record(
              static_cast<double>(span.perf.instructions));
          perf->llc_misses->Record(static_cast<double>(span.perf.llc_misses));
          perf->stalled_cycles->Record(
              static_cast<double>(span.perf.stalled_cycles));
        }
      }
    }
  }
  if (config_.trace.slow_query_ms > 0.0 &&
      (expired || response->latency_ms >= config_.trace.slow_query_ms)) {
    slow_queries_total_->Add();
    slow_log_.Push(record);  // copy — the caller may want the record too
  }
  if (pending->request.collect_trace) {
    response->trace =
        std::make_shared<const obs::TraceRecord>(std::move(record));
  }
}

}  // namespace service
}  // namespace sofa
