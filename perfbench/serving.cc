// serve-hot and ingest-mixed: the TCP serving stack over a small hot
// collection — the PNW-like low-frequency set, 20k x 256 (~20 MB, cache
// resident), in 2 contiguous shards with the rowq tier on, served by an
// in-process net::SofaServer on loopback with the `sofa_cli serve`
// defaults (a network server always runs through the ingest path, so a
// Compactor is attached even when nothing is written).
//
// serve-hot: closed-loop net::SofaClient connections, one per hardware
// thread. Per-query engine work is about a millisecond of CPU, so the
// wire, the dispatcher, scatter/merge and the summary-LBD kernel dominate.
//
// ingest-mixed: the same server made durable (WAL + GenerationStore in a
// temporary data dir). One writer sends INSERTs of held-out rows and
// DELETEs of acknowledged live ids at a fixed rate; readers send SEARCH at
// a fixed rate below serve-hot's capacity. Both are open loop: every
// operation is timed from when it was due. The run ends with a flush, a
// graceful stop and a restart from the data dir alone.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "datagen/datasets.h"
#include "index/query_engine.h"
#include "ingest/compactor.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/registry.h"
#include "persist/generation_store.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "sfa/mcb.h"
#include "shard/sharded_index.h"
#include "util/rng.h"
#include "workloads.h"

namespace sofa {
namespace perfbench {
namespace {

constexpr const char* kDataset = "PNW";
constexpr std::size_t kBaseRows = 20000;
// Enough distinct queries that the mix of easy and hard ones, and so the
// medians, barely move from seed to seed.
constexpr std::size_t kQueries = 1000;
constexpr std::size_t kShards = 2;
constexpr std::size_t kLeafCapacity = 2000;

// `sofa_cli serve` defaults.
constexpr std::size_t kMaxBatch = 64;
constexpr std::size_t kMaxPending = 4096;
constexpr std::size_t kMaxConnections = 64;
constexpr std::size_t kWalSyncEvery = 64;
// ingest-mixed's fixed compaction threshold (serve-hot never writes, so it
// has no effect there). Low enough that a 20 s run holds ~40 compactions
// and persists, two per measured window: the read tail they cause is then
// measured over many events, and no window goes without one.
constexpr std::size_t kCompactThreshold = 64;

// ingest-mixed load: reads well below serve-hot's closed-loop capacity,
// writes fast enough that the last shard compacts (and persists) within
// a run. Held-out rows cover the inserts of the longest run.
constexpr double kReadRate = 400.0;    // SEARCH / s
constexpr double kWriteRate = 150.0;   // INSERT + DELETE / s
constexpr double kDeleteShare = 0.1;
constexpr std::size_t kReaders = 8;    // reader connections
constexpr std::size_t kHeldOutRows =
    static_cast<std::size_t>(kWriteRate * static_cast<double>(kMaxSeconds)) +
    1000;
// Operations not sent by this long after the window closes are dropped
// (offered, never delivered).
constexpr double kDrainGraceS = 1.0;
// A generator whose p99 send lateness exceeds this fell behind.
constexpr double kBehindMs = 10.0;

struct ServeData {
  explicit ServeData(std::size_t length)
      : base(length), held_out(length), queries(length) {}
  Dataset base;
  Dataset held_out;
  Dataset queries;
};

ServeData MakeServeData(std::uint64_t seed, ThreadPool* pool) {
  datagen::GenerateOptions gen;
  gen.count = kBaseRows + kHeldOutRows;
  gen.num_queries = kQueries;
  gen.seed = seed;
  LabeledDataset ds = datagen::MakeDatasetByName(kDataset, gen, pool);
  ServeData data(ds.data.length());
  for (std::size_t i = 0; i < ds.data.size(); ++i) {
    (i < kBaseRows ? data.base : data.held_out).Append(ds.data.row(i));
  }
  data.queries = std::move(ds.queries);
  return data;
}

std::vector<std::pair<std::string, std::string>> ServeParams(
    const ServeData& data, ThreadPool* pool) {
  return {{"dataset", kDataset},
          {"rows", std::to_string(data.base.size())},
          {"length", std::to_string(data.base.length())},
          {"queries", std::to_string(data.queries.size())},
          {"k", std::to_string(kTopK)},
          {"epsilon", "0"},
          {"shards", std::to_string(kShards)},
          {"assignment", "contiguous"},
          {"rowq", "on"},
          {"leaf_capacity", std::to_string(kLeafCapacity)},
          {"max_batch", std::to_string(kMaxBatch)},
          {"max_pending", std::to_string(kMaxPending)},
          {"pool_threads", std::to_string(pool->size())}};
}

std::vector<Oracle::Answer> SolveBase(const ServeData& data,
                                      ThreadPool* pool) {
  std::vector<const float*> rows(data.base.size());
  std::vector<std::uint32_t> ids(data.base.size());
  for (std::size_t i = 0; i < data.base.size(); ++i) {
    rows[i] = data.base.row(i);
    ids[i] = static_cast<std::uint32_t>(i);
  }
  return Oracle(std::move(rows), std::move(ids), data.base.length())
      .Solve(data.queries, kTopK, pool);
}

service::SearchRequest MakeRequest(const Dataset& queries, std::size_t q,
                                   bool trace) {
  service::SearchRequest request;
  request.query.assign(queries.row(q), queries.row(q) + queries.length());
  request.k = kTopK;
  request.collect_trace = trace;
  return request;
}

// The serving stack, declared in construction order so members are
// destroyed server → compactor → service → store → index → registry.
struct ServeStack {
  std::unique_ptr<obs::Registry> registry = std::make_unique<obs::Registry>();
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::shared_ptr<const shard::ShardedIndex> sharded;
  std::unique_ptr<persist::GenerationStore> store;
  std::unique_ptr<service::SearchService> service;
  std::unique_ptr<ingest::Compactor> compactor;
  std::unique_ptr<net::SofaServer> server;

  double train_s = 0.0;
  index::BuildStats build;  // summed over the shard trees
};

shard::ShardingConfig MakeShardingConfig() {
  shard::ShardingConfig config;
  config.num_shards = kShards;
  config.assignment = shard::ShardAssignment::kContiguous;
  config.index.leaf_capacity = kLeafCapacity;
  config.enable_rowq = true;
  return config;
}

service::ServiceConfig MakeServiceConfig(obs::Registry* registry) {
  service::ServiceConfig config;
  config.max_batch = kMaxBatch;
  config.max_pending = kMaxPending;
  config.registry = registry;
  return config;
}

ingest::IngestConfig MakeIngestConfig(obs::Registry* registry,
                                      const std::string& data_dir,
                                      persist::GenerationStore* store) {
  ingest::IngestConfig config;
  config.compact_threshold = kCompactThreshold;
  config.wal.sync_every = kWalSyncEvery;
  config.registry = registry;
  if (!data_dir.empty()) {
    config.wal_dir = data_dir + "/wal";
    config.store = store;
  }
  return config;
}

Status StartServer(ServeStack* stack) {
  net::ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.max_connections = kMaxConnections;
  stack->server = std::make_unique<net::SofaServer>(
      stack->service.get(), stack->compactor.get(), config);
  return stack->server->Start();
}

// Builds the stack from generated rows: SFA training, sharded build with
// rowq sidecars, service, compactor, and — with a data dir — WAL and
// generation store bootstrap (the base generation persisted), then listen.
StatusOr<std::unique_ptr<ServeStack>> StartStack(const Dataset& base,
                                                 const std::string& data_dir,
                                                 ThreadPool* pool) {
  auto stack = std::make_unique<ServeStack>();
  const Clock::time_point start = Clock::now();
  stack->scheme = sfa::TrainSfa(base, sfa::SfaConfig{}, pool);
  stack->train_s = SecondsSince(start);
  stack->sharded = shard::ShardedIndex::Build(base, MakeShardingConfig(),
                                              stack->scheme, pool);
  for (std::size_t s = 0; s < stack->sharded->num_shards(); ++s) {
    const index::BuildStats& stats =
        stack->sharded->shard(s).tree->build_stats();
    stack->build.symbolize_seconds += stats.symbolize_seconds;
    stack->build.partition_seconds += stats.partition_seconds;
    stack->build.tree_seconds += stats.tree_seconds;
    stack->build.total_seconds += stats.total_seconds;
  }
  if (!data_dir.empty()) {
    stack->store = persist::GenerationStore::Open(data_dir + "/generations",
                                                  stack->registry.get());
    if (stack->store == nullptr) {
      return IoError("cannot open the generation store in " + data_dir);
    }
  }
  stack->service = std::make_unique<service::SearchService>(
      service::WrapShardedIndex(stack->sharded), pool,
      MakeServiceConfig(stack->registry.get()));
  stack->compactor = std::make_unique<ingest::Compactor>(
      stack->service.get(), stack->sharded,
      MakeIngestConfig(stack->registry.get(), data_dir, stack->store.get()));
  if (!data_dir.empty()) {
    if (!stack->compactor->Recover().ok) {
      return Status(StatusCode::kInternal, "fresh WAL did not recover");
    }
    const Status persisted = stack->compactor->PersistNow();
    if (!persisted.ok()) {
      return persisted;
    }
  }
  const Status started = StartServer(stack.get());
  if (!started.ok()) {
    return started;
  }
  return stack;
}

// Restarts from the data dir alone, as `sofa_cli serve --data-dir` does:
// newest intact generation + WAL tail replay, then listen.
StatusOr<std::unique_ptr<ServeStack>> RestartStack(
    const std::string& data_dir, ThreadPool* pool) {
  auto stack = std::make_unique<ServeStack>();
  stack->store = persist::GenerationStore::Open(data_dir + "/generations",
                                                stack->registry.get());
  if (stack->store == nullptr) {
    return IoError("cannot reopen the generation store in " + data_dir);
  }
  std::optional<persist::LoadedGeneration> restored =
      stack->store->LoadLatest(pool, /*enable_rowq=*/true);
  if (!restored.has_value()) {
    return IoError("no generation loads from " + data_dir);
  }
  stack->sharded = restored->sharded;
  stack->service = std::make_unique<service::SearchService>(
      service::WrapShardedIndex(stack->sharded), pool,
      MakeServiceConfig(stack->registry.get()));
  const ingest::RecoveredBase recovered = ingest::MakeRecoveredBase(*restored);
  stack->compactor = std::make_unique<ingest::Compactor>(
      stack->service.get(), stack->sharded,
      MakeIngestConfig(stack->registry.get(), data_dir, stack->store.get()),
      &recovered);
  const ingest::RecoverStats replayed = stack->compactor->Recover();
  if (!replayed.ok) {
    return Status(StatusCode::kInternal,
                  replayed.sequence_gap ? "WAL sequence gap on restart"
                                        : "WAL does not fit the generation");
  }
  const Status started = StartServer(stack.get());
  if (!started.ok()) {
    return started;
  }
  return stack;
}

// One client connection's view of the system: over TCP, or straight into
// the in-process service and compactor (the ladder's ingest rung).
class Conn {
 public:
  virtual ~Conn() = default;
  /// Transport and request outcome together: ok only for a kOk answer.
  virtual Status Search(const service::SearchRequest& request,
                        service::SearchResponse* out,
                        net::WireTrace* trace) = 0;
  virtual StatusOr<std::uint32_t> Insert(const float* row,
                                         std::size_t length) = 0;
  virtual Status Delete(std::uint32_t id) = 0;
};

class TcpConn : public Conn {
 public:
  Status Connect(std::uint16_t port) {
    return client_.Connect("127.0.0.1", port);
  }
  Status Search(const service::SearchRequest& request,
                service::SearchResponse* out, net::WireTrace* trace) override {
    std::string message;
    const Status sent = client_.Search(request, out, nullptr, &message, trace);
    if (!sent.ok()) {
      return sent;
    }
    return out->status == StatusCode::kOk ? OkStatus()
                                          : Status(out->status, message);
  }
  StatusOr<std::uint32_t> Insert(const float* row,
                                 std::size_t length) override {
    return client_.Insert(std::vector<float>(row, row + length));
  }
  Status Delete(std::uint32_t id) override { return client_.Delete(id); }

 private:
  net::SofaClient client_;
};

class LocalConn : public Conn {
 public:
  explicit LocalConn(ServeStack* stack) : stack_(stack) {}
  Status Search(const service::SearchRequest& request,
                service::SearchResponse* out, net::WireTrace*) override {
    *out = stack_->service->Search(request);
    return out->status == StatusCode::kOk ? OkStatus() : Status(out->status);
  }
  StatusOr<std::uint32_t> Insert(const float* row,
                                 std::size_t length) override {
    return stack_->compactor->Insert(row, length);
  }
  Status Delete(std::uint32_t id) override {
    return stack_->compactor->Delete(id);
  }

 private:
  ServeStack* stack_;
};

using ConnFactory = std::function<StatusOr<std::unique_ptr<Conn>>()>;

ConnFactory TcpFactory(std::uint16_t port) {
  return [port]() -> StatusOr<std::unique_ptr<Conn>> {
    auto conn = std::make_unique<TcpConn>();
    const Status connected = conn->Connect(port);
    if (!connected.ok()) {
      return connected;
    }
    return std::unique_ptr<Conn>(std::move(conn));
  };
}

// Records a traced round trip: the benchmark's own request span, with the
// client-joined wire timeline (client + rebased server spans) under it.
void RecordWireTrace(const net::WireTrace& trace, Clock::time_point start,
                     Clock::time_point end, std::uint64_t request,
                     SpanLog* spans) {
  const std::int64_t root = spans->Add("request", start, end, request);
  const double origin = spans->OffsetMs(start);
  std::vector<std::int64_t> index(trace.joined.spans.size(), root);
  for (std::size_t i = 0; i < trace.joined.spans.size(); ++i) {
    const obs::TraceSpan& span = trace.joined.spans[i];
    const std::int64_t parent =
        span.parent >= 0 && static_cast<std::size_t>(span.parent) < i
            ? index[span.parent]
            : root;
    index[i] = spans->AddMs(span.name, origin + span.start_ms,
                            origin + span.end_ms, request, parent);
  }
}

// First answered query of a freshly started (or restarted) server.
Status FirstQuery(std::uint16_t port, const Dataset& queries) {
  TcpConn conn;
  const Status connected = conn.Connect(port);
  if (!connected.ok()) {
    return connected;
  }
  service::SearchResponse response;
  return conn.Search(MakeRequest(queries, 0, false), &response, nullptr);
}

// One round of serve-hot's load: `clients` fresh connections, each sending
// its next SEARCH as soon as the previous answer arrives, until `end`.
// Every answer is checked against the oracle; latencies land in the window
// of `latency_ms` that holds `window_at_s`.
void RunClosedRound(std::uint16_t port, std::size_t clients,
                    const Dataset& queries,
                    const std::vector<Oracle::Answer>& answers,
                    Clock::time_point end, bool trace, double window_at_s,
                    std::atomic<std::uint64_t>* next_request,
                    WindowedSamples* latency_ms, RunContext* ctx) {
  std::mutex merge_mutex;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<double> latency;
      Outcome outcome;
      TcpConn conn;
      const Status connected = conn.Connect(port);
      if (!connected.ok()) {
        ++outcome.attempted;
        outcome.Fail("connect: " + connected.ToString());
      }
      while (connected.ok() && Clock::now() < end) {
        const std::uint64_t request = next_request->fetch_add(1);
        const std::size_t q = request % queries.size();
        service::SearchResponse response;
        net::WireTrace wire;
        const Clock::time_point t0 = Clock::now();
        const Status status = conn.Search(MakeRequest(queries, q, trace),
                                          &response, trace ? &wire : nullptr);
        const Clock::time_point t1 = Clock::now();
        ++outcome.attempted;
        std::string why;
        if (!status.ok()) {
          outcome.Fail("search: " + status.ToString());
          break;  // a transport failure poisons the connection
        }
        if (!MatchesOracle(response.neighbors, answers[q], &why)) {
          outcome.Fail("query " + std::to_string(q) + ": " + why);
          continue;
        }
        latency.push_back(MsBetween(t0, t1));
        if (trace) {
          RecordWireTrace(wire, t0, t1, request, &ctx->spans);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      for (const double ms : latency) {
        latency_ms->Add(window_at_s, ms);
      }
      ctx->outcome.Merge(outcome);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// serve-hot's measurement is split into kWindows rounds, each on fresh
// connections (and so fresh server connection threads), one window per
// round; round r ends when window r of the phase does.
WindowedSamples RunClosedLoop(std::uint16_t port, std::size_t clients,
                              const Dataset& queries,
                              const std::vector<Oracle::Answer>& answers,
                              double seconds, bool trace, RunContext* ctx) {
  WindowedSamples latency_ms(seconds, kWindows);
  const double round_s = seconds / static_cast<double>(kWindows);
  std::atomic<std::uint64_t> next_request{0};
  const Clock::time_point start = Clock::now();
  StealSampler steal(start, seconds, kWindows);
  for (std::size_t r = 0; r < kWindows; ++r) {
    const double round_end_s = static_cast<double>(r + 1) * round_s;
    RunClosedRound(port, clients, queries, answers,
                   start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(round_end_s)),
                   trace, round_end_s - 0.5 * round_s, &next_request,
                   &latency_ms, ctx);
  }
  latency_ms.SetWindowSteal(steal.Stop());
  return latency_ms;
}

// The writes one open-loop run acknowledged, in order.
struct WriteLog {
  std::vector<std::uint32_t> inserted_ids;
  std::vector<std::size_t> inserted_rows;  // held-out row of each insert
  std::vector<std::uint32_t> deleted_ids;
};

struct OpenLoopResult {
  explicit OpenLoopResult(double seconds) : read_ms(seconds, kWindows) {}
  WindowedSamples read_ms;  // due → answer, windowed by due time
  Samples write_ms;        // due → acknowledgement
  Samples insert_call_ms;  // send → acknowledgement
  Samples delete_call_ms;
  Samples lateness_ms;     // due → send, reads and writes
  std::uint64_t reads_offered = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t writes_offered = 0;
  std::uint64_t writes_ok = 0;
  std::size_t pending_max = 0;
  WriteLog writes;
  double window_s = 0.0;  // first due time → last operation done
};

Clock::time_point DueAt(Clock::time_point start, std::uint64_t i,
                        double rate) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) /
                                                   rate));
}

// ingest-mixed's load: one writer and kReaders reader connections from
// `factory`, each sending on a fixed schedule regardless of how earlier
// operations fare. A reader picks up the next due SEARCH whenever it is
// free, so a slow system builds a backlog that shows as lateness. With
// `pending_source`, the writer samples the compactor's pending rows after
// every write.
OpenLoopResult RunOpenLoop(const ConnFactory& factory, const ServeData& data,
                           double seconds, bool trace, std::uint64_t seed,
                           ingest::Compactor* pending_source,
                           RunContext* ctx) {
  OpenLoopResult result(seconds);
  result.reads_offered =
      static_cast<std::uint64_t>(std::ceil(seconds * kReadRate));
  result.writes_offered =
      static_cast<std::uint64_t>(std::ceil(seconds * kWriteRate));
  std::mutex merge_mutex;
  std::atomic<std::uint64_t> next_read{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point cutoff =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds + kDrainGraceS));
  StealSampler steal(start, seconds, kWindows);

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      WindowedSamples read_ms(seconds, kWindows);
      Samples lateness_ms;
      Outcome outcome;
      std::uint64_t ok = 0;
      StatusOr<std::unique_ptr<Conn>> conn = factory();
      if (!conn.ok()) {
        ++outcome.attempted;
        outcome.Fail("reader connect: " + conn.status().ToString());
      }
      while (conn.ok()) {
        const std::uint64_t i = next_read.fetch_add(1);
        if (i >= result.reads_offered) {
          break;
        }
        const Clock::time_point due = DueAt(start, i, kReadRate);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        if (sent > cutoff) {
          break;  // dropped: offered, never delivered
        }
        lateness_ms.Add(MsBetween(due, sent));
        const std::size_t q = i % data.queries.size();
        service::SearchResponse response;
        net::WireTrace wire;
        const Status status =
            conn.value()->Search(MakeRequest(data.queries, q, trace),
                                 &response, trace ? &wire : nullptr);
        const Clock::time_point done = Clock::now();
        ++outcome.attempted;
        if (!status.ok()) {
          outcome.Fail("read: " + status.ToString());
          break;
        }
        if (response.neighbors.size() != kTopK) {
          outcome.Fail("read answered " +
                       std::to_string(response.neighbors.size()) +
                       " neighbors");
          continue;
        }
        ++ok;
        read_ms.Add(MsBetween(start, due) / 1e3, MsBetween(due, done));
        if (trace && wire.has_server_trace) {
          RecordWireTrace(wire, sent, done, i, &ctx->spans);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      result.read_ms.Append(read_ms);
      result.lateness_ms.Append(lateness_ms);
      result.reads_ok += ok;
      ctx->outcome.Merge(outcome);
    });
  }

  threads.emplace_back([&] {
    Samples write_ms, insert_ms, delete_ms, lateness_ms;
    Outcome outcome;
    std::uint64_t ok = 0;
    std::size_t pending_max = 0;
    WriteLog log;
    // Live ids a DELETE may target: the base rows plus every
    // acknowledged insert, minus acknowledged deletes.
    std::vector<std::uint32_t> live(data.base.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i] = static_cast<std::uint32_t>(i);
    }
    Rng rng(seed ^ 0x77a17e5ULL);
    std::size_t next_row = 0;
    StatusOr<std::unique_ptr<Conn>> conn = factory();
    if (!conn.ok()) {
      ++outcome.attempted;
      outcome.Fail("writer connect: " + conn.status().ToString());
    }
    for (std::uint64_t j = 0; conn.ok() && j < result.writes_offered; ++j) {
      const Clock::time_point due = DueAt(start, j, kWriteRate);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      if (sent > cutoff) {
        break;
      }
      lateness_ms.Add(MsBetween(due, sent));
      const bool is_delete = rng.Uniform() < kDeleteShare;
      ++outcome.attempted;
      if (is_delete) {
        const std::size_t pick = rng.Below(live.size());
        const std::uint32_t id = live[pick];
        const Status status = conn.value()->Delete(id);
        const Clock::time_point done = Clock::now();
        if (!status.ok()) {
          outcome.Fail("delete " + std::to_string(id) + ": " +
                       status.ToString());
          continue;
        }
        live[pick] = live.back();
        live.pop_back();
        log.deleted_ids.push_back(id);
        write_ms.Add(MsBetween(due, done));
        delete_ms.Add(MsBetween(sent, done));
      } else {
        const StatusOr<std::uint32_t> id = conn.value()->Insert(
            data.held_out.row(next_row), data.held_out.length());
        const Clock::time_point done = Clock::now();
        if (!id.ok()) {
          outcome.Fail("insert: " + id.status().ToString());
          continue;
        }
        live.push_back(id.value());
        log.inserted_ids.push_back(id.value());
        log.inserted_rows.push_back(next_row++);
        write_ms.Add(MsBetween(due, done));
        insert_ms.Add(MsBetween(sent, done));
      }
      ++ok;
      if (pending_source != nullptr) {
        pending_max =
            std::max(pending_max, pending_source->Metrics().pending);
      }
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    result.write_ms = std::move(write_ms);
    result.insert_call_ms = std::move(insert_ms);
    result.delete_call_ms = std::move(delete_ms);
    result.lateness_ms.Append(lateness_ms);
    result.writes_ok = ok;
    result.pending_max = pending_max;
    result.writes = std::move(log);
    ctx->outcome.Merge(outcome);
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  result.window_s = SecondsSince(start);
  result.read_ms.SetWindowSteal(steal.Stop());
  return result;
}

// Oracle over base ∪ acknowledged inserts \ acknowledged deletes.
std::vector<Oracle::Answer> SolveLive(const ServeData& data,
                                      const WriteLog& writes,
                                      ThreadPool* pool) {
  const std::unordered_set<std::uint32_t> deleted(writes.deleted_ids.begin(),
                                                  writes.deleted_ids.end());
  std::vector<const float*> rows;
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < data.base.size(); ++i) {
    if (deleted.count(static_cast<std::uint32_t>(i)) == 0) {
      rows.push_back(data.base.row(i));
      ids.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t j = 0; j < writes.inserted_ids.size(); ++j) {
    if (deleted.count(writes.inserted_ids[j]) == 0) {
      rows.push_back(data.held_out.row(writes.inserted_rows[j]));
      ids.push_back(writes.inserted_ids[j]);
    }
  }
  return Oracle(std::move(rows), std::move(ids), data.base.length())
      .Solve(data.queries, kTopK, pool);
}

// Every held-out query over TCP, compared with the live-set oracle.
void VerifyOverWire(std::uint16_t port, const ServeData& data,
                    const std::vector<Oracle::Answer>& answers,
                    const std::string& phase, RunContext* ctx) {
  TcpConn conn;
  const Status connected = conn.Connect(port);
  if (!connected.ok()) {
    ++ctx->outcome.attempted;
    ctx->outcome.Fail(phase + " connect: " + connected.ToString());
    return;
  }
  for (std::size_t q = 0; q < data.queries.size(); ++q) {
    service::SearchResponse response;
    const Status status =
        conn.Search(MakeRequest(data.queries, q, false), &response, nullptr);
    ++ctx->outcome.attempted;
    std::string why;
    if (!status.ok()) {
      ctx->outcome.Fail(phase + " search: " + status.ToString());
      return;
    }
    if (!MatchesOracle(response.neighbors, answers[q], &why)) {
      ctx->outcome.Fail(phase + " query " + std::to_string(q) + ": " + why);
    }
  }
}

// After the restart: every acknowledged insert is its own nearest
// neighbor, no acknowledged delete answers for its own row, and the id
// space covers exactly base + acknowledged inserts.
void VerifyWritesVisible(ServeStack* stack, const ServeData& data,
                         const WriteLog& writes, RunContext* ctx) {
  const std::unordered_set<std::uint32_t> deleted(writes.deleted_ids.begin(),
                                                  writes.deleted_ids.end());
  const auto self_query = [&](const float* row) {
    service::SearchRequest request;
    request.query.assign(row, row + data.base.length());
    request.k = 1;
    return stack->service->Search(std::move(request));
  };
  const auto row_of = [&](std::uint32_t id) -> const float* {
    if (id < data.base.size()) {
      return data.base.row(id);
    }
    for (std::size_t j = 0; j < writes.inserted_ids.size(); ++j) {
      if (writes.inserted_ids[j] == id) {
        return data.held_out.row(writes.inserted_rows[j]);
      }
    }
    return nullptr;
  };
  for (std::size_t j = 0; j < writes.inserted_ids.size(); ++j) {
    const std::uint32_t id = writes.inserted_ids[j];
    if (deleted.count(id) != 0) {
      continue;
    }
    const service::SearchResponse response =
        self_query(data.held_out.row(writes.inserted_rows[j]));
    ++ctx->outcome.attempted;
    if (response.status != StatusCode::kOk || response.neighbors.empty() ||
        response.neighbors[0].distance != 0.0f) {
      ctx->outcome.Fail("acknowledged insert " + std::to_string(id) +
                        " is not visible after the restart");
    }
  }
  for (const std::uint32_t id : writes.deleted_ids) {
    const float* row = row_of(id);
    const service::SearchResponse response = self_query(row);
    ++ctx->outcome.attempted;
    if (row == nullptr || response.status != StatusCode::kOk ||
        (!response.neighbors.empty() && response.neighbors[0].id == id)) {
      ctx->outcome.Fail("acknowledged delete " + std::to_string(id) +
                        " answers after the restart");
    }
  }
  const std::size_t want = data.base.size() + writes.inserted_ids.size();
  ++ctx->outcome.attempted;
  if (stack->compactor->Metrics().total_rows != want) {
    ctx->outcome.Fail("restart allocated " +
                      std::to_string(stack->compactor->Metrics().total_rows) +
                      " ids, want " + std::to_string(want));
  }
}

struct IngestRun {
  explicit IngestRun(OpenLoopResult open_loop) : loop(std::move(open_loop)) {}
  OpenLoopResult loop;
  double recover_s = 0.0;
  service::MetricsSnapshot service_metrics;
};

// One durable run on a started stack: the open-loop window, a flush, the
// live-set check, a graceful stop, the restart (timed) and both checks
// again. The data dir is removed afterwards.
IngestRun RunIngestOnce(std::unique_ptr<ServeStack> stack,
                        const std::string& data_dir, const ServeData& data,
                        bool trace, ThreadPool* pool, RunContext* ctx) {
  IngestRun run(RunOpenLoop(TcpFactory(stack->server->port()), data,
                            ctx->options.seconds, trace, ctx->options.seed,
                            nullptr, ctx));
  run.service_metrics = stack->service->Metrics();
  stack->compactor->Flush();
  const std::vector<Oracle::Answer> answers =
      SolveLive(data, run.loop.writes, pool);
  VerifyOverWire(stack->server->port(), data, answers, "after flush", ctx);
  stack.reset();  // graceful stop: drain, close the WAL, release the store

  const Clock::time_point restart = Clock::now();
  StatusOr<std::unique_ptr<ServeStack>> restarted =
      RestartStack(data_dir, pool);
  ++ctx->outcome.attempted;
  if (!restarted.ok()) {
    ctx->outcome.Fail("restart: " + restarted.status().ToString());
    RemoveTree(data_dir);
    return run;
  }
  ServeStack* recovered = restarted.value().get();
  const Status first = FirstQuery(recovered->server->port(), data.queries);
  run.recover_s = SecondsSince(restart);
  if (!first.ok()) {
    ctx->outcome.Fail("first query after restart: " + first.ToString());
  }
  VerifyOverWire(recovered->server->port(), data, answers, "after restart",
                 ctx);
  VerifyWritesVisible(recovered, data, run.loop.writes, ctx);
  restarted.value().reset();  // stop before removing its files
  RemoveTree(data_dir);
  return run;
}

// Median setup over kSetupRepetitions fresh stacks; returns the last one
// (the measured system) and records its build breakdown.
struct SetupResult {
  std::unique_ptr<ServeStack> stack;
  Samples setup_s, train_s, build_s, symbolize_s, partition_s, tree_s;
};

SetupResult SetupRepeatedly(const ServeData& data,
                            const std::function<std::string(std::size_t)>&
                                data_dir_of,
                            ThreadPool* pool, RunContext* ctx) {
  SetupResult result;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    result.stack.reset();
    if (rep > 0) {
      RemoveTree(data_dir_of(rep - 1));
    }
    const Clock::time_point start = Clock::now();
    StatusOr<std::unique_ptr<ServeStack>> stack =
        StartStack(data.base, data_dir_of(rep), pool);
    ++ctx->outcome.attempted;
    if (!stack.ok()) {
      ctx->outcome.Fail("setup: " + stack.status().ToString());
      return result;
    }
    const Status first =
        FirstQuery(stack.value()->server->port(), data.queries);
    result.setup_s.Add(SecondsSince(start));
    if (!first.ok()) {
      ctx->outcome.Fail("first query: " + first.ToString());
    }
    result.stack = std::move(stack.value());
    result.train_s.Add(result.stack->train_s);
    result.build_s.Add(result.stack->build.total_seconds);
    result.symbolize_s.Add(result.stack->build.symbolize_seconds);
    result.partition_s.Add(result.stack->build.partition_seconds);
    result.tree_s.Add(result.stack->build.tree_seconds);
  }
  return result;
}

void AddBuildMetrics(const SetupResult& setup, Report* report) {
  report->Add("sfa.train_s", setup.train_s.Median(), "s",
              setup.train_s.count());
  report->Add("index.build_s", setup.build_s.Median(), "s",
              setup.build_s.count());
  report->Add("index.symbolize_s", setup.symbolize_s.Median(), "s",
              setup.symbolize_s.count());
  report->Add("index.partition_s", setup.partition_s.Median(), "s",
              setup.partition_s.count());
  report->Add("index.tree_s", setup.tree_s.Median(), "s",
              setup.tree_s.count());
}

void AddServiceMetrics(const service::MetricsSnapshot& metrics,
                       Report* report) {
  const double rounds = static_cast<double>(metrics.latency_queries +
                                            metrics.throughput_batches);
  const double completed = static_cast<double>(metrics.completed);
  report->Add("service.batch_mean", rounds > 0 ? completed / rounds : 0.0,
              "count", metrics.completed);
  report->Add("service.latency_mode_share",
              completed > 0 ? static_cast<double>(metrics.latency_queries) /
                                  completed
                            : 0.0,
              "ratio", metrics.completed);
  report->Add("service.rejected",
              static_cast<double>(metrics.rejected + metrics.quota_rejected),
              "count");
}

// The engine's work counters over every held-out query, on one thread per
// shard tree, on a copy of the sharded index trained and built on one
// thread: a parallel build scatters series into leaves in thread-timing
// order, which moves the counters from run to run, while a serial build
// makes them a function of the seed alone. Every merged answer is checked.
index::QueryProfile CountWork(const ServeData& data,
                              const std::vector<Oracle::Answer>& answers,
                              RunContext* ctx) {
  ThreadPool serial_pool(1);
  shard::ShardingConfig config = MakeShardingConfig();
  config.index.num_threads = 1;
  const std::shared_ptr<const shard::ShardedIndex> serial =
      shard::ShardedIndex::Build(
          data.base, config,
          sfa::TrainSfa(data.base, sfa::SfaConfig{}, &serial_pool),
          &serial_pool);
  index::QueryProfile total;
  for (std::size_t q = 0; q < data.queries.size(); ++q) {
    std::vector<std::vector<Neighbor>> per_shard(serial->num_shards());
    for (std::size_t s = 0; s < serial->num_shards(); ++s) {
      index::QueryProfile profile;
      per_shard[s] = index::QueryEngine(serial->shard(s).tree.get())
                         .Search(data.queries.row(q), kTopK, 0.0, &profile, 1);
      for (Neighbor& nb : per_shard[s]) {
        nb.id = (*serial->shard(s).global_ids)[nb.id];
      }
      total.Merge(profile);
    }
    ++ctx->outcome.attempted;
    std::string why;
    if (!MatchesOracle(shard::MergeNeighborLists(std::move(per_shard), kTopK),
                       answers[q], &why)) {
      ctx->outcome.Fail("serial-copy query " + std::to_string(q) + ": " + why);
    }
  }
  return total;
}

// The sequential ladder on a fresh read-only stack: one caller, the same
// queries, one rung per layer —
//   net      SofaClient::Search (round trip; overhead = RTT − the
//            server's own latency_ms)
//   service  SearchService::Search
//   shard    ShardedIndex::SearchKnn (+ the MergeNeighborLists gather)
//   engine   QueryEngine::Search per shard tree on one thread
// — so each layer's cost is the difference to the rung below it.
void RunServingLadder(const ServeData& data,
                      const std::vector<Oracle::Answer>& answers,
                      ThreadPool* pool, RunContext* ctx) {
  StatusOr<std::unique_ptr<ServeStack>> started =
      StartStack(data.base, "", pool);
  ++ctx->outcome.attempted;
  if (!started.ok()) {
    ctx->outcome.Fail("ladder setup: " + started.status().ToString());
    return;
  }
  ServeStack& stack = *started.value();
  TcpConn conn;
  const Status connected = conn.Connect(stack.server->port());
  if (!connected.ok()) {
    ctx->outcome.Fail("ladder connect: " + connected.ToString());
    return;
  }
  const shard::ShardedIndex& sharded = *stack.sharded;
  Samples net_overhead_ms, service_ms, shard_ms, merge_us, engine_ms,
      engine_1t_ms, seed_ms;
  double bytes = 0.0;
  const auto check = [&](const std::vector<Neighbor>& answer, std::size_t q,
                         const char* rung) {
    ++ctx->outcome.attempted;
    std::string why;
    if (!MatchesOracle(answer, answers[q], &why)) {
      ctx->outcome.Fail(std::string(rung) + " query " + std::to_string(q) +
                        ": " + why);
    }
  };
  for (std::size_t q = 0; q < data.queries.size(); ++q) {
    const service::SearchRequest search = MakeRequest(data.queries, q, false);

    service::SearchResponse over_wire;
    Clock::time_point t0 = Clock::now();
    const Status status = conn.Search(search, &over_wire, nullptr);
    Clock::time_point t1 = Clock::now();
    ctx->spans.Add("rung.net", t0, t1, q);
    if (!status.ok()) {
      ++ctx->outcome.attempted;
      ctx->outcome.Fail("ladder net: " + status.ToString());
      return;
    }
    check(over_wire.neighbors, q, "net rung");
    net_overhead_ms.Add(MsBetween(t0, t1) - over_wire.latency_ms);
    bytes += static_cast<double>(
        2 * net::kHeaderSize + net::EncodeSearchRequest(search).size() +
        net::EncodeSearchResponse(over_wire, OkStatus(), "").size());

    t0 = Clock::now();
    const service::SearchResponse in_process = stack.service->Search(search);
    t1 = Clock::now();
    ctx->spans.Add("rung.service", t0, t1, q);
    service_ms.Add(MsBetween(t0, t1));
    check(in_process.neighbors, q, "service rung");

    t0 = Clock::now();
    const std::vector<Neighbor> sharded_answer =
        sharded.SearchKnn(data.queries.row(q), kTopK);
    t1 = Clock::now();
    ctx->spans.Add("rung.shard", t0, t1, q);
    shard_ms.Add(MsBetween(t0, t1));
    check(sharded_answer, q, "shard rung");

    std::vector<std::vector<Neighbor>> per_shard;
    sharded.ScatterKnn(data.queries.row(q), kTopK, 0.0, &per_shard,
                       nullptr);
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      for (Neighbor& nb : per_shard[s]) {
        nb.id = (*sharded.shard(s).global_ids)[nb.id];
      }
    }
    t0 = Clock::now();
    const std::vector<Neighbor> merged =
        shard::MergeNeighborLists(std::move(per_shard), kTopK);
    t1 = Clock::now();
    merge_us.Add(MsBetween(t0, t1) * 1e3);
    check(merged, q, "merge");

    double slowest_shard = 0.0;
    double all_shards = 0.0;
    double seed_total = 0.0;
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
      const index::QueryEngine engine(sharded.shard(s).tree.get());
      t0 = Clock::now();
      (void)engine.Search(data.queries.row(q), kTopK, 0.0, nullptr, 1);
      t1 = Clock::now();
      ctx->spans.Add("rung.engine_1t", t0, t1, q);
      slowest_shard = std::max(slowest_shard, MsBetween(t0, t1));
      all_shards += MsBetween(t0, t1);
      t0 = Clock::now();
      (void)engine.SearchLeafOnly(data.queries.row(q), kTopK);
      t1 = Clock::now();
      ctx->spans.Add("rung.seed", t0, t1, q);
      seed_total += MsBetween(t0, t1);
    }
    engine_ms.Add(slowest_shard);
    engine_1t_ms.Add(all_shards);
    seed_ms.Add(seed_total);
  }
  Report& report = ctx->report;
  report.Add("net.overhead_ms_p50", net_overhead_ms.Median(), "ms",
             net_overhead_ms.count());
  report.Add("net.overhead_ms_p99", net_overhead_ms.Percentile(99.0), "ms",
             net_overhead_ms.count());
  report.Add("net.bytes_per_query",
             bytes / static_cast<double>(data.queries.size()), "bytes",
             data.queries.size());
  report.Add("service.search_ms_p50", service_ms.Median(), "ms",
             service_ms.count());
  report.Add("service.search_ms_p99", service_ms.Percentile(99.0), "ms",
             service_ms.count());
  report.Add("shard.search_ms_p50", shard_ms.Median(), "ms", shard_ms.count());
  report.Add("shard.search_ms_p99", shard_ms.Percentile(99.0), "ms",
             shard_ms.count());
  report.Add("shard.merge_us_p50", merge_us.Median(), "us", merge_us.count());
  // The shard layer runs each shard's engine on one worker in parallel:
  // the slowest shard is the engine's share of the critical path, the sum
  // is all engine work of the query on one thread.
  report.Add("index.search_ms_p50", engine_ms.Median(), "ms",
             engine_ms.count());
  report.Add("index.search_ms_p99", engine_ms.Percentile(99.0), "ms",
             engine_ms.count());
  report.Add("index.search_1t_ms_p50", engine_1t_ms.Median(), "ms",
             engine_1t_ms.count());
  report.Add("index.parallel_speedup",
             engine_1t_ms.Median() / engine_ms.Median(), "x",
             engine_ms.count());
  report.Add("index.seed_ms_p50", seed_ms.Median(), "ms", seed_ms.count());

  // Work counters: two 1-thread passes, each on its own serial copy.
  const index::QueryProfile work = CountWork(data, answers, ctx);
  CheckCountersRepeat(work, CountWork(data, answers, ctx), &ctx->outcome);
  AddWorkCounters(work, data.queries.size(), &report);

  std::vector<const index::TreeIndex*> trees;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    trees.push_back(sharded.shard(s).tree.get());
  }
  MeasureKernels(data.base, trees, data.queries, &report);
  MeasureFlatScan(data.base, data.queries, pool, ctx);
}

std::string IngestDir(const RunContext& ctx, const std::string& label) {
  return ctx.options.work_dir + "/ingest-" + std::to_string(::getpid()) +
         "-" + label;
}

}  // namespace

void RunServeHot(RunContext* ctx, ThreadPool* pool) {
  const ServeData data = MakeServeData(ctx->options.seed, pool);
  const std::size_t clients = pool->size();
  ctx->params = ServeParams(data, pool);
  ctx->params.emplace_back("clients", std::to_string(clients));
  ctx->params.emplace_back("loop", "closed");
  const std::vector<Oracle::Answer> answers = SolveBase(data, pool);

  SetupResult setup = SetupRepeatedly(
      data, [](std::size_t) { return std::string(); }, pool, ctx);
  if (setup.stack == nullptr) {
    return;
  }
  const std::uint16_t port = setup.stack->server->port();
  const WindowedSamples plain = RunClosedLoop(
      port, clients, data.queries, answers, ctx->options.seconds, false, ctx);
  Report& report = ctx->report;
  if (!ctx->options.trace) {
    AddEndToEnd(setup.setup_s, plain, plain.KeptRate(), ctx);
    return;
  }

  const service::MetricsSnapshot loaded = setup.stack->service->Metrics();
  const WindowedSamples traced = RunClosedLoop(
      port, clients, data.queries, answers, ctx->options.seconds, true, ctx);
  report.Add("trace_overhead_pct", TraceOverheadPct(traced, plain), "%",
             traced.Kept().count());
  setup.stack.reset();
  AddBuildMetrics(setup, &report);
  AddServiceMetrics(loaded, &report);
  RunServingLadder(data, answers, pool, ctx);
  report.AddAbsent(IngestPersistMetrics());
}

void RunIngestMixed(RunContext* ctx, ThreadPool* pool) {
  const ServeData data = MakeServeData(ctx->options.seed, pool);
  ctx->params = ServeParams(data, pool);
  ctx->params.emplace_back("loop", "open");
  ctx->params.emplace_back("read_rate", std::to_string(kReadRate));
  ctx->params.emplace_back("write_rate", std::to_string(kWriteRate));
  ctx->params.emplace_back("delete_share", std::to_string(kDeleteShare));
  ctx->params.emplace_back("readers", std::to_string(kReaders));
  ctx->params.emplace_back("compact_threshold",
                           std::to_string(kCompactThreshold));
  ctx->params.emplace_back("wal_sync_every", std::to_string(kWalSyncEvery));

  SetupResult setup = SetupRepeatedly(
      data,
      [ctx](std::size_t rep) {
        return IngestDir(*ctx, "setup" + std::to_string(rep));
      },
      pool, ctx);
  if (setup.stack == nullptr) {
    return;
  }
  const std::string measured_dir =
      IngestDir(*ctx, "setup" + std::to_string(kSetupRepetitions - 1));
  const IngestRun plain = RunIngestOnce(std::move(setup.stack), measured_dir,
                                        data, false, pool, ctx);
  const OpenLoopResult& loop = plain.loop;
  Report& report = ctx->report;
  const double lateness_p99 = loop.lateness_ms.Percentile(99.0);
  if (!ctx->options.trace) {
    const double offered =
        static_cast<double>(loop.reads_offered + loop.writes_offered);
    AddEndToEnd(setup.setup_s, loop.read_ms,
                static_cast<double>(loop.reads_ok) / loop.window_s, ctx);
    report.Add("delivered_ratio",
               static_cast<double>(loop.reads_ok + loop.writes_ok) / offered,
               "ratio", loop.reads_offered + loop.writes_offered);
    report.Add("write_ms_p50", loop.write_ms.Median(), "ms",
               loop.write_ms.count());
    report.Add("write_ms_p99", loop.write_ms.Percentile(99.0), "ms",
               loop.write_ms.count());
    report.Add("recover_s", plain.recover_s, "s");
    report.Add("generator_lateness_ms_p99", lateness_p99, "ms",
               loop.lateness_ms.count());
    report.Note("generator_behind", lateness_p99 > kBehindMs ? "yes" : "no");
    report.Note("offered",
                std::to_string(loop.reads_offered) + " reads, " +
                    std::to_string(loop.writes_offered) + " writes");
    report.Note("acknowledged",
                std::to_string(loop.writes.inserted_ids.size()) +
                    " inserts, " +
                    std::to_string(loop.writes.deleted_ids.size()) +
                    " deletes");
    return;
  }

  // Traced run: a second durable run with readers collecting traces (the
  // server's stage spans come back over the wire), then the in-process
  // ingest rung and the sequential ladder.
  const std::string traced_dir = IngestDir(*ctx, "traced");
  StatusOr<std::unique_ptr<ServeStack>> traced_stack =
      StartStack(data.base, traced_dir, pool);
  ++ctx->outcome.attempted;
  if (!traced_stack.ok()) {
    ctx->outcome.Fail("traced setup: " + traced_stack.status().ToString());
    return;
  }
  const IngestRun traced = RunIngestOnce(std::move(traced_stack.value()),
                                         traced_dir, data, true, pool, ctx);
  report.Add("trace_overhead_pct",
             TraceOverheadPct(traced.loop.read_ms, loop.read_ms), "%",
             traced.loop.read_ms.Kept().count());
  const Samples buffer_scan = ctx->spans.Durations("buffer_scan");
  report.Add("ingest.buffer_scan_ms_p50", buffer_scan.Median(), "ms",
             buffer_scan.count());

  // Ingest rung: the same writes and reads on the same schedule, straight
  // into the compactor and the service, each Compactor call timed.
  const std::string rung_dir = IngestDir(*ctx, "rung");
  StatusOr<std::unique_ptr<ServeStack>> rung_stack =
      StartStack(data.base, rung_dir, pool);
  ++ctx->outcome.attempted;
  if (!rung_stack.ok()) {
    ctx->outcome.Fail("ingest rung setup: " + rung_stack.status().ToString());
    return;
  }
  ServeStack* local = rung_stack.value().get();
  obs::Registry* registry = local->registry.get();
  const std::uint64_t fsyncs_before =
      registry->GetCounter("sofa_wal_fsync_total")->Value();
  const std::uint64_t persisted_before = local->compactor->Metrics().persisted;
  const OpenLoopResult rung = RunOpenLoop(
      [local]() -> StatusOr<std::unique_ptr<Conn>> {
        return std::unique_ptr<Conn>(std::make_unique<LocalConn>(local));
      },
      data, ctx->options.seconds, false, ctx->options.seed,
      local->compactor.get(), ctx);
  const ingest::IngestMetrics ingest_metrics = local->compactor->Metrics();
  const double writes = static_cast<double>(
      std::max<std::uint64_t>(rung.writes_ok, 1));
  report.Add("ingest.insert_ms_p50", rung.insert_call_ms.Median(), "ms",
             rung.insert_call_ms.count());
  report.Add("ingest.insert_ms_p99", rung.insert_call_ms.Percentile(99.0),
             "ms", rung.insert_call_ms.count());
  report.Add("ingest.delete_ms_p50", rung.delete_call_ms.Median(), "ms",
             rung.delete_call_ms.count());
  report.Add("ingest.compactions",
             static_cast<double>(ingest_metrics.compactions), "count");
  report.Add("ingest.pending_rows_max", static_cast<double>(rung.pending_max),
             "count", rung.writes_ok);
  report.Add("ingest.wal_fsyncs_per_write",
             static_cast<double>(
                 registry->GetCounter("sofa_wal_fsync_total")->Value() -
                 fsyncs_before) /
                 writes,
             "ratio", rung.writes_ok);
  report.Add("persist.commits",
             static_cast<double>(ingest_metrics.persisted - persisted_before),
             "count");
  double commit_ms_p50 = 0.0;
  std::uint64_t commit_samples = 0;
  for (const obs::InstrumentSnapshot& instrument : registry->Collect()) {
    if (instrument.name == "sofa_persist_commit_ms") {
      commit_ms_p50 = instrument.p50;
      commit_samples = instrument.count;
    }
  }
  report.Add("persist.commit_ms_p50", commit_ms_p50, "ms", commit_samples);
  rung_stack.value().reset();
  RemoveTree(rung_dir);

  AddBuildMetrics(setup, &report);
  AddServiceMetrics(plain.service_metrics, &report);
  RunServingLadder(data, SolveBase(data, pool), pool, ctx);
}

}  // namespace perfbench
}  // namespace sofa
