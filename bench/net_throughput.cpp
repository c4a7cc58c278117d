// Serving-tier load generator: drives a running `sofa_cli serve --listen`
// process over the binary wire protocol and reports QPS plus latency
// percentiles, overall and per priority class.
//
// Two load shapes:
//   closed — --connections workers, each a blocking request/response
//            loop: the offered load adapts to the server (classic
//            closed-loop benchmark; measures capacity);
//   open   — each connection paces SendSearch at a fixed aggregate
//            --qps, a second thread drains the pipelined responses:
//            latency includes queueing delay under a load the server
//            does not control (measures behavior at a target rate).
//
// Each request draws its priority class from --mix (percent
// interactive,batch,background), so the per-class percentile rows show
// the admission queue's strict-priority-with-reserve policy end to end
// over TCP. Every connection tags its requests with a distinct tenant
// ("bench-0", "bench-1", ...), exercising the per-tenant quota path when
// the server runs with --tenant-quota.
//
// Queries are z-normalized random walks of --length points — they must
// match the serving collection's series length or the server answers
// kInvalidArgument (counted as errors).
//
// Flags: --host=127.0.0.1 --port=0 | --port-file=PATH
//        --mode=closed|open|both --connections=4 --duration_s=5
//        --qps=1000 (open loop) --k=10 --length=256 --epsilon=0
//        --deadline_ms=0 --mix=60,30,10 --seed=7 --stats-json=FILE
//
// --stats-json fetches a STATS(json) dump over the wire at the end and
// writes it to FILE — the CI smoke step asserts it parses.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/znorm.h"
#include "net/client.h"
#include "service/request.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace sofa;

struct LoadConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 4;
  double duration_s = 5.0;
  double qps = 1000.0;  // open loop, aggregate
  std::size_t k = 10;
  std::size_t length = 256;
  double epsilon = 0.0;
  double deadline_ms = 0.0;
  std::uint64_t seed = 7;
  // Cumulative priority thresholds in percent: a draw in [0, mix[0]) is
  // interactive, [mix[0], mix[1]) batch, the rest background.
  double mix[2] = {60.0, 90.0};
};

// What one worker measured; merged across connections at the end.
struct WorkerResult {
  std::vector<double> latency_ms[service::kNumPriorities];
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      // kRejected / kQuotaExceeded / kShutdown
  std::uint64_t expired = 0;   // kDeadlineExpired
  std::uint64_t errors = 0;    // transport or other server-side failures
};

std::vector<float> MakeQuery(Rng* rng, std::size_t length) {
  std::vector<float> query(length);
  double level = 0.0;
  for (auto& x : query) {
    level += rng->Gaussian();
    x = static_cast<float>(level);
  }
  ZNormalize(query.data(), length);
  return query;
}

service::Priority DrawPriority(Rng* rng, const LoadConfig& config) {
  const double draw = rng->Uniform(0.0, 100.0);
  if (draw < config.mix[0]) {
    return service::Priority::kInteractive;
  }
  if (draw < config.mix[1]) {
    return service::Priority::kBatch;
  }
  return service::Priority::kBackground;
}

service::SearchRequest MakeRequest(Rng* rng, const LoadConfig& config,
                                   const std::string& tenant) {
  service::SearchRequest request;
  request.query = MakeQuery(rng, config.length);
  request.k = config.k;
  request.epsilon = config.epsilon;
  request.priority = DrawPriority(rng, config);
  request.tenant = tenant;
  request.deadline_ms = config.deadline_ms;
  return request;
}

void Record(WorkerResult* result, const service::SearchResponse& response,
            service::Priority priority, double millis) {
  switch (response.status) {
    case StatusCode::kOk:
      ++result->ok;
      result->latency_ms[static_cast<std::size_t>(priority)].push_back(
          millis);
      break;
    case StatusCode::kRejected:
    case StatusCode::kQuotaExceeded:
    case StatusCode::kShutdown:
      ++result->shed;
      break;
    case StatusCode::kDeadlineExpired:
      ++result->expired;
      break;
    default:
      ++result->errors;
      break;
  }
}

// Closed loop: one blocking round trip at a time per connection.
WorkerResult RunClosedWorker(const LoadConfig& config, std::size_t id,
                             std::atomic<bool>* stop) {
  WorkerResult result;
  Rng rng(config.seed + id * 7919);
  const std::string tenant = "bench-" + std::to_string(id);
  net::SofaClient client;
  if (!client.Connect(config.host, config.port).ok()) {
    ++result.errors;
    return result;
  }
  while (!stop->load(std::memory_order_relaxed)) {
    const service::SearchRequest request =
        MakeRequest(&rng, config, tenant);
    const service::Priority priority = request.priority;
    service::SearchResponse response;
    WallTimer timer;
    const Status status = client.Search(request, &response);
    if (!status.ok()) {
      ++result.errors;
      break;  // transport failure poisons the connection
    }
    Record(&result, response, priority, timer.Millis());
  }
  return result;
}

// Open loop: the sender paces SendSearch at the per-connection rate and
// logs (send time, priority) in FIFO order; the receiver drains the
// pipelined responses, which the server returns in request order.
WorkerResult RunOpenWorker(const LoadConfig& config, std::size_t id,
                           std::atomic<bool>* stop) {
  WorkerResult result;
  Rng rng(config.seed + id * 7919);
  const std::string tenant = "bench-" + std::to_string(id);
  net::SofaClient client;
  if (!client.Connect(config.host, config.port).ok()) {
    ++result.errors;
    return result;
  }

  struct InFlight {
    std::chrono::steady_clock::time_point sent;
    service::Priority priority = service::Priority::kInteractive;
  };
  std::mutex mutex;
  std::deque<InFlight> in_flight;
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> send_failures{0};

  std::thread receiver([&] {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (in_flight.empty()) {
          if (sender_done.load()) {
            return;
          }
        }
      }
      InFlight head;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (in_flight.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        head = in_flight.front();
        in_flight.pop_front();
      }
      std::uint64_t request_id = 0;
      service::SearchResponse response;
      if (!client.ReceiveSearchResponse(&request_id, &response).ok()) {
        ++result.errors;
        return;  // transport gone; sender will fail and stop too
      }
      const double millis =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - head.sent)
              .count();
      Record(&result, response, head.priority, millis);
    }
  });

  const double per_connection_qps =
      config.qps / static_cast<double>(config.connections);
  const auto interval = std::chrono::duration<double>(
      per_connection_qps > 0.0 ? 1.0 / per_connection_qps : 0.001);
  auto next_send = std::chrono::steady_clock::now();
  while (!stop->load(std::memory_order_relaxed)) {
    std::this_thread::sleep_until(next_send);
    next_send += std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(interval);
    const service::SearchRequest request =
        MakeRequest(&rng, config, tenant);
    const InFlight entry{std::chrono::steady_clock::now(),
                         request.priority};
    {
      // Log before sending so the receiver never sees a response with no
      // matching entry.
      std::lock_guard<std::mutex> lock(mutex);
      in_flight.push_back(entry);
    }
    std::uint64_t request_id = 0;
    if (!client.SendSearch(request, &request_id).ok()) {
      ++send_failures;
      std::lock_guard<std::mutex> lock(mutex);
      in_flight.pop_back();
      break;
    }
  }
  sender_done.store(true);
  receiver.join();
  result.errors += send_failures.load();
  return result;
}

void PrintResults(const char* label, const std::vector<WorkerResult>& results,
                  double wall_seconds) {
  std::uint64_t ok = 0, shed = 0, expired = 0, errors = 0;
  std::vector<double> by_priority[service::kNumPriorities];
  std::vector<double> overall;
  for (const WorkerResult& result : results) {
    ok += result.ok;
    shed += result.shed;
    expired += result.expired;
    errors += result.errors;
    for (std::size_t p = 0; p < service::kNumPriorities; ++p) {
      by_priority[p].insert(by_priority[p].end(),
                            result.latency_ms[p].begin(),
                            result.latency_ms[p].end());
      overall.insert(overall.end(), result.latency_ms[p].begin(),
                     result.latency_ms[p].end());
    }
  }
  std::printf("%s: %llu ok in %.2f s — QPS %.1f (%llu shed, %llu expired, "
              "%llu errors)\n",
              label, static_cast<unsigned long long>(ok), wall_seconds,
              static_cast<double>(ok) / wall_seconds,
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(expired),
              static_cast<unsigned long long>(errors));
  const auto row = [](const char* name, std::vector<double> values) {
    if (values.empty()) {
      std::printf("  %-12s (no completed requests)\n", name);
      return;
    }
    std::printf("  %-12s n=%-7zu p50 %8.3f  p95 %8.3f  p99 %8.3f ms\n",
                name, values.size(), stats::Percentile(values, 50.0),
                stats::Percentile(values, 95.0),
                stats::Percentile(values, 99.0));
  };
  row("overall", overall);
  for (std::size_t p = 0; p < service::kNumPriorities; ++p) {
    row(service::PriorityName(static_cast<service::Priority>(p)),
        std::move(by_priority[p]));
  }
}

std::vector<WorkerResult> RunPhase(const LoadConfig& config, bool open,
                                   double* wall_seconds) {
  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(config.connections);
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  WallTimer timer;
  for (std::size_t c = 0; c < config.connections; ++c) {
    workers.emplace_back([&, c] {
      results[c] = open ? RunOpenWorker(config, c, &stop)
                        : RunClosedWorker(config, c, &stop);
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(config.duration_s));
  stop.store(true);
  for (std::thread& worker : workers) {
    worker.join();
  }
  *wall_seconds = timer.Seconds();
  return results;
}

bool ReadPortFile(const std::string& path, std::uint16_t* port) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  unsigned value = 0;
  const bool ok = std::fscanf(in, "%u", &value) == 1 && value <= 65535;
  std::fclose(in);
  if (ok) {
    *port = static_cast<std::uint16_t>(value);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  LoadConfig config;
  config.host = flags.GetString("host", config.host);
  config.connections = static_cast<std::size_t>(
      flags.GetInt("connections", static_cast<std::int64_t>(
                                      config.connections)));
  config.duration_s = flags.GetDouble("duration_s", config.duration_s);
  config.qps = flags.GetDouble("qps", config.qps);
  config.k = static_cast<std::size_t>(flags.GetInt("k", 10));
  config.length = static_cast<std::size_t>(flags.GetInt("length", 256));
  config.epsilon = flags.GetDouble("epsilon", 0.0);
  config.deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 7));
  const std::string port_file = flags.GetString("port-file", "");
  config.port = static_cast<std::uint16_t>(flags.GetInt("port", 0));
  const std::vector<std::string> mix = flags.GetList("mix");
  const std::string mode = flags.GetString("mode", "closed");
  // End-of-run stats fetch over the wire; --stats-json makes it a file
  // the CI smoke step can validate.
  const std::string stats_json = flags.GetString("stats-json", "");
  ExitOnHelpOrUnreadFlags(flags, "net_throughput");

  if (!port_file.empty() && !ReadPortFile(port_file, &config.port)) {
    std::fprintf(stderr, "cannot read a port from %s\n", port_file.c_str());
    return 1;
  }
  if (config.port == 0) {
    std::fprintf(stderr, "need --port or --port-file\n");
    return 1;
  }
  if (!mix.empty()) {
    if (mix.size() != 3) {
      std::fprintf(stderr, "--mix needs three percentages, e.g. 60,30,10\n");
      return 1;
    }
    const double interactive = std::atof(mix[0].c_str());
    const double batch = std::atof(mix[1].c_str());
    config.mix[0] = interactive;
    config.mix[1] = interactive + batch;
  }
  if (mode != "closed" && mode != "open" && mode != "both") {
    std::fprintf(stderr, "--mode must be closed|open|both\n");
    return 1;
  }

  std::printf("net_throughput — %s:%u, %zu connections, %.1f s per phase, "
              "k=%zu, length=%zu, mix %.0f/%.0f/%.0f\n\n",
              config.host.c_str(), config.port, config.connections,
              config.duration_s, config.k, config.length, config.mix[0],
              config.mix[1] - config.mix[0], 100.0 - config.mix[1]);

  // Fail fast (and with a clear message) when nothing is listening.
  {
    net::SofaClient probe;
    const Status status = probe.Connect(config.host, config.port);
    if (!status.ok()) {
      std::fprintf(stderr, "no server at %s:%u — %s\n", config.host.c_str(),
                   config.port, status.ToString().c_str());
      return 1;
    }
  }

  double wall_seconds = 0.0;
  if (mode == "closed" || mode == "both") {
    const std::vector<WorkerResult> results =
        RunPhase(config, /*open=*/false, &wall_seconds);
    PrintResults("closed loop", results, wall_seconds);
  }
  if (mode == "open" || mode == "both") {
    if (mode == "both") {
      std::printf("\n");
    }
    const std::vector<WorkerResult> results =
        RunPhase(config, /*open=*/true, &wall_seconds);
    char label[64];
    std::snprintf(label, sizeof(label), "open loop @ %.0f QPS", config.qps);
    PrintResults(label, results, wall_seconds);
  }

  if (!stats_json.empty()) {
    net::SofaClient client;
    Status status = client.Connect(config.host, config.port);
    if (!status.ok()) {
      std::fprintf(stderr, "stats fetch: %s\n", status.ToString().c_str());
      return 1;
    }
    const StatusOr<std::string> stats =
        client.Stats(net::StatsFormat::kJson);
    if (!stats.ok()) {
      std::fprintf(stderr, "STATS failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    // Identify the run so the perf-baseline harness can refuse to diff
    // dumps from different load shapes or ISA tiers.
    const std::string rendered = bench::WithBenchMetadata(
        stats.value(),
        bench::BenchMetadataJson(
            "net_throughput",
            {{"connections", std::to_string(config.connections)},
             {"k", std::to_string(config.k)},
             {"length", std::to_string(config.length)},
             {"duration_s", std::to_string(config.duration_s)},
             {"mode", mode},
             {"seed", std::to_string(config.seed)}}));
    std::FILE* out = std::fopen(stats_json.c_str(), "wb");
    if (out == nullptr ||
        std::fwrite(rendered.data(), 1, rendered.size(), out) !=
            rendered.size() ||
        std::fclose(out) != 0) {
      std::fprintf(stderr, "failed to write --stats-json %s\n",
                   stats_json.c_str());
      return 1;
    }
    std::printf("\nwrote server stats (JSON over the wire) to %s\n",
                stats_json.c_str());
  }
  return 0;
}
