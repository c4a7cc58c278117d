// explore-hf: the paper's exploratory protocol. One caller sends one query
// at a time; each runs through index::QueryEngine::Search with
// intra-query parallelism on every hardware thread, over the LenDB-like
// high-frequency seismic set (200k x 256, ~205 MB of rows — larger than
// the L2 caches) in one tree with the rowq tier off. The kernels and the
// engine do nearly all the work; service, net, shard and ingest are
// bypassed.

#include <memory>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "index/query_engine.h"
#include "sfa/mcb.h"
#include "util/stats.h"
#include "workloads.h"

namespace sofa {
namespace perfbench {
namespace {

constexpr const char* kDataset = "LenDB";
constexpr std::size_t kRows = 200000;
// Enough distinct queries that the mix of easy and hard ones, and so the
// medians, barely move from seed to seed.
constexpr std::size_t kQueries = 1000;
// Queries of the slow single-threaded ladder rungs.
constexpr std::size_t kRungQueries = 200;
constexpr std::size_t kLeafCapacity = 2000;

struct ExploreIndex {
  std::unique_ptr<sfa::SfaScheme> scheme;
  std::unique_ptr<index::TreeIndex> tree;
  double setup_s = 0.0;
  double train_s = 0.0;
};

// Generated rows in memory → first answered query.
ExploreIndex BuildIndex(const Dataset& data, const float* first_query,
                        ThreadPool* pool) {
  ExploreIndex built;
  const Clock::time_point start = Clock::now();
  built.scheme = sfa::TrainSfa(data, sfa::SfaConfig{}, pool);
  built.train_s = SecondsSince(start);
  index::IndexConfig config;
  config.leaf_capacity = kLeafCapacity;
  built.tree = std::make_unique<index::TreeIndex>(&data, built.scheme.get(),
                                                  config, pool);
  (void)index::QueryEngine(built.tree.get()).Search(first_query, kTopK);
  built.setup_s = SecondsSince(start);
  return built;
}

// One caller, one query at a time, for `seconds`; every answer is checked
// against the oracle. With `trace`, each call is recorded as a span.
WindowedSamples RunLoop(const index::TreeIndex& tree, const Dataset& queries,
                        const std::vector<Oracle::Answer>& answers,
                        double seconds, bool trace, RunContext* ctx) {
  const index::QueryEngine engine(&tree);
  WindowedSamples latency_ms(seconds, kWindows);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  StealSampler steal(start, seconds, kWindows);
  std::uint64_t request = 0;
  for (Clock::time_point now = start; now < end; now = Clock::now()) {
    const std::size_t q = request % queries.size();
    const Clock::time_point t0 = Clock::now();
    const std::vector<Neighbor> answer = engine.Search(queries.row(q), kTopK);
    const Clock::time_point t1 = Clock::now();
    if (trace) {
      ctx->spans.Add("engine.search", t0, t1, request);
    }
    ++ctx->outcome.attempted;
    std::string why;
    if (MatchesOracle(answer, answers[q], &why)) {
      latency_ms.Add(MsBetween(start, t1) / 1e3, MsBetween(t0, t1));
    } else {
      ctx->outcome.Fail("query " + std::to_string(q) + ": " + why);
    }
    ++request;
  }
  latency_ms.SetWindowSteal(steal.Stop());
  return latency_ms;
}

// The engine's work counters over `queries` on one thread, on an index
// trained and built on one thread: a parallel build scatters series into
// leaves in thread-timing order, which moves the counters from run to run,
// while a serial build makes them a function of the seed alone. Every
// answer is checked.
index::QueryProfile CountWork(const Dataset& data, const Dataset& queries,
                              const std::vector<Oracle::Answer>& answers,
                              RunContext* ctx) {
  ThreadPool serial_pool(1);
  const std::unique_ptr<sfa::SfaScheme> scheme =
      sfa::TrainSfa(data, sfa::SfaConfig{}, &serial_pool);
  index::IndexConfig config;
  config.leaf_capacity = kLeafCapacity;
  config.num_threads = 1;
  const index::TreeIndex tree(&data, scheme.get(), config, &serial_pool);
  const index::QueryEngine engine(&tree);
  index::QueryProfile total;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    index::QueryProfile profile;
    const std::vector<Neighbor> answer =
        engine.Search(queries.row(q), kTopK, 0.0, &profile, 1);
    total.Merge(profile);
    ++ctx->outcome.attempted;
    std::string why;
    if (!MatchesOracle(answer, answers[q], &why)) {
      ctx->outcome.Fail("serial-copy query " + std::to_string(q) + ": " + why);
    }
  }
  return total;
}

}  // namespace

void RunExploreHf(RunContext* ctx, ThreadPool* pool) {
  datagen::GenerateOptions gen;
  gen.count = kRows;
  gen.num_queries = kQueries;
  gen.seed = ctx->options.seed;
  const LabeledDataset ds = datagen::MakeDatasetByName(kDataset, gen, pool);
  ctx->params = {{"dataset", kDataset},
                 {"rows", std::to_string(ds.data.size())},
                 {"length", std::to_string(ds.data.length())},
                 {"queries", std::to_string(ds.queries.size())},
                 {"k", std::to_string(kTopK)},
                 {"epsilon", "0"},
                 {"shards", "1"},
                 {"rowq", "off"},
                 {"leaf_capacity", std::to_string(kLeafCapacity)},
                 {"engine_threads", std::to_string(pool->size())},
                 {"callers", "1"}};

  // Each repetition starts from the generated rows again; only the last
  // index survives to serve the measured queries.
  Samples setup_s, train_s, build_s, symbolize_s, partition_s, tree_s;
  ExploreIndex built;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    built = ExploreIndex{};
    built = BuildIndex(ds.data, ds.queries.row(0), pool);
    const index::BuildStats& stats = built.tree->build_stats();
    setup_s.Add(built.setup_s);
    train_s.Add(built.train_s);
    build_s.Add(stats.total_seconds);
    symbolize_s.Add(stats.symbolize_seconds);
    partition_s.Add(stats.partition_seconds);
    tree_s.Add(stats.tree_seconds);
  }

  std::vector<const float*> rows(ds.data.size());
  std::vector<std::uint32_t> ids(ds.data.size());
  for (std::size_t i = 0; i < ds.data.size(); ++i) {
    rows[i] = ds.data.row(i);
    ids[i] = static_cast<std::uint32_t>(i);
  }
  const std::vector<Oracle::Answer> answers =
      Oracle(std::move(rows), std::move(ids), ds.data.length())
          .Solve(ds.queries, kTopK, pool);

  const double seconds = ctx->options.seconds;
  const WindowedSamples plain =
      RunLoop(*built.tree, ds.queries, answers, seconds, false, ctx);
  if (!ctx->options.trace) {
    AddEndToEnd(setup_s, plain, plain.KeptRate(), ctx);
    return;
  }

  // Traced run: the same loop with spans on, then the ladder rungs.
  const WindowedSamples traced =
      RunLoop(*built.tree, ds.queries, answers, seconds, true, ctx);
  Report& report = ctx->report;
  report.Add("trace_overhead_pct", TraceOverheadPct(traced, plain), "%",
             traced.Kept().count());

  report.Add("sfa.train_s", train_s.Median(), "s", train_s.count());
  report.Add("index.build_s", build_s.Median(), "s", build_s.count());
  report.Add("index.symbolize_s", symbolize_s.Median(), "s",
             symbolize_s.count());
  report.Add("index.partition_s", partition_s.Median(), "s",
             partition_s.count());
  report.Add("index.tree_s", tree_s.Median(), "s", tree_s.count());

  // Engine rung at full intra-query parallelism = the traced loop itself.
  const Samples search_ms = ctx->spans.Durations("engine.search");
  report.Add("index.search_ms_p50", search_ms.Median(), "ms",
             search_ms.count());
  report.Add("index.search_ms_p99", search_ms.Percentile(99.0), "ms",
             search_ms.count());

  // 1-thread rung, parallel speedup and seed on the measured tree itself,
  // so every difference between rungs compares the same leaves.
  const index::QueryEngine engine(built.tree.get());
  Samples search_1t_ms, search_nt_ms, seed_ms;
  const Dataset rung_queries = Head(ds.queries, kRungQueries);
  for (std::size_t q = 0; q < rung_queries.size(); ++q) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<Neighbor> answer =
        engine.Search(rung_queries.row(q), kTopK, 0.0, nullptr, 1);
    const Clock::time_point t1 = Clock::now();
    ctx->spans.Add("rung.engine_1t", t0, t1, q);
    search_1t_ms.Add(MsBetween(t0, t1));
    ++ctx->outcome.attempted;
    std::string why;
    if (!MatchesOracle(answer, answers[q], &why)) {
      ctx->outcome.Fail("1-thread query " + std::to_string(q) + ": " + why);
    }
    const Clock::time_point p0 = Clock::now();
    (void)engine.Search(rung_queries.row(q), kTopK);
    const Clock::time_point p1 = Clock::now();
    search_nt_ms.Add(MsBetween(p0, p1));
    const Clock::time_point s0 = Clock::now();
    (void)engine.SearchLeafOnly(rung_queries.row(q), kTopK);
    const Clock::time_point s1 = Clock::now();
    ctx->spans.Add("rung.seed", s0, s1, q);
    seed_ms.Add(MsBetween(s0, s1));
  }
  report.Add("index.search_1t_ms_p50", search_1t_ms.Median(), "ms",
             search_1t_ms.count());
  report.Add("index.parallel_speedup",
             search_1t_ms.Median() / search_nt_ms.Median(), "x",
             search_1t_ms.count());
  report.Add("index.seed_ms_p50", seed_ms.Median(), "ms", seed_ms.count());

  // Work counters: two 1-thread passes, each on its own serial copy.
  const index::QueryProfile work =
      CountWork(ds.data, rung_queries, answers, ctx);
  CheckCountersRepeat(work, CountWork(ds.data, rung_queries, answers, ctx),
                      &ctx->outcome);
  AddWorkCounters(work, rung_queries.size(), &report);

  MeasureKernels(ds.data, {built.tree.get()}, rung_queries, &report);
  MeasureFlatScan(ds.data, rung_queries, pool, ctx);
  report.AddAbsent(ShardServiceNetMetrics());
  report.AddAbsent(IngestPersistMetrics());
}

}  // namespace perfbench
}  // namespace sofa
