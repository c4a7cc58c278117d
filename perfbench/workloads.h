// The three perfbench workloads. Each generates its inputs from the run's
// seed, measures for the requested seconds, checks every answer against
// brute force, and fills the run's report: end-to-end metrics on an
// untraced run, the per-layer ladder (and trace_overhead_pct) on a traced
// one.

#ifndef SOFA_PERFBENCH_WORKLOADS_H_
#define SOFA_PERFBENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/dataset.h"
#include "index/tree_index.h"
#include "util/thread_pool.h"

namespace sofa {
namespace perfbench {

/// Everything one run reads and fills.
struct RunContext {
  explicit RunContext(RunOptions run_options)
      : options(std::move(run_options)), spans(Clock::now()) {}

  RunOptions options;
  Report report;
  Outcome outcome;
  SpanLog spans;
  /// Workload parameters recorded in the output's metadata block.
  std::vector<std::pair<std::string, std::string>> params;
};

/// Setup repetitions per run; setup_s reports their median.
inline constexpr std::size_t kSetupRepetitions = 5;

/// Exploratory exact search on the high-frequency seismic set, in-process,
/// one query at a time with intra-query parallelism on every thread.
void RunExploreHf(RunContext* ctx, ThreadPool* pool);

/// A cache-resident collection served over loopback TCP to closed-loop
/// clients.
void RunServeHot(RunContext* ctx, ThreadPool* pool);

/// The serve-hot server made durable, with open-loop writes beside
/// open-loop reads, ending in a graceful stop and a restart.
void RunIngestMixed(RunContext* ctx, ThreadPool* pool);

/// The end-to-end metrics of an untraced run: setup_s (median setup),
/// query_ms_p50/p99 over the kept windows (see WindowedSamples), qps,
/// peak_rss_mb.
void AddEndToEnd(const Samples& setup_s, const WindowedSamples& latency_ms,
                 double qps, RunContext* ctx);

/// Kernel rungs: the exact distance kernel over every row of `data`
/// (core.*), the summary lower bound over every leaf word of `trees` and
/// the quantized-row bound over their rowq sidecars (quant.*; rowq reads 0
/// when no tree carries one).
void MeasureKernels(const Dataset& data,
                    const std::vector<const index::TreeIndex*>& trees,
                    const Dataset& queries, Report* report);

/// The brute-force reference: flat::IndexFlatL2 answering batches of
/// #threads queries in parallel, per-query time (flat.scan_ms_p50).
void MeasureFlatScan(const Dataset& data, const Dataset& queries,
                     ThreadPool* pool, RunContext* ctx);

/// Ladder metrics of the layers a workload bypasses (reported as 0).
std::vector<std::pair<std::string, std::string>> ShardServiceNetMetrics();
std::vector<std::pair<std::string, std::string>> IngestPersistMetrics();

}  // namespace perfbench
}  // namespace sofa

#endif  // SOFA_PERFBENCH_WORKLOADS_H_
