// Shared plumbing of the perfbench workloads: run options, latency
// samples, the in-memory span log, the brute-force exactness oracle and
// the metric report every workload fills.

#ifndef SOFA_PERFBENCH_COMMON_H_
#define SOFA_PERFBENCH_COMMON_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "index/tree_index.h"

namespace sofa {

class ThreadPool;

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Neighbors per query in every workload (exact search, epsilon 0).
inline constexpr std::size_t kTopK = 10;

/// The longest measured phase a run accepts (--seconds). A traced
/// ingest-mixed run holds three such phases besides its setup, checks,
/// restart and ladder, and must still end within the driver's timeout.
inline constexpr std::uint64_t kMaxSeconds = 30;

/// Parsed command line of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

double MsBetween(Clock::time_point from, Clock::time_point to);
double SecondsSince(Clock::time_point from);

/// Timing samples in one unit; percentiles interpolate linearly.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  std::size_t count() const { return values_.size(); }
  double Percentile(double p) const;  // p in [0, 100]; 0 when empty
  double Median() const { return Percentile(50.0); }

 private:
  std::vector<double> values_;
};

/// CPU time summed over this machine's CPUs, in jiffies; `steal` is the
/// part the hypervisor gave to other guests while this one wanted a CPU.
/// Both read 0 where /proc/stat is unavailable.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Reads CpuTimes at the start of a measured phase and at each of its
/// window boundaries, from a thread of its own.
class StealSampler {
 public:
  StealSampler(Clock::time_point start, double seconds, std::size_t windows);
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Stops sampling (boundaries not yet reached are read now) and returns
  /// each window's steal share of CPU time.
  std::vector<double> Stop();

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<CpuTimes> readings_;  // start, then one per boundary reached
  std::size_t windows_;
  std::thread thread_;
};

/// Latency samples of one measured phase, split by when they were taken
/// into equal time windows, each with its steal share (see StealSampler).
/// Percentiles and throughput are taken over the kept windows: the less
/// disturbed half (those no more stolen from than the median window) and
/// every quiet window (steal share at most kQuietSteal), so all of them on
/// a quiet machine. A window in which other guests held this machine's
/// CPUs measures them, not this program — an intra-query-parallel search
/// waits for its slowest thread, so a few percent of steal shows as tens
/// of percent of tail latency — while a slowdown of the program itself,
/// and any periodic cost such as a compaction, shows in every window.
class WindowedSamples {
 public:
  WindowedSamples(double seconds, std::size_t windows);

  /// A sample taken `at_s` seconds into the phase (clamped to it).
  void Add(double at_s, double value);
  void Append(const WindowedSamples& other);
  void SetWindowSteal(std::vector<double> steal_shares);

  /// The samples of the kept windows, pooled.
  Samples Kept() const;
  /// Kept samples per second of kept windows.
  double KeptRate() const;
  /// Each window's steal share, p50 and p99, and the kept windows, for the
  /// report's notes.
  std::string Describe() const;

 private:
  std::vector<bool> KeptWindows() const;

  double window_s_;
  std::vector<Samples> windows_;
  std::vector<double> steal_;  // one per window; empty = all kept
};

/// Windows per measured phase. At least half are kept, which must still
/// hold ten samples beyond the p99 of the slowest workload (explore-hf,
/// ~110 queries/s over 20 s).
inline constexpr std::size_t kWindows = 10;

/// A window whose steal share is at most this is quiet.
inline constexpr double kQuietSteal = 0.01;

/// How much slower the median request of a traced phase is than that of
/// the same phase untraced, in percent.
double TraceOverheadPct(const WindowedSamples& traced,
                        const WindowedSamples& plain);

/// One recorded span: a named interval in milliseconds since the run's
/// origin, the index of the span that caused it (-1 at top level) and the
/// request it belongs to.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory for the whole run and written out at the end.
/// Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  double OffsetMs(Clock::time_point t) const { return MsBetween(origin_, t); }

  /// Records [start, end] and returns the span's index (for children).
  std::int64_t Add(const std::string& name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t request,
                   std::int64_t parent = -1);
  std::int64_t AddMs(const std::string& name, double start_ms, double end_ms,
                     std::uint64_t request, std::int64_t parent = -1);

  std::size_t size() const;

  /// Durations (ms) of every span called `name`.
  Samples Durations(const std::string& name) const;

  /// One JSON object per line: name, start_ms, end_ms, parent, request.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Brute-force exact k-NN over a set of rows, with the engine's own
/// early-abandoning distance kernel run to completion — so every distance
/// it reports is the float the engine computes for the same pair. Each
/// answer keeps every candidate tied with the k-th distance, so a correct
/// engine answer may pick any of the tied ids.
class Oracle {
 public:
  struct Answer {
    std::size_t k = 0;  // expected answer size: min(k, live rows)
    std::vector<std::pair<float, std::uint32_t>> ranked;  // (dist², id)
  };

  /// `rows[i]` (length floats) carries global id `ids[i]`.
  Oracle(std::vector<const float*> rows, std::vector<std::uint32_t> ids,
         std::size_t length);

  /// Exact answers of every query row, in parallel on `pool`.
  std::vector<Answer> Solve(const Dataset& queries, std::size_t k,
                            ThreadPool* pool) const;

 private:
  Answer SolveOne(const float* query, std::size_t k) const;

  std::vector<const float*> rows_;
  std::vector<std::uint32_t> ids_;
  std::size_t length_;
};

/// True when `actual` is an exact k-NN answer: the right size, the same
/// distance at every rank bit for bit, and every id at the distance the
/// oracle computed for it. `why` receives the first difference.
bool MatchesOracle(const std::vector<Neighbor>& actual,
                   const Oracle::Answer& expected, std::string* why);

/// The metrics of one run, printed by name with their units.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  /// Extra context shown with the metrics (sample counts, flags, paths).
  void Note(const std::string& key, const std::string& value);

  /// Ladder metrics a workload does not exercise read 0 (and say so).
  void AddAbsent(const std::vector<std::pair<std::string, std::string>>&
                     names_and_units);

  std::string MetricsJson() const;
  std::string NotesJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Outcome counters of a run: every operation attempted, and those that
/// were refused, failed or answered wrongly.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, for the log

  void Fail(const std::string& why);
  void Merge(const Outcome& other);
};

/// Per-query means of the engine's work counters plus the two prune
/// ratios, as ladder metrics (index.*), and their exact sums as a note.
void AddWorkCounters(const index::QueryProfile& total, std::size_t queries,
                     Report* report);

/// A fixed fingerprint of a QueryProfile sum.
std::string ProfileFingerprint(const index::QueryProfile& total);

/// The repeatability check of the work counters: `first` and `second` sum
/// two 1-thread passes over the same queries, each on its own serially
/// built copy of the index. Any difference fails the run.
void CheckCountersRepeat(const index::QueryProfile& first,
                         const index::QueryProfile& second, Outcome* outcome);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// The first min(n, size) rows of `rows`.
Dataset Head(const Dataset& rows, std::size_t n);

/// Removes `path` recursively (best effort).
void RemoveTree(const std::string& path);

}  // namespace perfbench
}  // namespace sofa

#endif  // SOFA_PERFBENCH_COMMON_H_
