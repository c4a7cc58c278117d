#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/distance.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace sofa {
namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  return stats::Percentile(values_, p);
}

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  // cpu  user nice system idle iowait irq softirq steal ...
  if (!(in >> cpu) || cpu != "cpu") {
    return times;
  }
  for (int i = 0; i < 8 && in >> field; ++i) {
    times.total += field;
    if (i == 7) {
      times.steal = field;
    }
  }
  return times;
}

StealSampler::StealSampler(Clock::time_point start, double seconds,
                           std::size_t windows)
    : readings_{ReadCpuTimes()}, windows_(windows) {
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(windows)));
  thread_ = std::thread([this, start, window] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t w = 1; w <= windows_; ++w) {
      const Clock::time_point boundary =
          start + window * static_cast<Clock::rep>(w);
      if (wake_.wait_until(lock, boundary, [this] { return stop_; })) {
        return;
      }
      readings_.push_back(ReadCpuTimes());
    }
  });
}

StealSampler::~StealSampler() { Stop(); }

std::vector<double> StealSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  while (readings_.size() < windows_ + 1) {
    readings_.push_back(ReadCpuTimes());
  }
  std::vector<double> shares(windows_, 0.0);
  for (std::size_t w = 0; w < windows_; ++w) {
    const std::uint64_t total = readings_[w + 1].total - readings_[w].total;
    if (total > 0) {
      shares[w] = static_cast<double>(readings_[w + 1].steal -
                                      readings_[w].steal) /
                  static_cast<double>(total);
    }
  }
  return shares;
}

WindowedSamples::WindowedSamples(double seconds, std::size_t windows)
    : window_s_(seconds / static_cast<double>(windows)), windows_(windows) {}

void WindowedSamples::Add(double at_s, double value) {
  const double slot = std::max(0.0, at_s / window_s_);
  windows_[std::min(windows_.size() - 1, static_cast<std::size_t>(slot))]
      .Add(value);
}

void WindowedSamples::Append(const WindowedSamples& other) {
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    windows_[w].Append(other.windows_[w]);
  }
}

void WindowedSamples::SetWindowSteal(std::vector<double> steal_shares) {
  steal_ = std::move(steal_shares);
}

std::vector<bool> WindowedSamples::KeptWindows() const {
  std::vector<bool> kept(windows_.size(), true);
  if (steal_.size() != windows_.size()) {
    return kept;
  }
  std::vector<double> sorted = steal_;
  std::sort(sorted.begin(), sorted.end());
  const double limit =
      std::max(kQuietSteal, sorted[(sorted.size() - 1) / 2]);
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    kept[w] = steal_[w] <= limit;
  }
  return kept;
}

Samples WindowedSamples::Kept() const {
  const std::vector<bool> kept = KeptWindows();
  Samples pooled;
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    if (kept[w]) {
      pooled.Append(windows_[w]);
    }
  }
  return pooled;
}

double WindowedSamples::KeptRate() const {
  const std::vector<bool> kept = KeptWindows();
  const auto windows = std::count(kept.begin(), kept.end(), true);
  return static_cast<double>(Kept().count()) /
         (static_cast<double>(windows) * window_s_);
}

std::string WindowedSamples::Describe() const {
  const std::vector<bool> kept = KeptWindows();
  std::string out;
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "%s[%zu%s steal %.4f p50 %.4g p99 %.4g n %zu]",
                  out.empty() ? "" : " ", w, kept[w] ? " kept" : "",
                  w < steal_.size() ? steal_[w] : 0.0,
                  windows_[w].Percentile(50.0), windows_[w].Percentile(99.0),
                  windows_[w].count());
    out += line;
  }
  return out;
}

double TraceOverheadPct(const WindowedSamples& traced,
                        const WindowedSamples& plain) {
  return (traced.Kept().Median() / plain.Kept().Median() - 1.0) * 100.0;
}

std::int64_t SpanLog::Add(const std::string& name, Clock::time_point start,
                          Clock::time_point end, std::uint64_t request,
                          std::int64_t parent) {
  return AddMs(name, OffsetMs(start), OffsetMs(end), request, parent);
}

std::int64_t SpanLog::AddMs(const std::string& name, double start_ms,
                            double end_ms, std::uint64_t request,
                            std::int64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ms, end_ms, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Samples SpanLog::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Samples out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.Add(span.end_ms - span.start_ms);
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  char line[320];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                  "\"parent\": %lld, \"request\": %llu}\n",
                  span.name.c_str(), span.start_ms, span.end_ms,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.request));
    out << line;
  }
  return static_cast<bool>(out);
}

Oracle::Oracle(std::vector<const float*> rows, std::vector<std::uint32_t> ids,
               std::size_t length)
    : rows_(std::move(rows)), ids_(std::move(ids)), length_(length) {}

namespace {

// Candidates kept per query beyond k, so rows tied with the k-th distance
// survive the scan; a query whose whole slack is one tie run is rescanned
// keeping every candidate.
constexpr std::size_t kTieSlack = 32;
// Queries scanned together: each row is loaded once per group and stays
// in L1 while every query of the group is measured against it.
constexpr std::size_t kQueryGroup = 32;

using Candidate = std::pair<float, std::uint32_t>;  // (dist², id)

}  // namespace

Oracle::Answer Oracle::SolveOne(const float* query, std::size_t k) const {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<Candidate> all(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    all[i] = {SquaredEuclideanEarlyAbandon(query, rows_[i], length_, kInf),
              ids_[i]};
  }
  Answer answer;
  answer.k = std::min(k, all.size());
  if (answer.k == 0) {
    return answer;
  }
  std::nth_element(all.begin(), all.begin() + (answer.k - 1), all.end());
  const float kth = all[answer.k - 1].first;
  for (const Candidate& candidate : all) {
    if (candidate.first <= kth) {
      answer.ranked.push_back(candidate);
    }
  }
  std::sort(answer.ranked.begin(), answer.ranked.end());
  return answer;
}

std::vector<Oracle::Answer> Oracle::Solve(const Dataset& queries,
                                          std::size_t k,
                                          ThreadPool* pool) const {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::size_t keep = k + kTieSlack;
  std::vector<Answer> answers(queries.size());
  const std::size_t groups = (queries.size() + kQueryGroup - 1) / kQueryGroup;
  DynamicParallelFor(
      pool, groups, 1,
      [&](std::size_t group_begin, std::size_t group_end, std::size_t) {
        for (std::size_t g = group_begin; g < group_end; ++g) {
          const std::size_t q0 = g * kQueryGroup;
          const std::size_t q1 = std::min(queries.size(), q0 + kQueryGroup);
          // Max-heaps of the `keep` nearest candidates per query.
          std::vector<std::vector<Candidate>> heaps(q1 - q0);
          for (std::size_t i = 0; i < rows_.size(); ++i) {
            for (std::size_t q = q0; q < q1; ++q) {
              // An infinite bound never abandons, so the sum is the one the
              // engine's kernel produces for an admitted candidate.
              const Candidate candidate{
                  SquaredEuclideanEarlyAbandon(queries.row(q), rows_[i],
                                               length_, kInf),
                  ids_[i]};
              std::vector<Candidate>& heap = heaps[q - q0];
              if (heap.size() < keep) {
                heap.push_back(candidate);
                std::push_heap(heap.begin(), heap.end());
              } else if (candidate < heap.front()) {
                std::pop_heap(heap.begin(), heap.end());
                heap.back() = candidate;
                std::push_heap(heap.begin(), heap.end());
              }
            }
          }
          for (std::size_t q = q0; q < q1; ++q) {
            std::vector<Candidate>& heap = heaps[q - q0];
            std::sort_heap(heap.begin(), heap.end());
            Answer& answer = answers[q];
            answer.k = std::min(k, heap.size());
            if (answer.k == 0) {
              continue;
            }
            const float kth = heap[answer.k - 1].first;
            if (heap.size() == keep && heap.back().first == kth) {
              answer = SolveOne(queries.row(q), k);
              continue;
            }
            for (const Candidate& candidate : heap) {
              if (candidate.first <= kth) {
                answer.ranked.push_back(candidate);
              }
            }
          }
        }
      });
  return answers;
}

bool MatchesOracle(const std::vector<Neighbor>& actual,
                   const Oracle::Answer& expected, std::string* why) {
  if (actual.size() != expected.k) {
    *why = "answer has " + std::to_string(actual.size()) + " neighbors, want " +
           std::to_string(expected.k);
    return false;
  }
  std::unordered_map<std::uint32_t, float> candidates;
  for (const auto& [dist_sq, id] : expected.ranked) {
    candidates.emplace(id, dist_sq);
  }
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const float want = std::sqrt(expected.ranked[i].first);
    if (actual[i].distance != want) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "rank %zu: distance %.9g, want %.9g",
                    i, actual[i].distance, want);
      *why = buf;
      return false;
    }
    const auto it = candidates.find(actual[i].id);
    if (it == candidates.end() || std::sqrt(it->second) != want ||
        !seen.insert(actual[i].id).second) {
      *why = "rank " + std::to_string(i) + ": id " +
             std::to_string(actual[i].id) + " is not an exact neighbor";
      return false;
    }
  }
  return true;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  entries_.push_back(Entry{name, value, unit, samples});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::AddAbsent(
    const std::vector<std::pair<std::string, std::string>>& names_and_units) {
  for (const auto& [name, unit] : names_and_units) {
    Add(name, 0.0, unit);
    Note(name, "not exercised by this workload");
  }
}

std::string Report::MetricsJson() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << e.unit << "\"";
    if (e.samples > 0) {
      out << ", \"samples\": " << e.samples;
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

std::string Report::NotesJson() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << notes_[i].first << "\": \"";
    for (const char c : notes_[i].second) {
      if (c == '"' || c == '\\') {
        out << '\\';
      }
      out << (c == '\n' ? ' ' : c);
    }
    out << "\"";
  }
  out << "}";
  return out.str();
}

void Outcome::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(why);
  }
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& error : other.errors) {
    if (errors.size() < 8) {
      errors.push_back(error);
    }
  }
}

void AddWorkCounters(const index::QueryProfile& total, std::size_t queries,
                     Report* report) {
  const double n = static_cast<double>(std::max<std::size_t>(queries, 1));
  const auto per_query = [&](std::uint64_t value) {
    return static_cast<double>(value) / n;
  };
  report->Add("index.nodes_visited", per_query(total.nodes_visited), "count",
              queries);
  report->Add("index.leaves_collected", per_query(total.leaves_collected),
              "count", queries);
  report->Add("index.leaves_abandoned", per_query(total.leaves_abandoned),
              "count", queries);
  report->Add("index.lbd_checked", per_query(total.series_lbd_checked),
              "count", queries);
  report->Add("index.lbd_pruned", per_query(total.series_lbd_pruned), "count",
              queries);
  report->Add("index.ed_computed", per_query(total.series_ed_computed),
              "count", queries);
  report->Add("index.rowq_checked", per_query(total.rowq_checked), "count",
              queries);
  report->Add("index.rowq_pruned", per_query(total.rowq_pruned), "count",
              queries);
  report->Add("index.lbd_prune_ratio", total.SeriesPruningRatio(), "ratio",
              queries);
  report->Add("index.rowq_prune_ratio",
              total.rowq_checked == 0
                  ? 0.0
                  : static_cast<double>(total.rowq_pruned) /
                        static_cast<double>(total.rowq_checked),
              "ratio", queries);
  // The exact sums, so runs at one seed can be compared counter by counter.
  report->Note("work_counters", ProfileFingerprint(total));
}

std::string ProfileFingerprint(const index::QueryProfile& total) {
  std::ostringstream out;
  out << "nodes_visited=" << total.nodes_visited
      << " nodes_pruned=" << total.nodes_pruned
      << " leaves_collected=" << total.leaves_collected
      << " leaves_abandoned=" << total.leaves_abandoned
      << " lbd_checked=" << total.series_lbd_checked
      << " lbd_pruned=" << total.series_lbd_pruned
      << " ed_computed=" << total.series_ed_computed
      << " rowq_checked=" << total.rowq_checked
      << " rowq_pruned=" << total.rowq_pruned;
  return out.str();
}

void CheckCountersRepeat(const index::QueryProfile& first,
                         const index::QueryProfile& second, Outcome* outcome) {
  const std::string a = ProfileFingerprint(first);
  const std::string b = ProfileFingerprint(second);
  ++outcome->attempted;
  if (a != b) {
    outcome->Fail("1-thread work counters differ between two serial builds "
                  "at one seed: [" + a + "] vs [" + b + "]");
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Dataset Head(const Dataset& rows, std::size_t n) {
  Dataset head(rows.length());
  for (std::size_t i = 0; i < std::min(n, rows.size()); ++i) {
    head.Append(rows.row(i));
  }
  return head;
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
}  // namespace sofa
