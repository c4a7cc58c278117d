// sofa_perfbench — runs one benchmark workload and prints its metrics.
//
//   sofa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Workloads: explore-hf, serve-hot, ingest-mixed (see workloads.h). Every
// input is generated from --seed; every answer is checked against brute
// force. Tracing off measures the end-to-end metrics; tracing on measures
// the per-layer ladder. The last stdout line is
//   PERFBENCH_RESULT {"workload": ..., "metadata": {...}, "correct": ...,
//                     "attempted": N, "failed": N, "metrics": {...},
//                     "notes": {...}}
// Exit status: 0 when every operation succeeded and every answer was
// exact, 1 otherwise, 2 on a usage error.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/fsutil.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace sofa {
namespace perfbench {
namespace {

const char kUsage[] =
    "usage: sofa_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                      [--work-dir DIR]\n"
    "\n"
    "  --workload  explore-hf | serve-hot | ingest-mixed\n"
    "  --seed      workload seed (non-negative integer)\n"
    "  --seconds   measured seconds per phase (1..30)\n"
    "  --trace     0 = end-to-end metrics, 1 = per-layer ladder\n"
    "  --work-dir  scratch directory for data dirs and traces\n"
    "              [.bench_build/perfbench-work]\n"
    "  --help      print this help and exit\n";

bool ParseUnsigned(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

// Accepts `--flag value` and `--flag=value`; anything unknown, repeated or
// malformed is an error, so a typo never silently measures defaults.
bool ParseArgs(int argc, char** argv, RunOptions* options, bool* help,
               std::string* error) {
  bool seen_workload = false, seen_seed = false, seen_seconds = false,
       seen_trace = false, seen_work_dir = false;
  options->work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "--" + name + " needs a value";
      return false;
    }
    const auto once = [&](bool* seen) {
      if (*seen) {
        *error = "--" + name + " given twice";
        return false;
      }
      *seen = true;
      return true;
    };
    std::uint64_t number = 0;
    if (name == "workload") {
      if (!once(&seen_workload)) return false;
      if (value != "explore-hf" && value != "serve-hot" &&
          value != "ingest-mixed") {
        *error = "unknown workload '" + value + "'";
        return false;
      }
      options->workload = value;
    } else if (name == "seed") {
      if (!once(&seen_seed)) return false;
      if (!ParseUnsigned(value, &number)) {
        *error = "--seed must be a non-negative integer, got '" + value + "'";
        return false;
      }
      options->seed = number;
    } else if (name == "seconds") {
      if (!once(&seen_seconds)) return false;
      if (!ParseUnsigned(value, &number) || number < 1 ||
          number > kMaxSeconds) {
        *error = "--seconds must be an integer in 1.." +
                 std::to_string(kMaxSeconds) + ", got '" + value + "'";
        return false;
      }
      options->seconds = static_cast<double>(number);
    } else if (name == "trace") {
      if (!once(&seen_trace)) return false;
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1, got '" + value + "'";
        return false;
      }
      options->trace = value == "1";
    } else if (name == "work-dir") {
      if (!once(&seen_work_dir)) return false;
      if (value.empty()) {
        *error = "--work-dir must not be empty";
        return false;
      }
      options->work_dir = value;
    } else {
      *error = "unknown flag --" + name;
      return false;
    }
  }
  if (!seen_workload || !seen_seed || !seen_seconds || !seen_trace) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench
}  // namespace sofa

int main(int argc, char** argv) {
  using namespace sofa::perfbench;
  RunOptions options;
  bool help = false;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &help, &error)) {
    std::fprintf(stderr, "sofa_perfbench: %s\n\n%s", error.c_str(), kUsage);
    return 2;
  }
  if (help) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (!sofa::MakeDirs(options.work_dir)) {
    std::fprintf(stderr, "sofa_perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 1;
  }

  sofa::ThreadPool pool(sofa::HardwareThreads());
  RunContext ctx(options);
  if (options.workload == "explore-hf") {
    RunExploreHf(&ctx, &pool);
  } else if (options.workload == "serve-hot") {
    RunServeHot(&ctx, &pool);
  } else {
    RunIngestMixed(&ctx, &pool);
  }

  Outcome& outcome = ctx.outcome;
  if (outcome.attempted == 0) {
    outcome.attempted = 1;
    outcome.Fail("nothing was attempted");
  }
  ctx.report.Add("error_rate",
                 static_cast<double>(outcome.failed) /
                     static_cast<double>(outcome.attempted),
                 "ratio", outcome.attempted);
  if (options.trace) {
    const std::string path = options.work_dir + "/traces/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".jsonl";
    if (sofa::MakeDirs(options.work_dir + "/traces") &&
        ctx.spans.WriteJsonLines(path)) {
      ctx.report.Note("trace_file", path);
      ctx.report.Note("trace_spans", std::to_string(ctx.spans.size()));
    } else {
      outcome.Fail("cannot write " + path);
    }
  }
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "sofa_perfbench: FAILED: %s\n", e.c_str());
  }

  std::vector<sofa::bench::BenchParam> params = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", std::to_string(static_cast<long long>(options.seconds))},
      {"trace", options.trace ? "1" : "0"}};
  params.insert(params.end(), ctx.params.begin(), ctx.params.end());
  const bool correct = outcome.failed == 0;
  std::printf(
      "PERFBENCH_RESULT {\"workload\": \"%s\", \"metadata\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"notes\": %s}\n",
      options.workload.c_str(),
      sofa::bench::BenchMetadataJson("perfbench", params).c_str(),
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      ctx.report.MetricsJson().c_str(), ctx.report.NotesJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
