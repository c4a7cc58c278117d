#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is explore-hf, serve-hot, ingest-mixed, or all (each in turn). The
first run configures and builds perfbench/ (which builds the sofa
library from src/) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. One workload
then runs: its inputs are generated from --seed, every answer is checked
against brute force, and the full report (every metric by name with its
unit and sample count, the run metadata and notes) is printed. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics, where metrics holds the end_to_end metrics of BENCHMARK.json
with --trace 0 and its per_layer metrics with --trace 1.

Exit status: 0 when the run was correct; 1 when the build failed, the
program failed or timed out, an answer was wrong or a metric is missing;
2 on a usage error.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("explore-hf", "serve-hot", "ingest-mixed")
RESULT_PREFIX = "PERFBENCH_RESULT "
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# The longest --seconds accepted (as in sofa_perfbench): the slowest run,
# traced ingest-mixed with three measured phases of --seconds plus about
# 30 s of setup, checks, restart and ladder, then ends within RUN_TIMEOUT_S.
MAX_SECONDS = 30


def bounded_int(low, high):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low or (high is not None and value > high):
            upper = "" if high is None else f"..{high}"
            raise argparse.ArgumentTypeError(f"{value} is outside {low}{upper}")
        return value

    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        allow_abbrev=False,
        description="Build and run one perfbench workload.",
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=bounded_int(0, None))
    parser.add_argument("--seconds", required=True,
                        type=bounded_int(1, MAX_SECONDS))
    parser.add_argument("--trace", required=True, type=bounded_int(0, 1))
    return parser.parse_args(argv)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_id():
    """The git sha of the checkout, or a digest of its sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for item in files:
            if item.is_file() and "__pycache__" not in item.parts:
                digest.update(str(item.relative_to(ROOT)).encode())
                digest.update(item.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    """Configures (once) and builds the benchmark; the binary or None."""
    if not (build_dir / "Makefile").exists():
        step = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                          check=False).returncode != 0:
            return None
    step = ["cmake", "--build", str(build_dir), "--target", "sofa_perfbench",
            "--parallel", str(os.cpu_count() or 1)]
    if subprocess.run(step, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                      check=False).returncode != 0:
        return None
    binary = build_dir / "sofa_perfbench"
    return binary if binary.exists() else None


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        fields = pathlib.Path("/proc/stat").read_text().split("\n")[0].split()
        values = [int(v) for v in fields[1:]]
        return values[7], sum(values[:8])
    except (OSError, ValueError, IndexError):
        return None


def print_report(result, steal_share):
    print(f"perfbench {result['workload']}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if steal_share is not None:
        # Time the hypervisor ran something else on this machine's CPUs:
        # a run with a high share measured a disturbed machine.
        print(f"cpu_steal_share {steal_share:.4f}")
    print("metadata " + json.dumps(result["metadata"], sort_keys=True))
    for name, metric in result["metrics"].items():
        samples = metric.get("samples")
        count = f"  (n={samples})" if samples else ""
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{count}")
    for key, value in result["notes"].items():
        print(f"  note {key}: {value}")


def run_workload(binary, workload, args, spec, target):
    """Runs one workload, prints its report and result line; exit code."""
    command = [str(binary), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(target / "perfbench-work")]
    env = dict(os.environ, SOFA_GIT_SHA=source_id())
    before = cpu_times()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    after = cpu_times()
    lines = [line for line in run.stdout.splitlines()
             if line.startswith(RESULT_PREFIX)]
    if not lines:
        log(f"{workload} printed no result (exit {run.returncode})")
        return 1
    result = json.loads(lines[-1][len(RESULT_PREFIX):])
    steal_share = None
    if before is not None and after is not None and after[1] > before[1]:
        steal_share = (after[0] - before[0]) / (after[1] - before[1])
    print_report(result, steal_share)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        measured = result["metrics"].get(entry["name"])
        if measured is None or measured["unit"] != entry["unit"]:
            log(f"metric {entry['name']} [{entry['unit']}] missing from "
                f"the {workload} result")
            return 1
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": entry["unit"]}
    correct = bool(result["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    try:
        binary = build(target / "perfbench")
    except subprocess.TimeoutExpired:
        binary = None
    if binary is None:
        log("build failed")
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(binary, workload, args, spec, target)
               for workload in workloads)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
