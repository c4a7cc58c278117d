#!/usr/bin/env python3
"""Perf-baseline gate: diff two bench --stats-json dumps.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [options]

Understands both dump schemas the benches emit:

  * the registry schema ({"metrics": [...]}) written by
    service_throughput / ingest_throughput and fetched over the wire by
    net_throughput — one object per instrument with "type" of
    counter/gauge/histogram;
  * the rowq sweep schema ({"rowq_ablation": [...]}) written by
    ablation_pruning_power — one object per dataset with pruning-power
    and bytes-touched numbers.

Both schemas may lead with a "metadata" object ({"bench", "git_sha",
"dispatch", "hardware_threads", ...run params}). The gate refuses
apples-to-oranges comparisons: a different bench or different run
parameters is an error; a different ISA dispatch tier skips the whole
comparison with a warning (exit 0), because neither timings nor
FP-order-dependent pruning counts are comparable across kernels. A
different machine size (hardware_threads) skips the registry checks
and keeps the rowq sweep gated with the same thresholds. The rowq
counts and prune rates are work counts over a fixed query set; they do
move with the core count (a parallel build places series in
thread-timing order, which shifts the pruning counts), but only a
little, and the thresholds are loose. The registry dumps hold timings,
and counters that scale with throughput (ingest_throughput's clients
query for as long as the inserts take), so they are not comparable
across machine sizes.

Gating (thresholds are deliberately generous — CI timing noise is wild;
the gate exists to catch step-change regressions, not 5% drift):

  * counters with at least --min-count events must not move more than
    --counter-threshold-pct in either direction (a deterministic work
    counter that doubled means the engine does different work now);
  * time-valued histograms (name ends in "_ms") must not grow their p99
    by more than --latency-threshold-pct;
  * rowq prune_rate must not drop by more than --prune-threshold-pct
    (relative).

Exit status: 0 = within thresholds (or comparison skipped), 1 =
regression (each offending metric is named), 2 = usage/parse error.
Only the Python standard library is used.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        sys.stderr.write("bench_compare: cannot read %s: %s\n" % (path, error))
        sys.exit(2)


def metric_key(entry):
    """Stable identity of a registry metric: name plus sorted labels."""
    labels = entry.get("labels", {})
    label_text = ",".join("%s=%s" % (k, labels[k]) for k in sorted(labels))
    return "%s{%s}" % (entry.get("name", "?"), label_text)


def index_metrics(doc):
    return {metric_key(m): m for m in doc.get("metrics", [])}


def rel_change(before, after):
    if before == 0:
        return None  # no meaningful percentage off a zero base
    return 100.0 * (after - before) / before


def check_metadata(base_meta, cur_meta, failures):
    """Returns 'ok', 'rowq-only' (machine size differs: gate only the
    rowq sweep), 'skip' (incomparable kernels) or 'fail'."""
    if not base_meta or not cur_meta:
        print("note: metadata missing on one side; comparing values only")
        return "ok"
    if base_meta.get("bench") != cur_meta.get("bench"):
        failures.append(
            "metadata: different benches (%s vs %s)"
            % (base_meta.get("bench"), cur_meta.get("bench"))
        )
        return "fail"
    # Run parameters must match — a different workload is not a perf
    # signal. git_sha legitimately differs; machine shape is handled
    # below.
    ignored = {"git_sha", "dispatch", "hardware_threads"}
    for key in sorted(set(base_meta) | set(cur_meta)):
        if key in ignored:
            continue
        if base_meta.get(key) != cur_meta.get(key):
            failures.append(
                "metadata: run parameter %r differs (%r vs %r)"
                % (key, base_meta.get(key), cur_meta.get(key))
            )
    if failures:
        return "fail"
    if base_meta.get("dispatch") != cur_meta.get("dispatch"):
        print(
            "SKIPPED: ISA dispatch tier differs (%s vs %s) — runs are not "
            "comparable" % (base_meta.get("dispatch"), cur_meta.get("dispatch"))
        )
        return "skip"
    if base_meta.get("hardware_threads") != cur_meta.get("hardware_threads"):
        print(
            "note: machine size differs (%s vs %s hardware threads) — "
            "registry checks skipped, rowq counts still gated"
            % (base_meta.get("hardware_threads"),
               cur_meta.get("hardware_threads"))
        )
        return "rowq-only"
    return "ok"


def compare_registry(base, cur, args, failures):
    base_metrics = index_metrics(base)
    cur_metrics = index_metrics(cur)
    compared = 0
    for key in sorted(set(base_metrics) & set(cur_metrics)):
        b, c = base_metrics[key], cur_metrics[key]
        kind = b.get("type")
        if kind != c.get("type"):
            failures.append("%s: kind changed (%s -> %s)" % (key, kind, c.get("type")))
            continue
        if kind == "counter":
            before, after = b.get("value", 0), c.get("value", 0)
            if max(before, after) < args.min_count:
                continue  # 0-vs-3 noise, not a signal
            change = rel_change(before, after)
            compared += 1
            if change is not None and abs(change) > args.counter_threshold_pct:
                failures.append(
                    "%s: counter moved %+.1f%% (%s -> %s, threshold ±%.0f%%)"
                    % (key, change, before, after, args.counter_threshold_pct)
                )
        elif kind == "histogram":
            if not b.get("name", key).endswith("_ms") and not key.split("{")[0].endswith("_ms"):
                continue  # cycles/instructions etc. are machine-bound
            if min(b.get("count", 0), c.get("count", 0)) < args.min_count:
                continue
            before, after = b.get("p99", 0.0), c.get("p99", 0.0)
            change = rel_change(before, after)
            compared += 1
            if change is not None and change > args.latency_threshold_pct:
                failures.append(
                    "%s: p99 grew %+.1f%% (%.4g -> %.4g ms, threshold +%.0f%%)"
                    % (key, change, before, after, args.latency_threshold_pct)
                )
    only_base = sorted(set(base_metrics) - set(cur_metrics))
    if only_base:
        failures.append(
            "metrics disappeared from the current run: %s" % ", ".join(only_base)
        )
    print(
        "registry compare: %d shared metrics, %d gated, %d only-in-current"
        % (len(set(base_metrics) & set(cur_metrics)), compared,
           len(set(cur_metrics) - set(base_metrics)))
    )


def compare_rowq(base, cur, args, failures):
    base_rows = {row.get("dataset"): row for row in base.get("rowq_ablation", [])}
    cur_rows = {row.get("dataset"): row for row in cur.get("rowq_ablation", [])}
    for name in sorted(set(base_rows) & set(cur_rows)):
        b, c = base_rows[name], cur_rows[name]
        before, after = b.get("prune_rate", 0.0), c.get("prune_rate", 0.0)
        change = rel_change(before, after)
        if change is not None and change < -args.prune_threshold_pct:
            failures.append(
                "rowq[%s]: prune_rate fell %.1f%% (%.4f -> %.4f, threshold -%.0f%%)"
                % (name, change, before, after, args.prune_threshold_pct)
            )
        before, after = b.get("rowq_checked", 0), c.get("rowq_checked", 0)
        change = rel_change(before, after)
        if change is not None and abs(change) > args.counter_threshold_pct:
            failures.append(
                "rowq[%s]: rowq_checked moved %+.1f%% (%s -> %s)"
                % (name, change, before, after)
            )
    missing = sorted(set(base_rows) - set(cur_rows))
    if missing:
        failures.append("rowq datasets disappeared: %s" % ", ".join(missing))
    print(
        "rowq compare: %d shared datasets" % len(set(base_rows) & set(cur_rows))
    )


def main():
    parser = argparse.ArgumentParser(
        description="diff two bench --stats-json dumps and gate on regressions"
    )
    parser.add_argument("baseline", help="baseline stats JSON")
    parser.add_argument("current", help="current stats JSON")
    parser.add_argument(
        "--counter-threshold-pct", type=float, default=75.0,
        help="max |relative change| of a counter (default %(default)s%%)",
    )
    parser.add_argument(
        "--latency-threshold-pct", type=float, default=900.0,
        help="max p99 growth of *_ms histograms (default %(default)s%%)",
    )
    parser.add_argument(
        "--prune-threshold-pct", type=float, default=25.0,
        help="max relative prune_rate drop (default %(default)s%%)",
    )
    parser.add_argument(
        "--min-count", type=float, default=16,
        help="ignore counters/histograms below this many events "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--ignore-metadata", action="store_true",
        help="compare values even when the run metadata disagrees",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failures = []

    gate_registry = True
    if not args.ignore_metadata:
        verdict = check_metadata(base.get("metadata"), cur.get("metadata"), failures)
        if verdict == "skip":
            return 0
        if verdict == "fail":
            for failure in failures:
                print("FAIL: %s" % failure)
            return 1
        gate_registry = verdict == "ok"

    if gate_registry and ("metrics" in base or "metrics" in cur):
        compare_registry(base, cur, args, failures)
    if "rowq_ablation" in base or "rowq_ablation" in cur:
        compare_rowq(base, cur, args, failures)
    if "metrics" not in base and "rowq_ablation" not in base:
        sys.stderr.write("bench_compare: %s has no recognized schema\n" % args.baseline)
        return 2

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        print("%d metric(s) regressed beyond thresholds" % len(failures))
        return 1
    print("OK: within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
