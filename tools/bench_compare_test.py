#!/usr/bin/env python3
"""Tests of tools/bench_compare.py on synthetic stats dumps.

Run directly (python3 tools/bench_compare_test.py) or through ctest
(bench_compare_test). Only the Python standard library is used.
"""

import copy
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent / "bench_compare.py"

METADATA = {
    "bench": "ablation_pruning_power",
    "git_sha": "aaaa",
    "dispatch": "avx512",
    "hardware_threads": 1,
    "n_series": 1500,
}

ROWQ_DUMP = {
    "metadata": METADATA,
    "rowq_ablation": [
        {"dataset": "SCEDC", "rowq_checked": 3298, "rowq_pruned": 2980,
         "prune_rate": 0.9036},
    ],
}

REGISTRY_DUMP = {
    "metadata": dict(METADATA, bench="service_throughput"),
    "metrics": [
        {"name": "sofa_series_ed_computed_total", "type": "counter",
         "labels": {}, "value": 5000},
        {"name": "sofa_service_latency_ms", "type": "histogram",
         "labels": {}, "count": 400, "p99": 2.0},
    ],
}


class BenchCompareTest(unittest.TestCase):
    def run_compare(self, baseline, current):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base.json", baseline), ("cur.json", current)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, str(SCRIPT)] + paths,
                capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def test_identical_dumps_pass(self):
        for dump in (ROWQ_DUMP, REGISTRY_DUMP):
            code, out = self.run_compare(dump, copy.deepcopy(dump))
            self.assertEqual(code, 0, out)
            self.assertIn("OK: within thresholds", out)

    def test_thread_mismatch_still_gates_rowq_counts(self):
        current = copy.deepcopy(ROWQ_DUMP)
        current["metadata"]["hardware_threads"] = 4
        current["rowq_ablation"][0]["rowq_checked"] = 9000  # +173%
        code, out = self.run_compare(ROWQ_DUMP, current)
        self.assertEqual(code, 1, out)
        self.assertIn("rowq[SCEDC]: rowq_checked moved", out)

    def test_thread_mismatch_skips_registry_checks(self):
        current = copy.deepcopy(REGISTRY_DUMP)
        current["metadata"]["hardware_threads"] = 4
        current["metrics"][0]["value"] = 20000  # +300%
        current["metrics"][1]["p99"] = 200.0
        code, out = self.run_compare(REGISTRY_DUMP, current)
        self.assertEqual(code, 0, out)
        self.assertIn("registry checks skipped", out)
        same_machine = copy.deepcopy(current)
        same_machine["metadata"]["hardware_threads"] = 1
        code, out = self.run_compare(REGISTRY_DUMP, same_machine)
        self.assertEqual(code, 1, out)
        self.assertIn("sofa_series_ed_computed_total", out)
        self.assertIn("p99 grew", out)

    def test_isa_mismatch_skips_everything(self):
        current = copy.deepcopy(ROWQ_DUMP)
        current["metadata"]["dispatch"] = "avx2"
        current["metadata"]["hardware_threads"] = 4
        current["rowq_ablation"][0]["rowq_checked"] = 9000
        code, out = self.run_compare(ROWQ_DUMP, current)
        self.assertEqual(code, 0, out)
        self.assertIn("SKIPPED: ISA dispatch tier differs", out)

    def test_different_run_parameters_fail(self):
        current = copy.deepcopy(ROWQ_DUMP)
        current["metadata"]["n_series"] = 3000
        code, out = self.run_compare(ROWQ_DUMP, current)
        self.assertEqual(code, 1, out)
        self.assertIn("run parameter 'n_series' differs", out)


if __name__ == "__main__":
    unittest.main()
