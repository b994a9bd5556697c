"""Self-tests of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

They check that the metric names agree with BENCHMARK.json, that a seed
always makes the same inputs, and that a wrong expected value is
counted as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_per_layer_names_match(self):
        declared = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(declared, probes.per_layer_names())

    def test_emitted_names_match_both_ways(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench("cli_cold", trace)
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(emitted, declared)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            first = workloads.make_inputs(workload, 11)
            self.assertEqual(first, workloads.make_inputs(workload, 11))
            self.assertNotEqual(first, workloads.make_inputs(workload, 12))


class Checker(unittest.TestCase):
    def failures(self, workload, inputs, ops, corrupt=None):
        expected = workloads.expected_values(workload, inputs)
        if corrupt:
            corrupt(expected)
        original = workloads.expected_values
        workloads.expected_values = lambda *_: expected
        try:
            record = run.run_pass(ops, hard_end=float("inf"))
            attempted, failed = run.check_passes(workload, inputs, [record])
        finally:
            workloads.expected_values = original
        return attempted, failed

    def test_wrong_expected_value_is_a_failure(self):
        inputs = workloads.make_inputs("kernels_large", 5)
        small = {"exactnum.pfaffian.n8", "exactnum.det.n8", "qlocal.c_bruteforce.n10",
                 "rootsys.defect.gl4_4"}
        ops = [op for op in workloads.kernel_ops(inputs) if op.label in small]
        self.assertEqual(self.failures("kernels_large", inputs, ops), (4, []))

        def wrong_defect(expected):
            expected["rootsys.defect.gl4_4"] += 1
        attempted, failed = self.failures("kernels_large", inputs, ops, wrong_defect)
        self.assertEqual(failed, ["0:rootsys.defect.gl4_4"])
        self.assertGreater(len(failed) / attempted, 0)

        inputs = {"queries": workloads.make_inputs("cli_cold", 5)["queries"][:3]}
        ops = workloads.make_ops("cli_cold", inputs, run.child_env(), str(run.ROOT))
        self.assertEqual(self.failures("cli_cold", inputs, ops), (3, []))

        def wrong_cli(expected):
            label = next(iter(expected))
            expected[label] = {"wrong": expected[label]}
        attempted, failed = self.failures("cli_cold", inputs, ops, wrong_cli)
        self.assertEqual((attempted, len(failed)), (3, 1))

    def test_verify_fail_line_is_a_failure(self):
        expected = workloads.expected_values("verify_default", {})
        lines = [{"check": f"c{i}", "passed": True, "detail": ""} for i in range(20)]
        good = "\n".join(json.dumps(x) for x in lines + [{"passed": 20, "failed": 0}])
        self.assertEqual(workloads.check_pass("verify_default", {"cli.verify": (0, good, "")},
                                              expected), {"cli.verify": True})
        lines[3]["passed"] = False
        bad = "\n".join(json.dumps(x) for x in lines + [{"passed": 20, "failed": 0}])
        self.assertEqual(workloads.check_pass("verify_default", {"cli.verify": (0, bad, "")},
                                              expected), {"cli.verify": False})

    def test_timeout_is_a_failure(self):
        def spin():
            while True:
                pass
        op = workloads.kernel_op("spin", spin)
        record = run.Pass()
        record.outputs["spin"] = op.run(0.2, None)
        self.assertIs(record.outputs["spin"], workloads.TIMEOUT)
        self.assertEqual(workloads.check_pass("kernels_large", record.outputs, {}),
                         {"spin": False})


if __name__ == "__main__":
    unittest.main()
