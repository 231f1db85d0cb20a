"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a combtiles checkout. Checks that a seed fixes the
operation list, that the checker fails wrong bytes, a traceback, a wrong
exit code and a timeout, that every reported percentile has at least ten
samples beyond it, and that the catalogue, the references and
BENCHMARK.json agree with the harness.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from catalogue import WORKLOADS, all_ops, draw  # noqa: E402

ROOT = Path.cwd()


def _ref(out: bytes, code: int = 0) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}


class DrawTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        for workload in WORKLOADS:
            self.assertEqual(draw(workload, 7), draw(workload, 7))
            self.assertNotEqual(draw(workload, 7), draw(workload, 8))

    def test_pass_has_enough_samples_for_p90(self):
        for workload in WORKLOADS:
            self.assertGreaterEqual(len(draw(workload, 1)), run.MIN_SAMPLES)

    def test_every_seed_runs_the_same_slots(self):
        for workload, slots in WORKLOADS.items():
            slot_of = {op: slot.name for slot in slots for op in slot.variants}
            counts = {slot.name: slot.count for slot in slots}
            for seed in (1, 2, 3):
                drawn: dict[str, int] = {}
                for op in draw(workload, seed):
                    drawn[slot_of[op]] = drawn.get(slot_of[op], 0) + 1
                self.assertEqual(drawn, counts)


class CheckerTest(unittest.TestCase):
    ref = _ref(b"1,1\n")

    def outcome(self, **kw) -> run.Outcome:
        base = dict(code=0, out=b"1,1\n", err=b"", latency_s=0.1, cpu_s=0.1)
        base.update(kw)
        return run.Outcome(**base)

    def test_exact_answer_passes(self):
        self.assertIsNone(run.failure(self.outcome(), self.ref))

    def test_wrong_bytes(self):
        self.assertEqual(run.failure(self.outcome(out=b"1,2\n"), self.ref), "wrong output")
        self.assertTrue(run.wrong_answer(self.outcome(out=b"1,2\n"), self.ref))

    def test_traceback(self):
        err = b"Traceback (most recent call last):\n  ...\nRecursionError: x\n"
        self.assertEqual(run.failure(self.outcome(code=1, out=b"", err=err), self.ref), "traceback")

    def test_wrong_exit_code(self):
        self.assertIsNotNone(run.failure(self.outcome(code=2), self.ref))
        refusal = _ref(b"", 2)
        self.assertIsNotNone(run.failure(self.outcome(code=1, out=b"", err=b"error: x\n"), refusal))
        self.assertIsNone(run.failure(self.outcome(code=2, out=b"", err=b"error: x\n"), refusal))
        self.assertIsNotNone(run.failure(self.outcome(code=2, out=b"", err=b"usage\nerror: x\n"), refusal))

    def test_refused_where_an_answer_is_expected(self):
        self.assertIsNotNone(run.failure(self.outcome(code=1, out=b"", err=b"error: refused\n"), self.ref))

    def test_timeout(self):
        cmd = [sys.executable, "-c", "import time; time.sleep(30)"]
        outcome = run.run_process(cmd, dict(os.environ), ROOT, timeout=0.5)
        self.assertTrue(outcome.timed_out)
        self.assertLess(outcome.latency_s, 10)
        self.assertEqual(run.failure(outcome, self.ref), "timeout")


class PercentileTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for n in range(run.MIN_SAMPLES, 2001):
            samples = list(range(n))
            for p in (0.5, 0.9):
                value = run.percentile(samples, p)
                self.assertGreaterEqual(sum(1 for s in samples if s > value), 10)
                self.assertEqual(value, samples[math.ceil(p * n) - 1])

    def test_refuses_thin_tail(self):
        with self.assertRaises(ValueError):
            run.percentile(list(range(99)), 0.9)


class ConsistencyTest(unittest.TestCase):
    def test_every_operation_has_a_reference(self):
        refs = json.loads((HERE / "references.json").read_text())
        missing = [" ".join(op) for op in all_ops() if " ".join(op) not in refs]
        self.assertEqual(missing, [])
        for ref in refs.values():
            self.assertIn(ref["exit"], (0, 1, 2))
            self.assertTrue(ref["validated_by"])

    def test_benchmark_json_matches_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_checks_match_the_registry(self):
        sys.path.insert(0, str(ROOT / "src"))
        from combtiles.identities import check_names

        self.assertEqual(list(run.CHECKS), check_names())


if __name__ == "__main__":
    unittest.main()
