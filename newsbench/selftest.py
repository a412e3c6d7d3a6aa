#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 newsbench/selftest.py

Each workload runs at the sizes in ``workloads.TINY`` (seconds, not
minutes) and is checked for: a passing correctness gate, the same
digest from the same seed, a different publication trace from a
different seed, and every per-layer metric named in BENCHMARK.json
present in the traced output, with the traced run's integrity checks
holding.  A gate that accepts a wrong delivery set is caught too.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import TINY, check, publication_trace, run_once  # noqa: E402

SEED = 3


class WorkloadSelfTest(unittest.TestCase):
    records: dict = {}

    @classmethod
    def setUpClass(cls) -> None:
        cls.records = {}
        for name, shape in TINY.items():
            record = run_once(shape, SEED)
            cls.records[name] = (record, check(shape, record))

    def test_gate_passes(self) -> None:
        for name, (record, result) in self.records.items():
            with self.subTest(workload=name):
                self.assertTrue(result.ok, f"{name}: {result}")
                self.assertGreater(result.correct, 0)
                self.assertEqual(result.published, TINY[name].items)

    def test_same_seed_same_digest(self) -> None:
        for name, shape in TINY.items():
            with self.subTest(workload=name):
                again = check(shape, run_once(shape, SEED))
                self.assertEqual(again.digest, self.records[name][1].digest)

    def test_other_seed_other_trace(self) -> None:
        for name, shape in TINY.items():
            with self.subTest(workload=name):
                self.assertNotEqual(
                    publication_trace(shape, SEED),
                    publication_trace(shape, SEED + 1),
                )

    def test_gate_rejects_wrong_sets(self) -> None:
        shape = TINY["breaking-news"]
        record, result = self.records["breaking-news"]
        item, node, latency = record.deliveries[0]
        saved = list(record.deliveries)
        try:
            record.deliveries.append((item, node, latency))
            self.assertEqual(check(shape, record).duplicates, 1)
            record.deliveries[:] = saved[1:]
            self.assertEqual(check(shape, record).missed, 1)
            subject = record.publishes[item][1]
            stranger = next(
                name for name, subs in zip(record.node_names, record.initial)
                if subject not in subs
            )
            record.deliveries[:] = saved + [(item, stranger, latency)]
            self.assertEqual(check(shape, record).spurious, 1)
        finally:
            record.deliveries[:] = saved

    def test_traced_run_reports_every_layer_metric(self) -> None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        names = [metric["name"] for metric in declared]
        self.assertEqual(names, [name for name, _, _ in PER_LAYER])
        for name, shape in TINY.items():
            with self.subTest(workload=name):
                untraced = self.records[name][1]
                record, result, tracer, metrics, problems = run.traced(
                    shape, SEED, 1.0
                )
                self.assertEqual(problems, [])
                self.assertEqual(result.digest, untraced.digest)
                self.assertEqual(sorted(metrics), sorted(names))


if __name__ == "__main__":
    unittest.main(verbosity=2)
