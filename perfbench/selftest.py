"""Self-tests of the benchmark's own arithmetic and verdict gate.

    python3 perfbench/selftest.py

The last two tests start real workload processes: the ``selfcheck`` suite,
whose fixture fails by design, and ``verify-all`` under a 0.5 s limit.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import sys
import unittest
from contextlib import redirect_stdout

import run
from tracer import SPAN, PairCounter, Tracer
from workloads import EXPECTED, PASS, REPORT, REPORT_MISMATCH, WORKLOADS, Workload, expected_for, wrong_checks

sys.path.insert(0, str(run.SRC))


class FakeClock:
    """A clock that moves only when a test body says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = Tracer(self.clock)

    def test_children_cover_parts_of_a_span(self):
        t = self.tracer
        leaf_b = t.wrap("b", lambda: self.clock.work(2.0))
        leaf_c = t.wrap("c", lambda: self.clock.work(3.0), SPAN)

        def body():
            self.clock.work(1.0)
            leaf_b()
            self.clock.work(1.0)
            leaf_c()
            self.clock.work(3.0)

        t.wrap("a", body, SPAN)()
        self.assertEqual(t.stat("a"), {"calls": 1, "self_s": 5.0, "s": 10.0})
        self.assertEqual(t.stat("b"), {"calls": 1, "self_s": 2.0, "s": 2.0})
        self.assertEqual(t.stat("c"), {"calls": 1, "self_s": 3.0, "s": 3.0})
        # spans carry their parent's id; the hot call b is aggregated under a
        spans = {name: (sid, parent) for sid, parent, name, *_ in t.spans}
        self.assertEqual(spans, {"a": (1, 0), "c": (2, 1)})
        self.assertEqual(t.probes["b"].per_parent, {1: [1, 2.0, 2.0]})

    def test_hot_calls_aggregate_per_enclosing_span(self):
        t = self.tracer
        hot = t.wrap("hot", lambda: self.clock.work(0.5))

        def outer():
            for _ in range(3):
                hot()

        t.wrap("outer", outer, SPAN)()
        hot()
        self.assertEqual(t.probes["hot"].per_parent, {1: [3, 1.5, 1.5], 0: [1, 0.5, 0.5]})
        self.assertEqual(t.stat("hot")["calls"], 4)
        self.assertEqual(t.stat("outer")["self_s"], 0.0)

    def test_recursion_counts_outermost_time_once(self):
        t = self.tracer

        def rec(n):
            self.clock.work(1.0)
            if n:
                traced(n - 1)

        traced = t.wrap("rec", rec)
        traced(2)
        stat = t.stat("rec")
        self.assertEqual(stat["calls"], 3)
        self.assertEqual(stat["s"], 3.0)
        self.assertEqual(stat["self_s"], 3.0)

    def test_exception_leaves_the_stack_balanced(self):
        t = self.tracer

        def boom():
            self.clock.work(1.0)
            raise ValueError

        with self.assertRaises(ValueError):
            t.wrap("boom", boom)()
        t.wrap("after", lambda: self.clock.work(1.0))()
        self.assertEqual(t.probes["after"].per_parent, {0: [1, 1.0, 1.0]})
        self.assertEqual(len(t._stack), 1)


class PairCounterTest(unittest.TestCase):
    def test_distinct_ordered_pairs(self):
        counter = PairCounter()
        for a, b in [(1, 2), (1, 2), (2, 1), ("x", 2), (1, 2)]:
            counter.add(a, b)
        self.assertEqual(counter.calls, 5)
        self.assertEqual(len(counter.pairs), 3)
        self.assertAlmostEqual(counter.ratio(), 3 / 5)

    def test_equal_scalars_are_one_operand(self):
        from qclifford.scalars import qinv, qvar

        counter = PairCounter()
        for _ in range(4):
            counter.add(qinv(), qinv() - qvar())  # fresh but equal objects
        self.assertEqual((counter.calls, len(counter.pairs)), (4, 1))


def report(entries: dict) -> dict:
    return {
        "checks": [
            {"check_id": cid, "status": status, "mismatch": mismatch}
            for cid, (status, mismatch) in entries.items()
        ]
    }


class ComparatorTest(unittest.TestCase):
    def test_table_counts(self):
        statuses = [status for status, _ in EXPECTED.values()]
        self.assertEqual((statuses.count("pass"), statuses.count("report")), (34, 18))
        self.assertEqual(len(expected_for(WORKLOADS["hopf-exact"].suites)), 21)

    def test_exact_match_has_no_wrong_verdict(self):
        self.assertEqual(wrong_checks(EXPECTED, report(EXPECTED)), [])

    def test_each_kind_of_difference_counts(self):
        got = dict(EXPECTED)
        got["ch2.counit_len4"] = ("fail", False)  # status
        got["qgamma.deformed_metric.row_sum"] = REPORT  # mismatch flag
        del got["glq2.termination_len8"]  # missing
        got["glq2.extra"] = PASS  # nobody expected it
        self.assertEqual(
            wrong_checks(EXPECTED, report(got)),
            ["ch2.counit_len4", "glq2.extra", "glq2.termination_len8", "qgamma.deformed_metric.row_sum"],
        )

    def test_no_report_counts_every_expected_check(self):
        table = {"a.x": PASS, "a.y": REPORT_MISMATCH}
        self.assertEqual(wrong_checks(table, None), ["a.x", "a.y"])


class ReportShapeTest(unittest.TestCase):
    workload = WORKLOADS["hopf-exact"]

    def score(self, data: bytes) -> run.Verdicts:
        verdicts = run.Verdicts(self.workload)
        verdicts.score(data)
        return verdicts

    def test_matching_report_has_no_wrong_verdict(self):
        verdicts = self.score(json.dumps(report(expected_for(self.workload.suites))).encode())
        self.assertEqual((verdicts.attempted, verdicts.failed, verdicts.errors), (21, 0, []))
        self.assertTrue(verdicts.correct)

    def test_report_of_another_shape_counts_every_check(self):
        for data in (b"{}", b'{"checks": [{}]}', b'{"checks": {}}', b'{"checks": [{"check_id": 1, "status": "pass"}]}',
                     b"[]", b"not json", b"\xff"):
            with self.subTest(data=data):
                verdicts = self.score(data)
                self.assertEqual((verdicts.attempted, verdicts.failed), (21, 21))
                self.assertFalse(verdicts.correct)
                self.assertEqual(len(verdicts.errors), 1)
                self.assertTrue(verdicts.errors[0].startswith("unreadable report"))


class InvocationTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(run.SCRATCH / "tmp", ignore_errors=True)
        (run.SCRATCH / "tmp").mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(run.SCRATCH / "tmp", ignore_errors=True)

    def test_selfcheck_fixture_counts_one_wrong_verdict(self):
        selfcheck = Workload("selfcheck", ("verify", "--suite", "selfcheck"), ("selfcheck",), 60.0, exit_code=1)
        verdicts = run.Verdicts(selfcheck, {"selfcheck.expected_failure": PASS})
        result = verdicts.repetition("run", 7, deadline=float("inf"))
        self.assertNotIn("error", result)
        self.assertEqual((verdicts.attempted, verdicts.failed), (1, 1))
        self.assertFalse(verdicts.correct)

    def test_tiny_limit_counts_every_check_and_still_reports(self):
        tiny = dataclasses.replace(WORKLOADS["verify-all"], limit_s=0.5)
        with redirect_stdout(io.StringIO()) as out:
            result = run.measure(tiny, 7, 0.0, False, run.load_benchmark())
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], len(EXPECTED))
        self.assertEqual(result["failed"], len(EXPECTED))
        self.assertGreaterEqual(result["metrics"]["wall_s"]["value"], 0.5)
        self.assertIn("timed out", out.getvalue())


if __name__ == "__main__":
    unittest.main()
