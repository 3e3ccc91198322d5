"""Tests of perfbench/report.py: the table and the two-set diff."""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import report  # noqa: E402


def record(workload, seed, p50, sha="abc", nproc=4, layer=None):
    return {
        "workload": workload,
        "fingerprint": {"nproc": nproc, "compiler": "GNU 12", "build_type":
                        "RelWithDebInfo", "git_sha": sha, "seed": seed},
        "correct": True, "attempted": 100, "failed": 0, "wrong": 0,
        "end_to_end": {"latency_p50_ms": {"value": p50, "unit": "ms"},
                       "setup_s": {"value": 0.2, "unit": "s"}},
        "details": {"query_p99_ms": {"value": 3 * p50, "unit": "ms"}},
        "per_layer": layer or {},
        "notes": [],
    }


class ReportTest(unittest.TestCase):

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(report.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (1.5, 3.0, 4.5))
        self.assertEqual(report.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_show_prints_every_metric_with_unit(self):
        records = [record("query_cold", s, p) for s, p in ((1, 4.0), (2, 5.0),
                                                            (3, 6.0))]
        records.append(record("query_cold", 4, 5.5, layer={
            "corpus.topk_ms": {"value": 1.5, "unit": "ms"}}))
        out = io.StringIO()
        report.show(records, out)
        text = out.getvalue()
        self.assertIn("latency_p50_ms", text)
        self.assertIn("setup_s", text)
        self.assertIn("query_p99_ms", text)
        self.assertIn("corpus.topk_ms", text)
        self.assertRegex(text, r"latency_p50_ms\s+ms\s+4\s+5\.2500")

    def test_diff_reports_ratio_with_base(self):
        base = [record("query_cold", s, 4.0) for s in (1, 2, 3)]
        new = [record("query_cold", s, 5.0, sha="def") for s in (1, 2, 3)]
        out = io.StringIO()
        report.diff(base, new, out)
        self.assertIn("x1.250 of 4.0000", out.getvalue())
        self.assertNotIn("NOT COMPARABLE", out.getvalue())

    def test_diff_flags_different_hosts(self):
        base = [record("query_cold", 1, 4.0, nproc=4)]
        new = [record("query_cold", 1, 4.0, nproc=8)]
        out = io.StringIO()
        self.assertFalse(report.diff(base, new, out))
        self.assertIn("NOT COMPARABLE", out.getvalue())


if __name__ == "__main__":
    unittest.main()
