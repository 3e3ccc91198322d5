"""The exactness gate's self-test: a corrupted reference must fail the run.

Runs the built benchmark binary on small datasets for one second. Build it
first (python3 perfbench/run.py --selftest does both).
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench_yask")


def run(workload, n, corrupt):
    command = [BINARY, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "0", "--n", str(n)]
    if corrupt:
        command.append("--corrupt-reference")
    proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=170)
    return proc.returncode, json.loads(proc.stdout.decode().splitlines()[-1])


@unittest.skipUnless(os.path.exists(BINARY), "benchmark binary not built")
class ExactnessGateTest(unittest.TestCase):

    def check(self, workload, n):
        code, result = run(workload, n, corrupt=False)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

        code, result = run(workload, n, corrupt=True)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_query_cold(self):
        self.check("query_cold", 5000)

    def test_query_hot(self):
        self.check("query_hot", 5000)

    def test_whynot_mix(self):
        self.check("whynot_mix", 3000)


if __name__ == "__main__":
    unittest.main()
