"""Self-test of the benchmark at tiny scale (one-second runs).

Runs every workload twice untraced and twice traced, and checks that every
metric BENCHMARK.json names is emitted with its unit and that the counts
which do not depend on the machine repeat exactly.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATING = {0: ["cover_vertices"],
             1: ["dcc.calls", "preprocess.rounds", "search.dcc_calls"]}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-2000:]
    return json.loads(p.stdout.strip().split("\n")[-1])


class SelfTest(unittest.TestCase):

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    a, b = run(w["name"], trace), run(w["name"], trace)
                    for r in (a, b):
                        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                        self.assertGreaterEqual(r["attempted"], 1)
                        self.assertEqual(set(r["metrics"]), {m["name"] for m in names})
                        for m in names:
                            got = r["metrics"][m["name"]]
                            self.assertEqual(got["unit"], m["unit"], m["name"])
                            self.assertIsInstance(got["value"], (int, float), m["name"])
                    for name in REPEATING[trace]:
                        self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
