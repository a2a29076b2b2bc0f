#!/usr/bin/env python3
"""Closed-loop DCCS query benchmark: builds the program from source, runs
one workload in a JVM and prints its metrics; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Run from the repository root:
  python3 perfbench/run.py --workload small-s --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (and
writes the spans). Workloads and metrics are described in perfbench/README.md.
The JVM heap is -Xmx$SPARK_DRIVER_MEM (2g when unset); it is part of the
recorded environment, and runs with different heaps are not comparable.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import build  # noqa: E402  (the package's build file, next to this one)

JVM_TIMEOUT_S = 170


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    try:
        classpath, source_hash = build.build(root)
        java = build.java()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    results = root / build.OUT_DIR / "results"
    heap = os.environ.get("SPARK_DRIVER_MEM", "2g")
    # ParallelGC: four JVMs running the same GD query had median latencies of
    # 0.65-1.04 s under G1 and 0.91-0.96 s under ParallelGC.
    cmd = [java, f"-Xms{heap}", f"-Xmx{heap}", "-XX:+UseParallelGC", "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(results), "--commit", git_commit(root), "--source-hash", source_hash]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        print(f"perfbench: benchmark JVM exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    if args.trace == 1:
        untraced = results / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["query_s_p50"]["value"]
            traced = result["metrics"]["trace.query_s_p50"]["value"]
            print(f"[perfbench] tracing overhead on query_s_p50: {100 * (traced / base - 1):+.1f}% "
                  f"(traced {traced:.6f} s vs untraced {base:.6f} s, same seed)")
        else:
            print("[perfbench] tracing overhead: run --trace 0 with the same seed first to compare")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
