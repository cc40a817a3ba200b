#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/test_quick.py

For every workload it runs `perfbench/run.py --quick` untraced and traced
and checks that the result line says correct, and that the metrics printed
are exactly BENCHMARK.json's end_to_end (untraced) or per_layer (traced)
names with their units. In quick mode the perfbench binary also checks that
each replay reproduces its workload's report byte for byte, and that the
tab5 report is identical at 1 and 4 workers. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--quick"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no result line")
            if result is not None:
                if not result["correct"] or result["failed"]:
                    problems.append(f"{result['failed']} failed check(s)")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    units = sorted(k for k in got
                                   if k in expected[trace] and
                                   got[k] != expected[trace][k])
                    problems.append(f"metrics differ: missing {missing}, "
                                    f"extra {extra}, unit mismatch {units}")
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print(f"{workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
