#!/usr/bin/env python3
"""Smoke test of the NAPEL benchmark itself.

    python3 napelbench/smoke_test.py

Runs every workload (those of BENCHMARK.json and `serve`) at the tiny
problem scale with a short budget, plain and traced, and asserts that the
last output line is a well-formed result that names every metric of
BENCHMARK.json with its unit and passed its output checks. Then runs each workload with --corrupt, which damages one
output on purpose, and asserts that the check catches it: exit status 1
and "correct": false. Exits 0 when all of that holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "3", "--trace", str(trace),
           "--scale", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in sorted({x["name"] for x in spec["workloads"]} | {"serve"}):
        for trace in (0, 1):
            r, result = run(w, trace)
            tag = f"{w} --trace {trace}"
            if r.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {r.returncode}\n{r.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={result.get('correct')} "
                                f"attempted={result.get('attempted')}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, "
                                f"wrong units {units}")
            print(f"ok   {tag}: {len(got)} metrics", flush=True)
        r, result = run(w, 0, corrupt=True)
        if r.returncode != 1 or result is None or result.get("correct") is not False:
            problems.append(f"{w} --corrupt: exit {r.returncode}, result "
                            f"{None if result is None else result.get('correct')}")
        else:
            print(f"ok   {w} --corrupt: check failed as it should", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
