#!/usr/bin/env python3
"""Builds and runs the NAPEL benchmark.

    python3 napelbench/run.py --workload train|dse|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a NAPEL source tree. The first run configures and
builds the library, the `napel` CLI and the `napelbench` program under
.bench_build/ (CMake, RelWithDebInfo), then trains the fixture model the
dse and serve workloads load. Later runs reuse both. The program's output
is passed through; its last line is the JSON result object. The exit
status is the program's: 0 when every output check passed, 1 when one
failed, 2 when the benchmark could not run.

--scale tiny and --corrupt exist for the smoke test
(napelbench/smoke_test.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "napelbench"
DEADLINE_S = 170.0  # every run must end within 180 s
BUILD_DEADLINE_S = 880.0  # the first run of a checkout may take 900 s


def fail(msg):
    print(f"napelbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the sources the benchmark builds; stands in for the
    commit, since a checkout need not be a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "tools", "napelbench")
                   for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def run_logged(cmd, log, timeout):
    with open(log, "ab") as f:
        try:
            r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(map(str, cmd))} (see {log})")
    if r.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"failed: {' '.join(map(str, cmd))} (see {log})")


def build(start):
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log,
                   BUILD_DEADLINE_S - (time.monotonic() - start))
    run_logged(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                "--target", "napelbench", "napel_cli"], log,
               BUILD_DEADLINE_S - (time.monotonic() - start))
    return BUILD / "napelbench", BUILD / "napel"


def ensure_fixture(bench, scale, start):
    """The model and rows the dse and serve workloads load, trained once
    per build with the train workload's configuration."""
    fixture = BUILD / f"fixture-{scale}"
    stamp = fixture / "complete"
    key = f"{bench.stat().st_size}:{bench.stat().st_mtime_ns}"
    if stamp.exists() and stamp.read_text() == key:
        return fixture
    shutil.rmtree(fixture, ignore_errors=True)
    fixture.mkdir(parents=True)
    run_logged([str(bench), "fixture", "--fixture", str(fixture),
                "--scale", scale],
               BUILD / "fixture.log",
               BUILD_DEADLINE_S - (time.monotonic() - start))
    stamp.write_text(key)
    return fixture


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["train", "dse", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["bench", "tiny"], default="bench")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/napel_cli.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"NAPEL sources not found: {ROOT / needed} is missing; "
                 "run from the root of a NAPEL source tree")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    bench, napel = build(start)
    fixture = ensure_fixture(bench, args.scale, start)
    out = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    cmd = [str(bench), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--napel", str(napel),
           "--fixture", str(fixture), "--out", str(out),
           "--scale", args.scale,
           "--commit", source_digest()]
    if args.corrupt:
        cmd.append("--corrupt")
    budget = min(DEADLINE_S, BUILD_DEADLINE_S - (time.monotonic() - start))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {budget:.0f} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"napelbench exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("napelbench printed a malformed result line")
    (out / "result.json").write_text(lines[-1] + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
