#!/usr/bin/env python3
"""Client-view benchmark of the replicated KV service.

Usage, from the repository root:

    python3 clientbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 clientbench/run.py --self-test

Builds clientbench/ (the library from src/ plus the harness) in Release
under .bench_build/ on first use, then runs one workload for S measured
seconds. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it,
starting with RESULT, is the full record: machine stamp (nproc,
compiler, build type, git commit, source digest, seed), the workload's
parameters and every metric and counter. Traced runs write their spans
to .bench_out/. --self-test builds and runs the harness's own tests.

Workloads (see clientbench/src/workload.cpp): closed-threads,
open-threads, closed-tcp, sharded-threads.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "clientbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"clientbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "clientbench"


def build(target):
    if not (ROOT / "src" / "smr" / "service.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", target])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")
    return out / target


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the library and harness sources (path and contents)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", PACKAGE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run(command):
    """Runs the command in its own process group, killed on timeout."""
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("clientbench_tests")
        sys.exit(run([str(tests)]))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    binary = build("clientbench")
    sys.stdout.flush()
    sys.exit(run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", args.trace,
                  "--out-dir", str(ROOT / ".bench_out"),
                  "--git-commit", git_commit(), "--source-digest", source_digest()]))


if __name__ == "__main__":
    main()
