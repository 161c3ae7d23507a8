#!/usr/bin/env python3
"""Builds the Jackpine benchmark from source and runs one workload.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and scratch files (storage directories,
Chrome traces) to .bench_out. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit status is the
benchmark's: 0 when every answer check passed.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(targets):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve() / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def main(argv):
    selftest = argv == ["--selftest"]
    target = "jpbench_selftest" if selftest else "jpbench"
    build_dir = build([target])
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [str(build_dir / target)]
    if not selftest:
        cmd += argv
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
