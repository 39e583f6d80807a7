#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the split pipeline.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The first call configures and builds
perfbench/ (the program's libraries from src/ plus the harness) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr. The harness prints per-cell rows, then, as the last line of
stdout, one JSON object with "correct", "attempted", "failed" and
"metrics". --trace 1 prints the per-layer metrics instead of the end-to-end
ones and writes a Chrome trace under .bench_build/perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vapor-perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "out")


def build():
    """Configures (once) and builds the harness. Exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "vapor-perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return BINARY


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["deploy_cold", "steady", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.relpath(OUT, ROOT)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
