#!/usr/bin/env python3
"""Builds and runs the csdf benchmark of record.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of oneshot_corpus, scale_generated, serve_session, batch_threads
(see perfbench/README.md), or all, which runs each in turn in its own process
and exits non-zero if any run does. The first call configures and builds csdf and the
csdf_perfbench binary with CMake under $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. Build output goes to
stderr. The binary's report goes to stdout; its last line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is the
binary's: 0 only when the correctness gate passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot_corpus", "scale_generated", "serve_session",
             "batch_threads")
# A run's loops stop after --seconds plus an untimed correctness check;
# anything still running after this is stopped as hung.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds csdf_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: no csdf sources at %s/src; run from a checkout" % ROOT,
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "csdf_perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "csdf_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(ROOT, target, "perfbench"))
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 2
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--root", ROOT]
        sys.stdout.flush()
        try:
            rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("error: %s run exceeded %d s" % (workload, RUN_TIMEOUT_S),
                  file=sys.stderr)
            rc = 3
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
