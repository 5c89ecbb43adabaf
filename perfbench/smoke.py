#!/usr/bin/env python3
"""Smoke check of the benchmark of record.

Runs every workload briefly, untraced and traced, and asserts that the
correctness gate passed, that the last line is the result object, and that
every metric BENCHMARK.json names is printed with its unit (every
end-to-end metric the human report names, too). Run from the root of a
checkout:

    python3 perfbench/smoke.py [--seconds S]
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Reported on every untraced run, though only some are bounded metrics.
REPORT_LINES = ("failed_ratio = ", "latency_tail_ms is p")
SERVE_TIERS = ("hit_p50_ms = ", "miss_p50_ms = ", "edit_p50_ms = ")


def check(spec, workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=900)
    errors = []
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return ["exit code %d: %s" % (p.returncode, p.stderr[-500:])]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correctness gate failed")
    if not result.get("attempted", 0) >= 1:
        errors.append("nothing attempted")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in want}:
        errors.append("metric names differ: %s" %
                      sorted(set(got) ^ {m["name"] for m in want}))
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            errors.append("%s unit %s, want %s" %
                          (m["name"], v.get("unit"), m["unit"]))
        value = v.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s value %r" % (m["name"], value))
        elif not trace and value <= 0:
            errors.append("%s is %r; end-to-end metrics are never 0" %
                          (m["name"], value))
    if not trace:
        report = "\n".join(lines[:-1])
        needed = REPORT_LINES + (SERVE_TIERS
                                 if workload == "serve_session" else ())
        errors += ["report lacks '%s'" % n for n in needed if n not in report]
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check(spec, w["name"], trace, args.seconds)
            print("%-16s trace=%d %s" % (w["name"], trace,
                                         "ok" if not errors else "FAIL"))
            for e in errors:
                print("  " + e)
            failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
