#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replica --seed 1 --seconds 10 --trace 0

Workloads: replica, cluster, fleet, fuzz, checked (see perfbench/perfbench.cc).
The perfbench binary and the simulator libraries it links (from src/) are
built in Release mode under $CARGO_TARGET_DIR/perfbench, .bench_build/perfbench
when the variable is unset; later runs rebuild only what changed. Build output
goes to stderr. The binary's stdout passes through unchanged: its last line
is one JSON object with "correct", "attempted", "failed" and "metrics".
With --trace 1 the recorded spans are also written to spans_<workload>.csv
in the build directory.

Exits non-zero without printing a result when the sources are missing, the
build fails, or the binary fails or overruns.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("replica", "cluster", "fleet", "fuzz", "checked")
# Set-up, the reference check, the last operation's overrun and traced
# replays come on top of --seconds (a traced fleet run at --seconds 10 takes
# about 70 s on a 4-core host); anything beyond this margin is a hang.
OVERRUN_MARGIN_S = 150


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(source, "..", "src", "CMakeLists.txt")):
        print("perfbench: the simulator sources (src/) are missing", file=sys.stderr)
        return 1
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build, "-j", jobs]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    command = [os.path.join(build, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(build, "spans_%s.csv" % args.workload)]
    try:
        bench = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=args.seconds + OVERRUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the binary overran and was killed", file=sys.stderr)
        return 1
    if bench.returncode != 0 or not bench.stdout.strip():
        print("perfbench: the binary failed with status %d" % bench.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(bench.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
