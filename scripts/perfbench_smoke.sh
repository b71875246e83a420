#!/usr/bin/env bash
# Benchmark smoke: builds perfbench/ against src/ in Release (perfbench/run.py
# does the build) and runs its replica, cluster, fleet and checked workloads
# for one second each. Fails unless each builds, runs and reports
# "correct": true on its last output line, so a src/ change that breaks the
# benchmark's build or its result checks is caught before the benchmark is
# next run. The checked workload covers the invariant checker and the
# allocator under KV pressure; fleet's reference check compares the
# steady-decode run-ahead against the stepwise reference path on an
# autoscaled fleet-day.
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in replica cluster fleet checked; do
  echo "== perfbench $workload =="
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 |
    tail -n 1)
  echo "$result"
  if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' \
      "$result"; then
    echo "perfbench $workload did not report \"correct\": true" >&2
    exit 1
  fi
done
