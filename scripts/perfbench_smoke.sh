#!/usr/bin/env bash
# Benchmark smoke: builds perfbench/ against src/ in Release (perfbench/run.py
# does the build) and runs its replica and cluster workloads for one second
# each. Fails unless both build, run and report "correct": true on their last
# output line, so a src/ change that breaks the benchmark's build or its
# result checks is caught before the benchmark is next run.
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in replica cluster; do
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
