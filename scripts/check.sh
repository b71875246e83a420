#!/usr/bin/env bash
# Tier-1 verification: build + full test suite, then the same suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (SARATHI_SANITIZE=ON) in a
# separate build directory. Pass --no-sanitize to skip the sanitizer stage.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=1
if [ "${1:-}" = "--no-sanitize" ]; then
  SANITIZE=0
fi

echo "== tier-1: build + ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure

echo
echo "== fuzz smoke: invariant checker over 100 seeds =="
build/tools/sarathi_fuzz --seeds=100 --repro-out=build/fuzz-repro

echo
echo "== cascade smoke: correlated faults, partitions, metastable recovery =="
build/tools/sarathi_fuzz --seeds=100 --force-cascade --repro-out=build/fuzz-repro
cmake --build build -j --target bench_ext_cascade
build/bench/bench_ext_cascade --quick --selfcheck --jobs=2

echo
echo "== cluster-scale smoke: sharded parallel engine + autoscaled megafleet =="
cmake --build build -j --target bench_ext_cluster_scale
build/bench/bench_ext_cluster_scale --quick --selfcheck --out=build/BENCH_cluster_scale.json

echo
echo "== perfbench smoke: the benchmark builds against src/ and reports correct =="
scripts/perfbench_smoke.sh

if [ "$SANITIZE" = "1" ]; then
  echo
  echo "== tier-1 under ASan + UBSan =="
  cmake -B build-asan -S . -DSARATHI_SANITIZE=ON
  cmake --build build-asan -j
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure
fi

echo "All checks passed."
