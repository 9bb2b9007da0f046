#!/usr/bin/env bash
# Full verification in four legs:
#   plain  the whole test suite on the plain build (every label: dst, sched,
#          lazy, load, cluster, ...);
#   asan   the whole suite under ASan+UBSan;
#   tsan   the whole suite under TSan;
#   bench  the perf-regression gate on the plain tree, then a build of the
#          perfbench driver with its manifest check (nothing else compiles
#          perfbench/driver, so a src/ API change could break it silently).
# Each sanitizer leg has its own build tree, so switching sanitizers never
# forces a reconfigure of your main build.
#
# The sanitizer legs run a short round of generated DST tapes
# (NEPHELE_DST_ROUNDS=40): the hostile-argument storms are exactly where
# ASan/UBSan/TSan pay off, but the full default round count is too slow
# under instrumentation.
#
# Usage: scripts/check.sh [ctest-args...]
#   e.g. scripts/check.sh -R parallel_clone       (one suite, every test leg)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

run_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [${name}] configure + build ===="
  cmake -B "${dir}" -S . "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target all >/dev/null
  echo "==== [${name}] ctest ===="
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" "${CTEST_ARGS[@]}")
}

CTEST_ARGS=("$@")

run_leg plain build
NEPHELE_DST_ROUNDS=40 run_leg asan build-asan -DNEPHELE_SANITIZE=ON
NEPHELE_DST_ROUNDS=40 run_leg tsan build-tsan -DNEPHELE_TSAN=ON

# The full perf-regression gate on the plain tree: deterministic
# virtual-time figures under the tight band plus host wall-clock micro-ops
# under the loose band (3 attempts), against scripts/bench_baseline.json.
echo "==== [bench] scripts/bench_gate.sh ===="
scripts/bench_gate.sh --build-dir=build

echo "==== [bench] perfbench driver build + manifest check ===="
CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py --check-manifest

echo "==== all four legs passed ===="
