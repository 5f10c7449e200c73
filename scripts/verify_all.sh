#!/usr/bin/env bash
# The whole verification ladder in one command, cheapest rung first:
#
#   1. lint                 — hivelint self-test + all four passes over src/
#                             (scripts/run_lint.sh; sub-second, fails fast
#                             before the full build is even attempted)
#   2. build + ctest        — unit/integration suites, the lock-order
#                             detector (on by default), and the same lint
#                             checks as labeled ctest targets (-L lint)
#   3. TSan                 — data races on the concurrency-sensitive suites
#   4. ASan + UBSan         — heap misuse, leaks, undefined behavior
#   5. spill matrix         — budget ladder byte-identity + low-memory
#                             fault sweep (scripts/run_spill_matrix.sh)
#   6. join + spill benches — morsel-parallel join scaling (BENCH_join.json)
#                             and spill degradation (BENCH_spill.json)
#   7. concurrency bench    — many-session admission-control smoke; fails
#                             unless every submitted query is accounted for
#                             (BENCH_concurrency.json must report "lost": 0)
#   8. benchmark smoke      — builds the repository benchmark into the
#                             git-ignored .bench_build/ and runs its own
#                             test (python3 hivebench/run.py --smoke)
#
# (Under a Clang toolchain, step 1's build also runs the -Wthread-safety
# static analysis against the annotations in common/sync.h.)
#
# Usage: scripts/verify_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==== [1/8] lint (hivelint self-test + src/) ===="
scripts/run_lint.sh

echo "==== [2/8] build + ctest ===="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==== [3/8] ThreadSanitizer ===="
scripts/run_tsan.sh

echo "==== [4/8] ASan + UBSan ===="
scripts/run_asan_ubsan.sh

echo "==== [5/8] spill matrix ===="
scripts/run_spill_matrix.sh

echo "==== [6/8] join + spill benches ===="
build/bench/bench_join
test -s BENCH_join.json
build/bench/bench_spill
test -s BENCH_spill.json

echo "==== [7/8] concurrency bench (no lost queries) ===="
build/bench/bench_concurrency --smoke
test -s BENCH_concurrency.json
grep -q '"lost": 0' BENCH_concurrency.json

echo "==== [8/8] benchmark smoke ===="
python3 hivebench/run.py --smoke

echo "==== verify_all: all rungs passed ===="
