#!/usr/bin/env bash
# Builds the engine with ThreadSanitizer and runs the concurrency-sensitive
# test binaries: the morsel-driven parallel execution paths, the LLAP cache
# single-flight, the multi-session transactional stress tests, and the
# fault-injection suite (task-attempt retries, straggler speculation, cache
# poisoning defense, and deadline kills all race worker threads on purpose),
# the join matrix (parallel build/probe of the shared flat hash table),
# the observability suite (sharded metric counters under concurrent
# increments and snapshots), and the spill suite (8-executor queries
# growing and spilling against the shared memory governor), and the DML
# suite (UPDATE/DELETE/MERGE reads run morsel workers beside compaction),
# and the aggregate suites (grouping sets and the aggregate reference test
# merge per-worker partial states built on executor threads).
#
# Usage: scripts/run_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DHIVE_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target \
  concurrency_test llap_test parallel_exec_test fault_injection_test obs_test \
  sync_test join_matrix_test spill_test workloads_test dml_test \
  grouping_sets_test agg_reference_test

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

status=0
for t in concurrency_test llap_test parallel_exec_test fault_injection_test obs_test \
    sync_test join_matrix_test spill_test workloads_test dml_test grouping_sets_test \
    agg_reference_test; do
  echo "== TSan: $t"
  if ! "$BUILD_DIR/tests/$t"; then
    echo "== TSan FAILED: $t"
    status=1
  fi
done
exit $status
