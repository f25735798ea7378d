#!/bin/sh
# Crash-consistency smoke target: replay the seeded workload and kill
# the simulated machine at every durability barrier (fsync), then
# verify recovery against the oracle (tests/crash/oracle.py).
#
# Default: the fast matrix (8 seeds, >=200 crash schedules, the
# WAL-checksum and fault-layer unit tests, and tests/crash/test_redo.py:
# recovery == replica == live, the check that the log's two consumers
# have not drifted) plus the commit-path regressions
#
#   test_commit_path.py                 transactions contiguous, durable
#                                       prefix ends between them (small
#                                       size); begin/abort/read write nothing
#   test_checkpoint_beside_writers.py   open transaction stays out of the
#                                       image; no commit lost to truncation
#   test_failed_commit.py               a commit reported failed does not
#                                       come back after exit_degraded()
#
# and tests/storage/test_deferred_index_upkeep.py: open builds each index
# once (call counts), in the log's DDL order, over an image + log overlap
#
# -- a few seconds, always on in the main test run too -- then the size
# axis: one crash_slow schedule whose table image is ten pager caches
# (~20 s).  Pass --full for the whole extended matrix (16 extra seeds,
# per-write crash granularity, a transaction held open across every
# checkpoint, the contiguity property at 8 threads).
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--full" ]; then
    shift
    PYTHONPATH=src python -m pytest tests/crash -q -m crash "$@"
    exit 0
fi
PYTHONPATH=src python -m pytest tests/crash \
    tests/storage/test_deferred_index_upkeep.py -q -m "crash and not crash_slow" "$@"
PYTHONPATH=src python -m pytest -q -m crash_slow "$@" \
    tests/crash/test_text_index_crash.py::test_crash_at_every_syncpoint_with_image_ten_times_the_cache
