#!/bin/sh
# Crash-consistency smoke target.  tests/crash/oracle.py holds the one
# seeded workload (orderings plus a text-indexed table: transactions
# with aborts, auto-commit, bulk_ingest, text-index DDL, checkpoints)
# and the lenses every recovery is checked through (acceptable state,
# ordering invariants, index == rebuild-from-rows, single all-visible
# versions under a frozen pin, exact text queries).  Default, the fast
# matrix -- some thirty seconds, always on in the main test run too:
#
#   test_crash_oracle.py                the workload killed at every
#                                       barrier of 20 seeds (>=200
#                                       schedules), torn-tail extremes
#   test_mvcc_crash.py                  ... aimed at commit stamps and
#                                       the checkpoint's prune window
#   test_text_index_crash.py            ... aimed at text-index DDL
#   test_posting_stream.py              ... at close() and after each
#                                       checkpoint; every refused stream
#   test_redo.py                        the workload live == reopened ==
#                                       replica
#   test_group_commit_crash.py          bulk batches and a shared flush
#                                       killed at every barrier
#   test_commit_path.py, test_checkpoint_beside_writers.py,
#   test_failed_commit.py, test_faults.py, test_wal_checksum.py,
#   test_statement_commit.py            commit-path regressions, the
#                                       fault layer, log checksums, a
#                                       statement as one commit
#
# plus tests/storage/test_deferred_index_upkeep.py (open builds each
# index once); then the size axis: one crash_slow schedule whose
# checkpoint image is at least 2,621,440 bytes.  Pass --full for every
# crash test, crash_slow included (16 extra seeds, per-write crash
# granularity, a transaction held open across every checkpoint, the
# contiguity property at 8 threads).
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
    tests/crash/test_text_index_crash.py::test_crash_at_every_syncpoint_with_a_multi_megabyte_image
