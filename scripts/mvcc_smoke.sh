#!/bin/sh
# Snapshot-isolation target: the whole MVCC battery in one command --
# version-chain unit tests, the reader/writer interleaving oracle
# (readers lock-free and never torn), the temporal property batteries
# on the shared op-program runner (tests/props/program.py): plain rows
# and index reads (test_mvcc_props.py) and sibling order in a flat and
# a recursive ordering (test_ordering_props.py), every recorded
# snapshot re-read vs a single-threaded reference model -- with the
# move-and-reparent regression test, the crash workload aimed at commit
# stamps and the prune window (every recovery also checked for single
# all-visible versions under a frozen pin), and the degraded-mode
# snapshot regression tests.
#
# Default: the fast matrices -- some twenty seconds, all of it also on
# in the main test run.  Pass --full to add the extended mvcc_slow
# matrix (more seeds, longer programs; for the orderings a
# rebalance-forcing insert storm under the recorded snapshots).
set -eu
cd "$(dirname "$0")/.."

MARKER="not mvcc_slow and not crash_slow and not stress_slow"
if [ "${1:-}" = "--full" ]; then
    MARKER="not crash_slow and not stress_slow"
    shift
fi
PYTHONPATH=src python -m pytest -q -m "$MARKER" \
    tests/storage/test_mvcc.py \
    tests/stress/test_mvcc_interleaving.py \
    tests/props/test_mvcc_props.py \
    tests/props/test_ordering_props.py \
    tests/core/test_ordering_snapshot.py \
    tests/crash/test_mvcc_crash.py \
    tests/mdm/test_degraded_snapshot.py \
    "$@"
