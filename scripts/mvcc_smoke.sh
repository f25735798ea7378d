#!/bin/sh
# Snapshot-isolation target: the whole MVCC battery in one command --
# version-chain unit tests, the reader/writer interleaving oracle
# (readers lock-free and never torn), the temporal property battery
# (every recorded snapshot re-read vs a single-threaded reference
# model), the temporal ordering battery (the same for sibling order:
# every reader of an ordering and the order-range retrieves, re-read at
# every recorded snapshot vs a list model) with its move-and-reparent
# regression test, the commit-stamp/prune crash matrix, and the
# degraded-mode snapshot regression tests.
#
# Default: the fast matrices -- some ten seconds, all of it also on in
# the main test run.  Pass --full to add the extended mvcc_slow matrix
# (more seeds, more threads, longer programs; for the orderings a
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
