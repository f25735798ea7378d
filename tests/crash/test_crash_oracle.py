"""Crash-consistency oracle: recovery is correct at every barrier.

For each seed a probe runs the one workload (``tests/crash/oracle.py``)
to the end and counts its durability barriers -- commit flushes,
checkpoint image/roots syncs, text DDL, the posting stream of
``close()``; then one schedule per barrier replays the same workload
and kills the "machine" there, with a seeded-random torn tail of
un-synced bytes.  Every recovery is checked through every lens of
``verify_recovery``: an acceptable state (the last acknowledged commit,
or -- when the crash hit a commit point -- all of the one in flight),
ordering invariants, index == rebuild-from-rows, single all-visible
versions under a frozen pin, exact text queries.
"""

import pytest

from tests.crash.oracle import (
    every_barrier,
    hold_a_transaction_open_across_checkpoints,
)

pytestmark = pytest.mark.crash

#: The fast, always-on matrix -- as many seeds as the oracle, MVCC and
#: text-index matrices it replaced ran between them; extended seeds live
#: under -m crash_slow.
SEEDS = list(range(20))
SLOW_SEEDS = list(range(20, 36))

#: The acceptance floor for the fast matrix, which every seed carries
#: its share of: the probe that counts a seed's schedules runs once.
SCHEDULE_FLOOR = 200


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_at_every_syncpoint(tmp_path, seed):
    assert every_barrier(tmp_path, seed) >= SCHEDULE_FLOOR / len(SEEDS)


@pytest.mark.parametrize("torn", ["all", "none"])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_torn_extremes(tmp_path, seed, torn):
    """Keep-everything and lose-everything tails both recover cleanly."""
    every_barrier(tmp_path, seed, step=3, torn=torn)


@pytest.mark.crash_slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_extended_seed_matrix(tmp_path, seed):
    every_barrier(tmp_path, seed)


@pytest.mark.crash_slow
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_crash_at_every_syncpoint_with_a_transaction_open_across_checkpoints(
    tmp_path, seed
):
    """Every checkpoint of the workload runs beside another thread's
    open transaction, which must stay out of the image and must not be
    waited for."""
    every_barrier(tmp_path, seed, beside=hold_a_transaction_open_across_checkpoints)


@pytest.mark.crash_slow
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_crash_at_write_granularity(tmp_path, seed):
    """Crash between syncpoints too: power fails right after the Nth
    write call, with a torn tail of everything un-synced."""
    assert every_barrier(tmp_path, seed, step=5, unit="write") > 50
