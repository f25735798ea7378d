"""Crash-consistency oracle: recovery is correct at every syncpoint.

For each seed, a probe run counts the workload's durability barriers
(WAL group flushes, checkpoint image/roots syncs); then one schedule
per barrier replays the same workload and kills the "machine" at that
barrier, with a seeded-random torn tail of un-synced bytes.  Recovery
must reproduce exactly the last acknowledged commit (plus, when the
crash hit a commit flush, optionally the in-flight transaction — all
or nothing), and every hierarchical ordering must still satisfy
``check_invariants``.
"""

import pytest

from repro.storage.faults import FaultPlan, SimulatedCrash

from tests.crash.oracle import (
    CrashWorkload,
    hold_a_transaction_open_across_checkpoints,
    prepare,
    verify_recovery,
)

#: The fast, always-on matrix; extended seeds live under -m crash_slow.
SEEDS = list(range(8))
SLOW_SEEDS = list(range(8, 24))

#: The acceptance floor for the fast matrix.
SCHEDULE_FLOOR = 200


def count_syncpoints(tmp_path, seed, name="probe", beside=None):
    """Run the workload to completion, counting durability barriers.

    *beside*, here and in :func:`crash_once`, is a function of the
    workload that sets a second thread up next to it."""
    probe_dir = str(tmp_path / ("%s-%d" % (name, seed)))
    prepare(probe_dir, bystander=beside is not None)
    plan = FaultPlan(seed=seed)
    workload = CrashWorkload(probe_dir, seed, plan)
    if beside is not None:
        beside(workload)
    workload.run()
    workload.close()
    return plan.sync_count


def crash_once(tmp_path, seed, sync_index, torn="random", beside=None):
    """One schedule: crash at *sync_index*, recover, check the oracle."""
    crash_dir = str(tmp_path / ("crash-%d-%d" % (seed, sync_index)))
    prepare(crash_dir, bystander=beside is not None)
    plan = FaultPlan(
        seed=seed * 1009 + sync_index, crash_at_sync=sync_index, torn=torn
    )
    workload = CrashWorkload(crash_dir, seed, plan)
    if beside is not None:
        beside(workload)
    with pytest.raises(SimulatedCrash):
        workload.run()
    acceptable = workload.acceptable_states()
    workload.close()
    verify_recovery(crash_dir, acceptable)


@pytest.mark.crash
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_at_every_syncpoint(tmp_path, seed):
    total = count_syncpoints(tmp_path, seed)
    assert total >= 20, "workload too small to be a meaningful matrix"
    for sync_index in range(1, total + 1):
        crash_once(tmp_path, seed, sync_index)


@pytest.mark.crash
def test_fast_matrix_covers_200_schedules(tmp_path):
    """The always-on matrix satisfies the >=200-schedule acceptance bar."""
    total = sum(count_syncpoints(tmp_path, seed) for seed in SEEDS)
    assert total >= SCHEDULE_FLOOR


@pytest.mark.crash
@pytest.mark.parametrize("torn", ["all", "none"])
def test_torn_extremes(tmp_path, torn):
    """Keep-everything and lose-everything tails both recover cleanly."""
    seed = SEEDS[0]
    total = count_syncpoints(tmp_path, seed, name="probe-%s" % torn)
    for sync_index in range(1, total + 1, 3):
        crash_once(tmp_path, seed, sync_index, torn=torn)


@pytest.mark.crash
@pytest.mark.crash_slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_extended_seed_matrix(tmp_path, seed):
    total = count_syncpoints(tmp_path, seed)
    for sync_index in range(1, total + 1):
        crash_once(tmp_path, seed, sync_index)


@pytest.mark.crash
@pytest.mark.crash_slow
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_crash_at_every_syncpoint_with_a_transaction_open_across_checkpoints(
    tmp_path, seed
):
    """Every checkpoint of the workload runs beside another thread's
    open transaction, which must stay out of the image and must not be
    waited for."""
    beside = hold_a_transaction_open_across_checkpoints
    total = count_syncpoints(tmp_path, seed, beside=beside)
    for sync_index in range(1, total + 1):
        crash_once(tmp_path, seed, sync_index, beside=beside)


@pytest.mark.crash
@pytest.mark.crash_slow
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_crash_at_write_granularity(tmp_path, seed):
    """Crash between syncpoints too: power fails right after the Nth
    write call, with a torn tail of everything un-synced."""
    probe_dir = str(tmp_path / ("wprobe-%d" % seed))
    prepare(probe_dir)
    plan = FaultPlan(seed=seed)
    workload = CrashWorkload(probe_dir, seed, plan)
    workload.run()
    workload.close()
    total_writes = plan.write_count
    assert total_writes > 50
    for write_index in range(1, total_writes + 1, 5):
        crash_dir = str(tmp_path / ("wcrash-%d-%d" % (seed, write_index)))
        prepare(crash_dir)
        plan = FaultPlan(seed=seed * 2003 + write_index,
                         crash_at_write=write_index)
        workload = CrashWorkload(crash_dir, seed, plan)
        with pytest.raises(SimulatedCrash):
            workload.run()
        acceptable = workload.acceptable_states()
        workload.close()
        verify_recovery(crash_dir, acceptable)
