"""The seeded concurrency stress matrix (see tests/stress/harness.py).

Every schedule must leave the database with exactly-once committed
effects, intact ordering invariants, and only service-layer errors.
The fast matrix runs in the default test selection; the extended one
is opt-in via ``scripts/stress_smoke.sh --full`` or ``-m stress_slow``.
"""

import pytest

from tests.stress.harness import StressHarness, run_stress

pytestmark = pytest.mark.stress

FAST_SEEDS = list(range(8))


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_seeded_stress_schedule(seed):
    stats = run_stress(seed, threads=4, ops_per_worker=10)
    # The blocker provably parked at least one session on the lock
    # table, and work still committed; verify() already checked the
    # exactly-once ledger and the ordering invariants.
    assert stats["lock_waits"] > 0
    assert stats["commits"] > 0
    assert not stats["degraded"]


def test_matrix_exercises_wait_die_retries():
    """Across high-contention seeds, wait-die conflicts actually fire.

    No interleaving of the workers guarantees a die, so each run plants
    one (``StressHarness.plant_wait_die``); six writers stampeding three
    shared tables behind the blocker add theirs.  The statistics must
    count at least one abort and retry in the bundle.
    """
    conflicts = 0
    for seed in (101, 202, 303):
        harness = StressHarness(
            seed, threads=6, ops_per_worker=12, max_concurrent=6
        )
        harness.plant_wait_die()
        stats = harness.run().verify()
        conflicts += (
            stats["retries"]
            + stats["deadlock_aborts"]
            + stats["retry_exhausted"]
            + stats["lock_timeouts"]
        )
    assert conflicts > 0


@pytest.mark.stress_slow
@pytest.mark.parametrize("seed", range(100, 116))
def test_extended_stress_matrix(seed):
    stats = run_stress(
        seed, threads=6, ops_per_worker=25, blocker_pulses=40
    )
    assert stats["lock_waits"] > 0
    assert stats["commits"] > 0
