"""Crash battery for MVCC: commit stamping and version pruning die well.

The one workload (``tests/crash/oracle.py``), its crashes aimed at the
barriers where versions are made and unmade; every recovery is checked
through every lens of ``verify_recovery`` -- here the one that matters
is that recovered rows hold no version chain (each is its rowid's one
version, visible to every snapshot, with no ghost of pre-crash chains)
and that a snapshot pinned on the recovered database stays frozen
across a post-recovery commit:

* the **commit-stamp barrier** -- the flush that publishes a
  transaction's commit LSN: a torn tail there decides atomically
  whether the whole transaction exists, never half-stamped;
* the **checkpoint barriers** that bracket version pruning: a crash
  mid-prune must lose no committed row and resurrect no dead version.
"""

import pytest

from tests.crash.oracle import crash_and_verify, probe, run_workload

pytestmark = pytest.mark.crash


# Seeds beyond ``test_crash_oracle.SEEDS``, whose every barrier that
# matrix crashes at already.
@pytest.mark.parametrize("seed", [20, 21, 22])
def test_crash_at_commit_stamp_barrier(tmp_path, seed):
    _, workload = probe(tmp_path / "probe", run_workload(seed), seed)
    assert workload.marks["commit"], "schedule produced no explicit commits"
    for at in sorted({syncs + 1 for syncs, _ in workload.marks["commit"]}):
        crash_and_verify(tmp_path / ("crash-%d" % at), seed, at)


@pytest.mark.parametrize("seed", [20, 23, 25])
def test_crash_inside_checkpoint_prune_window(tmp_path, seed):
    """Crash on each durability barrier inside checkpoint (the window
    where dead versions are pruned and the WAL truncated)."""
    _, workload = probe(tmp_path / "probe", run_workload(seed), seed)
    assert workload.marks["checkpoint"], "schedule produced no checkpoints"
    for before, after in zip(workload.marks["checkpoint"],
                             workload.marks["checkpointed"]):
        for at in range(before[0] + 1, after[0] + 1):
            crash_and_verify(tmp_path / ("crash-%d" % at), seed, at)
