"""Crash battery for the trigram text index: maintenance dies well.

The one workload (``tests/crash/oracle.py``) keeps a text index on its
table ``t`` and on the PIECE titles; every recovery is checked through
every lens of ``verify_recovery`` -- here the ones that matter are that
the index recovery built in bulk (registered empty, image and redo rows
installed with upkeep deferred, then one ``insert_many``) agrees
posting-for-posting with one rebuilt row by row off the recovered rows,
and that queries through it are exact.  Aimed here:

* the ``create_text_index`` / ``drop_text_index`` commits (one WAL
  frame each): whichever side of the barrier the crash lands on, the index
  exists exactly as one acceptable state says, and matches the rows;
* the size axis: a checkpoint image of at least 2,621,440 bytes, where
  a checkpoint once lost the whole table.
"""

import os

import pytest

from tests.crash.oracle import crash_and_verify, every_barrier, probe, run_workload

pytestmark = pytest.mark.crash


# Seeds beyond ``test_crash_oracle.SEEDS``, whose every barrier that
# matrix crashes at already.
@pytest.mark.parametrize("seed", [20, 23, 24])
def test_crash_around_text_ddl_barrier(tmp_path, seed):
    """Aim crashes at the create/drop commits' WAL frames."""
    _, workload = probe(tmp_path / "probe", run_workload(seed), seed)
    assert workload.marks["ddl"], "schedule produced no text DDL"
    for at in sorted({
        syncs + offset for syncs, _ in workload.marks["ddl"] for offset in (1, 2)
    }):
        crash_and_verify(tmp_path / ("crash-%d" % at), seed, at)


@pytest.mark.crash_slow
def test_crash_at_every_syncpoint_with_a_multi_megabyte_image(tmp_path):
    """The size axis: the same oracle over a checkpoint image of at
    least 2,621,440 bytes."""
    seed, filler_rows, steps = 10, 8200, 12
    every_barrier(tmp_path, seed, filler_rows=filler_rows, steps=steps)
    image = str(tmp_path / "probe" / "image.mdm")
    assert os.path.exists(image), "schedule took no checkpoint"
    assert os.path.getsize(image) >= 2_621_440
