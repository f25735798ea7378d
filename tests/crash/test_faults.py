"""Unit tests for the deterministic fault-injection layer itself."""

import pytest

from repro.errors import RecoveryError
from repro.storage.database import Database
from repro.storage.faults import FaultPlan, SimulatedCrash, fsync_file


@pytest.mark.crash
class TestDurabilityModel:
    def test_synced_bytes_survive_unsynced_lost(self, tmp_path):
        path = str(tmp_path / "f.bin")
        plan = FaultPlan(seed=1, crash_at_sync=2, torn="none")
        handle = plan.opener(path, "wb+")
        handle.write(b"durable")
        handle.fsync()  # sync 1: survives
        handle.write(b" volatile")
        with pytest.raises(SimulatedCrash):
            handle.fsync()  # sync 2: power fails; torn="none" drops pending
        with open(path, "rb") as check:
            assert check.read() == b"durable"

    def test_torn_all_keeps_pending(self, tmp_path):
        path = str(tmp_path / "f.bin")
        plan = FaultPlan(seed=1, crash_at_sync=1, torn="all")
        handle = plan.opener(path, "wb+")
        handle.write(b"abc")
        handle.write(b"def")
        with pytest.raises(SimulatedCrash):
            handle.fsync()
        with open(path, "rb") as check:
            assert check.read() == b"abcdef"

    def test_torn_random_is_a_prefix_and_deterministic(self, tmp_path):
        def run(name):
            sub = tmp_path / name
            sub.mkdir()
            path = str(sub / "f.bin")
            plan = FaultPlan(seed=7, crash_at_sync=1, torn="random")
            handle = plan.opener(path, "wb+")
            handle.write(b"0123456789" * 4)
            with pytest.raises(SimulatedCrash):
                handle.fsync()
            with open(path, "rb") as check:
                return check.read()

        first, second = run("a"), run("b")
        assert first == second  # same seed, same torn boundary
        assert (b"0123456789" * 4).startswith(first)

    def test_crash_at_write(self, tmp_path):
        path = str(tmp_path / "f.bin")
        plan = FaultPlan(seed=3, crash_at_write=2, torn="all")
        handle = plan.opener(path, "wb+")
        handle.write(b"aa")
        with pytest.raises(SimulatedCrash):
            handle.write(b"bb")
        with open(path, "rb") as check:
            assert check.read() == b"aabb"  # torn="all": everything landed

    def test_overwrite_at_offset_respects_sync_boundary(self, tmp_path):
        path = str(tmp_path / "f.bin")
        plan = FaultPlan(seed=5, crash_at_sync=2, torn="none")
        handle = plan.opener(path, "wb+")
        handle.write(b"AAAABBBB")
        handle.fsync()
        handle.seek(4)
        handle.write(b"XXXX")  # un-synced overwrite
        with pytest.raises(SimulatedCrash):
            handle.fsync()
        with open(path, "rb") as check:
            assert check.read() == b"AAAABBBB"

    def test_truncate_is_rolled_back_with_pending(self, tmp_path):
        path = str(tmp_path / "f.bin")
        plan = FaultPlan(seed=5, crash_at_sync=2, torn="all")
        handle = plan.opener(path, "wb+")
        handle.write(b"abcdef")
        handle.fsync()
        handle.truncate(3)
        with pytest.raises(SimulatedCrash):
            handle.fsync()
        with open(path, "rb") as check:
            assert check.read() == b"abc"  # torn="all": the truncate landed

    def test_crash_rolls_back_every_open_file(self, tmp_path):
        plan = FaultPlan(seed=9, crash_at_sync=1, torn="none")
        first = plan.opener(str(tmp_path / "one.bin"), "wb+")
        second = plan.opener(str(tmp_path / "two.bin"), "wb+")
        first.write(b"one")
        second.write(b"two")
        with pytest.raises(SimulatedCrash):
            first.fsync()
        for name in ("one.bin", "two.bin"):
            with open(str(tmp_path / name), "rb") as check:
                assert check.read() == b""

    def test_operations_after_crash_raise(self, tmp_path):
        path = str(tmp_path / "f.bin")
        plan = FaultPlan(seed=2, crash_at_sync=1)
        handle = plan.opener(path, "wb+")
        handle.write(b"x")
        with pytest.raises(SimulatedCrash):
            handle.fsync()
        with pytest.raises(SimulatedCrash):
            handle.write(b"y")
        with pytest.raises(SimulatedCrash):
            handle.read()
        handle.close()  # close is always safe (cleanup paths run post-crash)


@pytest.mark.crash
class TestReadFaults:
    def test_short_read(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as handle:
            handle.write(b"0123456789")
        plan = FaultPlan(short_reads={1: 4})
        handle = plan.opener(path, "rb")
        assert handle.read() == b"0123"      # injected short read
        assert handle.read() == b"456789"    # cursor continued correctly
        handle.close()

    def test_bit_flip_on_read_path_only(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as handle:
            handle.write(b"hello")
        plan = FaultPlan(bit_flips=[("f.bin", 1, 0xFF)])
        handle = plan.opener(path, "rb")
        corrupted = handle.read()
        handle.close()
        assert corrupted == b"h" + bytes([ord("e") ^ 0xFF]) + b"llo"
        with open(path, "rb") as check:
            assert check.read() == b"hello"  # the platter is untouched

    @pytest.mark.parametrize("fault", [
        {"short_reads": {1: 100}},  # read 1 of an open is the image's
        {"bit_flips": [("image.mdm", 100, 0x10)]},
    ], ids=["short-read", "bit-flip"])
    def test_a_damaged_image_read_fails_the_open_loudly(self, tmp_path, fault):
        path = str(tmp_path / "db")
        with Database(path) as db:
            db.create_table("t", [("v", "integer")])
            db.bulk_ingest("t", [{"v": i} for i in range(50)])
            db.checkpoint()
        with pytest.raises(RecoveryError, match="image"):
            Database(path, opener=FaultPlan(**fault).opener)
        with Database(path) as db:  # the file itself is whole
            assert len(db.table("t")) == 50


@pytest.mark.crash
class TestFsyncHelper:
    def test_plain_files_fsync(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with open(path, "wb") as handle:
            handle.write(b"data")
            fsync_file(handle)  # flush + os.fsync path
        with open(path, "rb") as check:
            assert check.read() == b"data"

    def test_counts_syncpoints_across_files(self, tmp_path):
        plan = FaultPlan()
        first = plan.opener(str(tmp_path / "a.bin"), "wb+")
        second = plan.opener(str(tmp_path / "b.bin"), "wb+")
        fsync_file(first)
        fsync_file(second)
        fsync_file(first)
        assert plan.sync_count == 3
        first.close()
        second.close()

    def test_binary_mode_required(self, tmp_path):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.opener(str(tmp_path / "f.txt"), "w")
