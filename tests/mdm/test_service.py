"""Unit tests for the MDM session/service layer (repro.mdm.service)."""

import threading
import time

import pytest

from repro.errors import (
    DeadlockError,
    OverloadError,
    ReadOnlyError,
    RetryExhaustedError,
)
from repro.mdm.manager import MusicDataManager
from repro.mdm.service import SERVICE_COUNTERS, AdmissionGate, MdmSession
from repro.obs.metrics import MetricsRegistry
from repro.storage.lock import LockMode


def bare_mdm(**options):
    mdm = MusicDataManager(with_cmn=False, **options)
    mdm.schema.define_entity("NOTE", [("name", "integer"), ("pitch", "integer")])
    return mdm


class TestBackoff:
    def test_same_seed_same_delays(self):
        mdm = bare_mdm()
        first = mdm.connect("a", seed=42)
        second = mdm.connect("b", seed=42)
        delays = [first._backoff_delay(n, None) for n in range(1, 6)]
        assert delays == [second._backoff_delay(n, None) for n in range(1, 6)]

    def test_exponential_with_jitter_within_bounds(self):
        session = bare_mdm().connect("s", seed=0, backoff_base=0.01,
                                     backoff_cap=0.08)
        for attempt in range(1, 8):
            delay = session._backoff_delay(attempt, None)
            ceiling = min(0.08, 0.01 * 2 ** (attempt - 1))
            assert 0.5 * ceiling <= delay < 1.5 * ceiling

    def test_delay_clamped_to_remaining_deadline(self):
        session = bare_mdm().connect("s", seed=0, backoff_base=1.0,
                                     backoff_cap=1.0)
        assert session._backoff_delay(1, 0.002) <= 0.002
        assert session._backoff_delay(1, 0.0) == 0.0

    def test_injected_sleep_records_each_retry(self):
        mdm = bare_mdm()
        locks = mdm.database.transactions.lock_manager
        locks.acquire(0, "entity:NOTE", LockMode.EXCLUSIVE)  # oldest owner
        sleeps = []
        session = mdm.connect(
            "s", seed=9, max_attempts=4,
            backoff_base=0.0001, backoff_cap=0.0002, sleep=sleeps.append,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            session.run(
                lambda m: m.schema.entity_type("NOTE").create(name=1, pitch=1)
            )
        locks.release_all(0)
        assert excinfo.value.attempts == 4
        assert isinstance(excinfo.value.last_error, DeadlockError)
        assert len(sleeps) == 3  # one backoff between each pair of attempts
        assert all(delay >= 0 for delay in sleeps)


class TestAdmissionGate:
    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionGate(limit=0)

    def test_acquire_release_tracks_active(self):
        gate = AdmissionGate(limit=2, queue_timeout=0.01)
        gate.acquire()
        gate.acquire()
        assert gate.active == 2
        with pytest.raises(OverloadError):
            gate.acquire()
        gate.release()
        gate.acquire()  # a freed slot is reusable
        assert gate.active == 2
        gate.release()
        gate.release()
        assert gate.active == 0

    def test_expired_deadline_sheds_without_queueing(self):
        registry = MetricsRegistry()
        gate = AdmissionGate(limit=1, queue_timeout=10.0, metrics=registry)
        gate.acquire()
        start = time.monotonic()
        with pytest.raises(OverloadError):
            gate.acquire(deadline=time.monotonic() - 1.0)
        assert time.monotonic() - start < 1.0  # not the 10 s queue timeout
        assert registry.value("service.overload_shed") == 1


class TestServiceMetrics:
    def test_counters_are_snapshots(self):
        """``statistics()`` reports each ``service.*`` counter of the
        database's registry by its short name, as a copy."""
        mdm = bare_mdm()
        session = mdm.connect("editor", seed=0)
        for pitch in (60, 62, 64):
            session.run(
                lambda m, p=pitch: m.schema.entity_type("NOTE").create(pitch=p)
            )
        stats = mdm.statistics()
        registry = mdm.database.metrics
        assert {name: stats[name] for name in SERVICE_COUNTERS} == {
            name: registry.value("service." + name) for name in SERVICE_COUNTERS
        }
        assert stats["commits"] == stats["admitted"] == 3
        stats["commits"] = 99  # mutating the copy changes nothing
        assert mdm.statistics()["commits"] == 3


class TestSessionBasics:
    def test_run_commits_and_returns_closure_result(self):
        mdm = bare_mdm()
        session = mdm.connect("editor", seed=0)
        note = session.run(
            lambda m: m.schema.entity_type("NOTE").create(name=5, pitch=67)
        )
        assert note["pitch"] == 67
        assert mdm.statistics()["commits"] == 1

    def test_application_error_aborts_and_propagates(self):
        mdm = bare_mdm()
        session = mdm.connect("editor", seed=0)

        def doomed(m):
            m.schema.entity_type("NOTE").create(name=6, pitch=60)
            raise RuntimeError("client bug")

        with pytest.raises(RuntimeError):
            session.run(doomed)
        assert mdm.database.table("entity:NOTE").select_eq("name", 6) == []
        assert mdm.database.transactions.current() is None
        assert mdm.statistics()["commits"] == 0

    def test_a_failed_pin_leaves_no_limits_on_the_thread(self, monkeypatch):
        mdm = bare_mdm()
        session = mdm.connect("reader", seed=0, default_timeout=5.0)
        transactions = mdm.database.transactions

        def refuse():
            raise RuntimeError("no snapshot")

        monkeypatch.setattr(transactions, "pin_snapshot", refuse)
        with pytest.raises(RuntimeError):
            session.run(lambda m: None, read_only=True, row_budget=3)
        assert session.quel.limits is None
        monkeypatch.undo()
        assert session.run(lambda m: session.quel.limits.row_budget,
                           read_only=True, row_budget=3) == 3
        assert session.quel.limits is None
        assert transactions.current_snapshot() is None

    def test_connect_passes_options_to_the_session(self):
        session = bare_mdm().connect("tuned", max_attempts=2, default_timeout=1.5)
        assert isinstance(session, MdmSession)
        assert session.name == "tuned"
        assert session.max_attempts == 2
        assert session.default_timeout == 1.5


class TestCloseAndDegraded:
    def test_close_is_idempotent(self):
        mdm = bare_mdm()
        mdm.close()
        mdm.close()  # second close is a no-op, not an error

    def test_exit_closes_even_on_error_with_open_transaction(self):
        seen = {}
        with pytest.raises(RuntimeError):
            with bare_mdm() as mdm:
                seen["txn"] = mdm.begin()
                mdm.schema.entity_type("NOTE").create(name=1, pitch=60)
                raise RuntimeError("boom")
        assert mdm._closed
        assert mdm.database.transactions.current() is None
        locks = mdm.database.transactions.lock_manager
        assert locks.locks_held(seen["txn"].txn_id) == {}

    def test_degraded_blocks_writes_serves_reads(self):
        mdm = bare_mdm()
        entity_type = mdm.schema.entity_type("NOTE")
        entity_type.create(name=1, pitch=60)
        mdm.database.enter_degraded(OSError("disk gone"))
        with pytest.raises(ReadOnlyError):
            entity_type.create(name=2, pitch=61)
        assert [row["name"] for row in entity_type.instances()] == [1]
        assert "disk gone" in str(mdm.database.degraded_reason)
        mdm.database.exit_degraded()
        entity_type.create(name=2, pitch=61)
        assert entity_type.count() == 2

    def test_statistics_exposes_robustness_counters(self):
        stats = bare_mdm().statistics()
        for key in (
            "admitted", "commits", "retries", "retry_exhausted",
            "overload_shed", "query_timeouts", "resource_limited",
            "lock_waits", "lock_timeouts", "deadlock_aborts", "degraded",
        ):
            assert key in stats
