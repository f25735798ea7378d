"""Transaction lifecycle over the Database facade."""

import pytest

from repro.errors import TransactionError
from repro.storage.database import Database
from repro.storage.transaction import TransactionState


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("v", "integer")])
    return database


class TestLifecycle:
    def test_commit(self, db):
        with db.begin() as txn:
            db.table("t").insert({"v": 1})
        assert txn.state is TransactionState.COMMITTED
        assert len(db.table("t")) == 1

    def test_context_manager_aborts_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.begin():
                db.table("t").insert({"v": 1})
                raise RuntimeError("boom")
        assert len(db.table("t")) == 0

    def test_abort_restores_update_and_delete(self, db):
        table = db.table("t")
        row = table.insert({"v": 1})  # auto-commit
        txn = db.begin()
        table.update(row.rowid, {"v": 2})
        table.delete(row.rowid)
        txn.abort()
        assert table.get(row.rowid)["v"] == 1

    def test_double_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_record_after_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.record([("insert", "t", None, None)])

    def test_nested_begin_rejected(self, db):
        with db.begin():
            with pytest.raises(TransactionError):
                db.begin()

    def test_new_transaction_after_abort(self, db):
        txn = db.begin()
        txn.abort()
        with db.begin():
            db.table("t").insert({"v": 5})
        assert len(db.table("t")) == 1

    def test_abort_reverse_order(self, db):
        """Interleaved changes to the same row undo correctly."""
        table = db.table("t")
        txn = db.begin()
        row = table.insert({"v": 1})
        table.update(row.rowid, {"v": 2})
        table.update(row.rowid, {"v": 3})
        txn.abort()
        assert table.get(row.rowid) is None
        assert len(table) == 0

    def test_locks_released_after_commit(self, db):
        with db.begin():
            db.write_table("t").insert({"v": 1})
        # A later (younger) transaction can lock immediately.
        with db.begin():
            db.write_table("t").insert({"v": 2})
        assert len(db.table("t")) == 2

    def test_transaction_ids_increase(self, db):
        txn1 = db.begin()
        txn1.commit()
        txn2 = db.begin()
        txn2.commit()
        assert txn2.txn_id > txn1.txn_id
