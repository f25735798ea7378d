"""Storage-level trigram index tests: maintenance, DDL, durability.

The QUEL batteries cover query semantics; these pin the storage
contract underneath them -- posting maintenance across all nine row
paths, the sound-superset candidate API, text DDL refusal inside
transactions, WAL + sidecar durability, and replica application of the
self-committing TEXT-INDEX records.
"""

import pytest

from repro.errors import StorageError, TransactionError
from repro.storage.database import Database
from repro.text import trigrams
from repro.text.index import TrigramIndex


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "db"))
    database.create_table("t", [("title", "string"), ("v", "integer")])
    yield database
    database.close()


class TestTrigramIndexUnit:
    def test_candidates_matching_intersects_postings(self):
        index = TrigramIndex()
        index.insert("prelude in c", 1)
        index.insert("prelude no 4", 2)
        index.insert("nocturne", 3)
        assert index.candidates_matching("prelude") == {1, 2}
        assert index.candidates_matching("prelude in") == {1}
        assert index.candidates_matching("zzz") == set()

    def test_set_and_bisect_intersections_agree_with_a_posting_walk(self):
        """Survivors meet a comparable posting as a set and a much
        longer one by bisection; both must equal the per-entry loop."""
        index = TrigramIndex()
        values = {}
        for rowid in range(1, 601):
            values[rowid] = "prelude no %d%s" % (
                rowid % 40, " zyx" if rowid % 150 == 0 else ""
            )
        index.insert_many(sorted((v, r) for r, v in values.items()))

        def walk(grams, rowids):
            counts = dict.fromkeys(rowids, 0)
            for gram in grams:
                for rowid in index._posting(gram) or ():
                    if rowid in counts:
                        counts[rowid] += 1
            return counts

        everything = set(values)
        # " zy" holds 4 rowids, "pre" all 600: one query, both rules.
        for query in ("prelude", "prelude no 1", "no 10 zyx", "zyx"):
            grams = trigrams(query)
            lengths = sorted(len(index._posting(g)) for g in grams)
            expected = {
                r for r, n in walk(grams, everything).items() if n == len(grams)
            }
            assert index.candidates_matching(query) == expected, query
            assert list(index.iter_matching(query)) == sorted(expected)
            for rowids in (everything, expected, {7, 150, 300}, set()):
                assert index.overlap_counts(grams, rowids) == walk(
                    grams, rowids
                ), (query, lengths)
        assert len(index._posting(" zy")) * 16 < len(index._posting("pre"))

    def test_iter_matching_reseeks_past_a_rowid(self):
        """The streaming source reads a chunk per call and re-opens the
        merge past the last rowid it saw."""
        index = TrigramIndex()
        for rowid in range(1, 41):
            index.insert(
                "prelude no %d" % rowid if rowid % 3 else "nocturne", rowid
            )
        for query in ("prelude", "prelude no", "pre"):   # 5, 8 and 1 grams
            everything = list(index.iter_matching(query))
            assert everything == sorted(index.candidates_matching(query))
            for after in (-1, 0, 1, 7, 20, 39, 40, 99):
                assert list(index.iter_matching(query, after)) == [
                    rowid for rowid in everything if rowid > after
                ], (query, after)

    def test_sub_trigram_query_declines_to_prune(self):
        index = TrigramIndex()
        index.insert("prelude", 1)
        assert index.candidates_matching("ab") is None
        assert index.candidates_matching("") is None

    def test_candidates_similar_uses_count_bound(self):
        index = TrigramIndex()
        index.insert("prelude in c major", 1)
        index.insert("nocturne op 9", 2)
        hits = index.candidates_similar("prelude in c", 0.4)
        assert 1 in hits and 2 not in hits

    def test_strict_delete_raises_on_desync(self):
        index = TrigramIndex()
        index.insert("prelude", 1)
        with pytest.raises(StorageError):
            index.delete("prelude", 99)

    def test_entry_and_gram_counts(self):
        index = TrigramIndex()
        index.insert("abcd", 1)
        index.insert("", 2)          # gram-free rows still count
        assert len(index) == 2
        assert index.gram_count() == 2  # abc, bcd
        index.delete("abcd", 1)
        assert len(index) == 1
        assert index.gram_count() == 0  # emptied postings are dropped


class TestTextDdl:
    def test_create_backfills_existing_rows(self, db):
        table = db.table("t")
        row = table.insert({"title": "Prélude", "v": 1})
        db.create_text_index("t", "title")
        index = table.text_index_for("title")
        assert index.candidates_matching("prelude") == {row.rowid}

    def test_create_is_idempotent(self, db):
        first = db.create_text_index("t", "title")
        assert db.create_text_index("t", "title") is first

    def test_non_string_column_refused(self, db):
        with pytest.raises(StorageError):
            db.create_text_index("t", "v")

    def test_refused_inside_explicit_transaction(self, db):
        txn = db.begin()
        try:
            with pytest.raises(TransactionError):
                db.create_text_index("t", "title")
            with pytest.raises(TransactionError):
                db.drop_text_index("t", "title")
        finally:
            txn.abort()

    def test_drop_of_missing_index_raises(self, db):
        with pytest.raises(StorageError):
            db.drop_text_index("t", "title")

    def test_catalog_lists_indexed_columns(self, db):
        db.create_text_index("t", "title")
        assert db.text_index_catalog() == {"t": ["title"]}
        db.drop_text_index("t", "title")
        assert db.text_index_catalog() == {}


class TestDurability:
    def test_index_and_contents_survive_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("title", "string")])
        db.create_text_index("t", "title")
        db.table("t").insert({"title": "Prélude in C"})
        db.close()

        db = Database(path)
        try:
            index = db.table("t").text_index_for("title")
            assert index is not None
            assert len(index) == 1
            assert index.candidates_matching("prelude") == {1}
        finally:
            db.close()

    def test_drop_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("title", "string")])
        db.create_text_index("t", "title")
        db.drop_text_index("t", "title")
        db.close()

        db = Database(path)
        try:
            assert db.table("t").text_index_for("title") is None
        finally:
            db.close()

    def test_checkpoint_image_repopulates_index(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("title", "string")])
        db.create_text_index("t", "title")
        db.table("t").insert({"title": "Goldberg Variations"})
        db.checkpoint()  # WAL truncated: contents must come off the image
        db.table("t").insert({"title": "Nocturne"})
        db.close()

        db = Database(path)
        try:
            index = db.table("t").text_index_for("title")
            assert len(index) == 2
            assert index.candidates_matching("goldberg") == {1}
            assert index.candidates_matching("nocturne") == {2}
        finally:
            db.close()

    def test_abort_undoes_index_maintenance(self, db):
        db.create_text_index("t", "title")
        table = db.table("t")
        txn = db.begin()
        table.insert({"title": "Prélude", "v": 1})
        txn.abort()
        index = table.text_index_for("title")
        assert len(index) == 0
        assert index.candidates_matching("prelude") == set()
