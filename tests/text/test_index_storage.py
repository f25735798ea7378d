"""Storage-level trigram index tests: maintenance, DDL, durability.

The QUEL batteries cover query semantics; these pin the storage
contract underneath them -- posting maintenance across all nine row
paths, the sound-superset candidate API, text DDL refusal inside
transactions, and durability through the storage catalog's rows.
"""

import json
import random

import pytest

from repro.errors import StorageError, TransactionError
from repro.obs.metrics import MetricsRegistry
from repro.storage.database import CATALOG, Database
from repro.text import trigrams
from repro.text.bitset import Rowids, Sparse
from repro.text.index import TrigramIndex


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "db"))
    database.create_table("t", [("title", "string"), ("v", "integer")])
    yield database
    database.close()


class TestTrigramIndexUnit:
    def test_candidates_matching_intersects_postings(self):
        index = TrigramIndex(MetricsRegistry())
        index.insert("prelude in c", 1)
        index.insert("prelude no 4", 2)
        index.insert("nocturne", 3)
        assert index.candidates_matching("prelude") == {1, 2}
        assert index.candidates_matching("prelude in") == {1}
        assert index.candidates_matching("zzz") == set()

    def test_set_and_bisect_intersections_agree_with_a_posting_walk(self):
        """A query meets array postings, bitset postings and both at
        once (where the name's set and bisection rules used to be);
        every answer must equal the per-entry loop."""
        index = TrigramIndex(MetricsRegistry())
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

        def counted(grams, rowids):
            buckets = list(index.overlap_counts(grams, rowids))
            overlaps = [overlap for overlap, _ in buckets]
            assert overlaps == sorted(overlaps, reverse=True)
            assert all(bucket for _, bucket in buckets)
            pairs = [(r, o) for o, bucket in buckets for r in bucket]
            assert len(pairs) == len(dict(pairs))  # one bucket a rowid
            return dict(pairs)

        everything = set(values)
        # " zy" holds 4 rowids, "pre" all 600: one query, both forms.
        for query in ("prelude", "prelude no 1", "no 10 zyx", "zyx"):
            grams = trigrams(query)
            lengths = sorted(len(index._posting(g)) for g in grams)
            expected = {
                r for r, n in walk(grams, everything).items() if n == len(grams)
            }
            assert index.candidates_matching(query) == expected, query
            assert list(index.iter_matching(query)) == sorted(expected)
            for rowids in (everything, expected, {7, 150, 300}, set()):
                assert counted(grams, rowids) == walk(grams, rowids), (
                    query, lengths
                )
        assert isinstance(index._posting(" zy"), Sparse)
        assert isinstance(index._posting("pre"), Rowids)

    @pytest.mark.parametrize("step", [1, 5])
    def test_a_bulk_build_over_several_chunks_equals_row_by_row(self, step):
        """One ``insert_many`` whose rowids run through three bitset
        chunks (dense grams collect in flags a chunk at a time), shuffled
        on the way in, against one ``insert`` per row."""
        pairs = [
            ("prelude no %d%s" % (n % 40, " zyx" if n % 150 == 0 else ""),
             10_000 + n * step)
            for n in range(24_000 // step)
        ]
        rebuilt = TrigramIndex(MetricsRegistry())
        for value, rowid in pairs:
            rebuilt.insert(value, rowid)
        built = TrigramIndex(MetricsRegistry())
        random.Random(step).shuffle(pairs)
        built.insert_many(pairs[:9_000 // step])
        built.insert_many(pairs[9_000 // step:])   # merges into the first
        assert built._postings == rebuilt._postings
        assert built._row_grams == rebuilt._row_grams
        assert isinstance(built._posting("pre"), Rowids)
        assert isinstance(built._posting("zyx"), Sparse)
        # Which side of the size rule's hysteresis a posting is on may
        # differ with the history; what each index says it holds may not.
        for index in (built, rebuilt):
            assert index._posting_bytes == sum(
                index._posting(gram).nbytes() for gram in index._postings
            )

    def test_iter_matching_reseeks_past_a_rowid(self):
        """The streaming source reads a chunk per call and re-opens the
        merge past the last rowid it saw."""
        index = TrigramIndex(MetricsRegistry())
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

    def test_a_gram_with_no_posting_matches_nothing(self):
        """One gram of the query that no row holds empties the answer,
        wherever it falls among grams that do have postings."""
        index = TrigramIndex(MetricsRegistry())
        for rowid in range(1, 41):
            index.insert("prelude no %d" % rowid, rowid)
        for query in ("preludex", "xprelude", "prelxude", "zzz"):
            assert index._query_postings(query) == []
            assert index.candidates_matching(query) == set()
            assert list(index.iter_matching(query)) == []
            assert index.estimate_matching(query) == 0

    def test_sub_trigram_query_declines_to_prune(self):
        index = TrigramIndex(MetricsRegistry())
        index.insert("prelude", 1)
        assert index.candidates_matching("ab") is None
        assert index.candidates_matching("") is None

    def test_candidates_similar_uses_count_bound(self):
        index = TrigramIndex(MetricsRegistry())
        index.insert("prelude in c major", 1)
        index.insert("nocturne op 9", 2)
        hits = index.candidates_similar("prelude in c", 0.4)
        assert 1 in hits and 2 not in hits

    def test_strict_delete_raises_on_desync(self):
        index = TrigramIndex(MetricsRegistry())
        index.insert("prelude", 1)
        with pytest.raises(StorageError):
            index.delete("prelude", 99)

    @pytest.mark.parametrize("rowid", [3, 70_000])  # a bitset; an array
    def test_failed_delete_leaves_the_index_as_it_was(self, rowid):
        """The value names grams the row was never indexed under: the
        postings that do hold the rowid must keep it."""
        index = TrigramIndex(MetricsRegistry())
        index.insert("prelude", rowid)
        index.insert("prelude in c", rowid + 1)
        form = {gram: type(index._posting(gram)) for gram in index._postings}
        assert isinstance(index._posting("pre"), Rowids if rowid == 3 else Sparse)
        before = (
            {gram: list(p) for gram, p in index._postings.items()},
            dict(index._row_grams), index.posting_entries(),
            index.gram_count(), index.approx_bytes(),
        )
        with pytest.raises(StorageError, match="out of sync"):
            index.delete("prelude in c", rowid)
        assert before == (
            {gram: list(p) for gram, p in index._postings.items()},
            dict(index._row_grams), index.posting_entries(),
            index.gram_count(), index.approx_bytes(),
        )
        assert form == {gram: type(index._posting(gram)) for gram in index._postings}
        index.delete("prelude", rowid)
        assert index.candidates_matching("prelude") == {rowid + 1}

    @pytest.mark.parametrize("rowid", [1 << 32, -1])
    def test_a_rowid_no_posting_can_hold_is_a_storage_error(self, rowid):
        index = TrigramIndex(MetricsRegistry())
        index.insert("prelude", 1)
        batch = [("prelude no %d" % n, n) for n in range(2, 40)]
        with pytest.raises(StorageError, match="4294967295"):
            index.insert("prelude", rowid)
        with pytest.raises(StorageError, match="4294967295"):
            index.insert_many(batch + [("prelude", rowid)])
        assert index.candidates_matching("prelude") == {1}
        assert len(index) == 1 and index.posting_entries() == 5
        last = (1 << 32) - 1
        index.insert("prelude", last)
        # The far row is its own chunk's work, not the 262,143 before it.
        both = index.candidates_matching("prelude")
        assert both == {1, last} and sorted(both.masks) == [0, last >> 14]
        assert list(index.iter_matching("prelude", 1)) == [last]
        assert index.similar_overlaps("prelude", 0.5) == {
            0: 1 << 1, last >> 14: 1 << (last & 16_383)
        }
        assert [
            (overlap, set(bucket)) for overlap, bucket
            in index.overlap_counts(trigrams("prelude no"), both)
        ] == [(5, {1, last})]

    def test_entry_and_gram_counts(self):
        index = TrigramIndex(MetricsRegistry())
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
        """The storage catalog's row for the table is the index's record."""
        catalog = db.table(CATALOG)

        def indexed():
            (row,) = catalog.select_eq("table_name", "t")
            return json.loads(row["text_indexed"])

        db.create_text_index("t", "title")
        assert indexed() == ["title"]
        db.drop_text_index("t", "title")
        assert indexed() == []


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
