"""The QUEL ``limit N`` clause.

Parser validation (only positive integer literals), bounded execution
across every statement shape (unsorted, sorted, unique, aggregates),
agreement of the streaming, top-k and snapshot candidate sources with
the scan-everything reference interpreter, and the streaming sources'
early exit (``explain analyze`` rows-visited strictly below the
candidate count).
"""

import re

import pytest

from repro.core.schema import Schema
from repro.errors import ParseError
from repro.fixtures.corpus import load_catalog
from repro.quel.executor import QuelSession
from repro.quel.parser import parse_quel
from repro.storage.table import Table
from tests.quel.reference import reference_execute

ROWS = 10_000

TOPK = (
    'retrieve (t.title, score = similarity(t.title, "prelude no. 7")) '
    'where matches(t.title, "prelude") '
    'sort by similarity(t.title, "prelude no. 7") descending limit 10'
)
TOPK_UNLIMITED = TOPK.rsplit(" limit ", 1)[0]


@pytest.fixture(scope="module")
def catalog():
    schema = Schema("limit-catalog")
    entity = load_catalog(schema, ROWS, seed=3)
    schema.database.create_text_index(entity.table.name, "title")
    return schema


def _session(schema):
    session = QuelSession(schema)
    session.execute("range of t is TRACK")
    return session


def _reference(schema, source):
    return reference_execute(schema, "range of t is TRACK\n" + source)


class TestParserValidation:
    @pytest.mark.parametrize("operand", ["0", "-3", "2.5", '"ten"', "t.n", ""])
    def test_rejects_non_positive_integer_operands(self, operand):
        with pytest.raises(ParseError):
            parse_quel("retrieve (t.n) limit %s" % operand)

    def test_parses_positive_integer(self):
        (statement,) = parse_quel("retrieve (t.n) limit 10")
        assert statement.limit == 10

    def test_absent_limit_is_none(self):
        (statement,) = parse_quel("retrieve (t.n)")
        assert statement.limit is None

    def test_limit_follows_sort(self):
        (statement,) = parse_quel(
            "retrieve (t.n) sort by t.n descending limit 3"
        )
        assert statement.limit == 3
        assert statement.descending


class TestBoundedExecution:
    """Every limit shape must equal its unlimited statement, truncated."""

    def test_unsorted_scan_limit(self, catalog):
        session = _session(catalog)
        full = session.execute("retrieve (t.composer)")
        assert session.execute("retrieve (t.composer) limit 7") == full[:7]

    def test_sorted_limit_ascending(self, catalog):
        session = _session(catalog)
        base = 'retrieve (t.title) where matches(t.title, "nocturne") sort by t.title'
        full = session.execute(base)
        assert session.execute(base + " limit 3") == full[:3]

    def test_sorted_limit_descending(self, catalog):
        session = _session(catalog)
        base = (
            'retrieve (t.title) where matches(t.title, "nocturne") '
            "sort by t.title descending"
        )
        full = session.execute(base)
        assert session.execute(base + " limit 3") == full[:3]

    def test_unique_limit(self, catalog):
        session = _session(catalog)
        base = 'retrieve unique (t.composer) where matches(t.title, "prelude")'
        full = session.execute(base)
        assert session.execute(base + " limit 5") == full[:5]

    def test_unique_sorted_limit(self, catalog):
        session = _session(catalog)
        base = (
            'retrieve unique (t.composer) where matches(t.title, "prelude") '
            "sort by t.composer"
        )
        full = session.execute(base)
        assert session.execute(base + " limit 4") == full[:4]

    def test_aggregate_limit_truncates_groups(self, catalog):
        session = _session(catalog)
        base = (
            "retrieve (t.composer, works = count(t.title)) "
            'where matches(t.title, "prelude")'
        )
        full = session.execute(base)
        assert session.execute(base + " limit 3") == full[:3]

    def test_limit_beyond_result_set_is_harmless(self, catalog):
        session = _session(catalog)
        base = 'retrieve (t.title) where matches(t.title, "goldberg zzz")'
        assert session.execute(base + " limit 50") == session.execute(base)

    def test_ranked_limit_equals_full_sort_truncated(self, catalog):
        session = _session(catalog)
        full = session.execute(TOPK_UNLIMITED)
        assert session.execute(TOPK) == full[:10]


class TestPathAgreement:
    def test_compiled_interpreter_and_ablated_agree(self, catalog):
        compiled = _session(catalog)
        out = compiled.execute(TOPK)
        assert len(out) == 10
        assert compiled.last_plan_object.label == "index text topk"

        # The reference interprets the AST over a full scan, scores
        # every gate survivor and stable-sorts: same rows, same order.
        assert _reference(catalog, TOPK) == out
        # Without the limit the same statement materializes and sorts
        # every "index text" candidate; its head is the top-k answer.
        assert compiled.execute(TOPK_UNLIMITED)[:10] == out
        assert compiled.last_plan_object.label == "index text"

    def test_snapshot_read_agrees(self, catalog):
        session = _session(catalog)
        live = session.execute(TOPK)
        with catalog.database.snapshot():
            out = session.execute(TOPK)
            assert out == live
            assert session.last_plan_object.label == "index text topk"

    def test_pinned_read_sizes_its_candidate_cap_without_visiting_rows(
        self, catalog, monkeypatch
    ):
        """The planner's cap used to be ``len(table) // 2``, and ``len``
        under a pinned snapshot walks every chain: 10,000 visibility
        checks to compute one integer."""
        session = _session(catalog)
        source = 'retrieve (t.title) where matches(t.title, "op. 28")'
        live = session.execute(source)
        assert 0 < len(live) < ROWS // 20
        visits = []
        visible_row = Table._visible_row

        def counting(chain, snapshot):
            visits.append(chain)
            return visible_row(chain, snapshot)

        monkeypatch.setattr(Table, "_visible_row", staticmethod(counting))
        with catalog.database.snapshot():
            assert session.execute(source) == live
        assert session.last_plan_object.label == "index text"
        # A few looks per candidate row (fetch, gate, target) -- never
        # one per row of the table.
        assert 0 < len(visits) <= 4 * len(live)

    def test_stream_paths_agree_on_unsorted_limit(self, catalog):
        source = 'retrieve (t.title) where matches(t.title, "prelude") limit 5'
        session = _session(catalog)
        out = session.execute(source)
        assert session.last_plan_object.label == "index text stream"
        assert len(out) == 5
        full = session.execute(source.rsplit(" limit ", 1)[0])
        assert out == full[:5]
        assert session.last_plan_object.label == "index text"
        assert _reference(catalog, source) == out


class TestStreamChunks:
    """The stream source in small chunks, so every chunk after the first
    re-seeks: same rowids, same order, locked and pinned."""

    @pytest.mark.parametrize("chunk", [1, 8, 64])
    def test_chunked_stream_equals_the_whole_merge(self, catalog, chunk):
        session = _session(catalog)
        declared = session._range_for("t")
        index = declared.table.text_index_for("title")
        expected = sorted(index.candidates_matching("op. 28"))
        assert len(expected) > 8

        def streamed():
            return [
                instance.rowid for instance in session._stream_candidates(
                    declared, index, "op. 28", chunk
                )
            ]

        assert streamed() == expected
        with catalog.database.snapshot():
            assert streamed() == expected

    def test_limit_past_the_first_chunk(self, catalog):
        session = _session(catalog)
        base = 'retrieve (t.title) where matches(t.title, "no. 7")'
        full = session.execute(base)
        assert len(full) > 200
        assert session.execute(base + " limit 200") == full[:200]
        assert session.last_plan_object.label == "index text stream"
        with catalog.database.snapshot():
            assert session.execute(base + " limit 200") == full[:200]
            assert session.last_plan_object.label == "index text stream"


class TestEarlyExit:
    @staticmethod
    def _analyze(session, source):
        rows = session.execute("explain analyze " + source)
        rendered = "\n".join(row["plan"] for row in rows)
        visited = int(re.search(r"rows visited: (\d+)", rendered).group(1))
        candidates = int(re.search(r"\((\d+) candidates\)", rendered).group(1))
        return rendered, visited, candidates

    def test_topk_visits_fewer_rows_than_candidates(self, catalog):
        session = _session(catalog)
        rendered, visited, candidates = self._analyze(session, TOPK)
        assert "index text topk" in rendered
        assert visited < candidates
        assert visited >= 10  # at least the returned rows were fetched

    def test_stream_visits_fewer_rows_than_candidates(self, catalog):
        session = _session(catalog)
        source = 'retrieve (t.title) where matches(t.title, "prelude") limit 5'
        rendered, visited, candidates = self._analyze(session, source)
        assert "index text stream" in rendered
        assert visited < candidates
        assert visited >= 5
