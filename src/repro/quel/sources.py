"""Candidate sources: the one module under ``quel/`` that reads index
structures.

A *source* answers one range variable's candidates.  :func:`choose`
builds one per variable at plan time, from index reads alone (each
inside a :meth:`Table.probe`, so pinned runs as locked); rows are
fetched when the join pulls.  Every source has

* ``count`` -- the probe's answer, neither inflated by stale rowids nor
  reduced by a re-check: the plan line and the join order;
* ``access`` -- the plan label;
* ``stale`` -- the stale rowids a pinned index read took in (0 when not
  pinned); None when the table was swamped and is scanned instead;
* ``answers`` -- indices of the conjuncts its candidates satisfy by
  construction, which the join skips;
* ``text_candidates`` -- what a trigram index pruned to at plan time
  (None: none did);
* ``correlated`` -- True when the pull reads outer bindings: the join
  pulls such a source per binding and drains any other inner one once;
* ``pull(bindings, first, selector)`` -- the candidates, wrapped, a
  chunk at a time.  *first*, an unsorted ``limit N``'s early-exit
  bound, sizes the first chunk (None: one chunk of everything);
  *selector*, a sorted one's :class:`BoundedSort`, is what top-k asks.
"""

from bisect import bisect_left
from itertools import chain, islice, takewhile

from repro.core.entity import SURROGATE_COLUMN, EntityInstance
from repro.errors import UnknownAttributeError
from repro.quel import ast, planner
from repro.quel.functions import scalar_similarity
from repro.storage.table import SWAMPED
from repro.storage.values import value_sort_key
from repro.text import SimilarityScorer


# -- what a range variable ranges over ----------------------------------------------


class EntityRange:
    """A range variable over an entity type: candidates are instances,
    scanned in surrogate order."""

    kind = "entity"
    scan_order = SURROGATE_COLUMN

    def __init__(self, entity_type):
        self.entity_type = entity_type
        self.type_name = entity_type.name
        self.table = entity_type.table
        self.key = (self.kind, self.type_name)  # what a plan depends on

    def wrap(self, row):
        return EntityInstance(self.entity_type, row[SURROGATE_COLUMN], row.rowid)


class RelationshipRange:
    """A range variable over a relationship: candidates are its rows,
    scanned in table order."""

    kind = "relationship"
    scan_order = None

    def __init__(self, relationship):
        self.type_name = relationship.name
        self.table = relationship.table
        self.key = (self.kind, self.type_name)

    def wrap(self, row):
        return _RelationshipRow(self, row)


class _RelationshipRow:
    """A relationship row as a range variable binds it: an unknown role
    or attribute is the typed error an entity instance raises."""

    __slots__ = ("declared", "row")

    def __init__(self, declared, row):
        self.declared = declared
        self.row = row

    def __getitem__(self, name):
        try:
            return self.row[name]
        except KeyError:
            raise UnknownAttributeError(
                "relationship %r has no role or attribute %r"
                % (self.declared.type_name, name)
            ) from None


# -- the chunk rule, the shared pull, the counters, the bounded selection ------------


def chunk_sizes(first):
    """The one chunk rule: how many rowids each successive fetch of a
    candidate source takes.  The first takes *first*, the statement's
    early-exit bound, and every later one as many as all before it, so
    a tail that stops early has paid for under twice the rowids it had
    to see and one that drains the source for O(log n) fetch calls."""
    total = 0
    while True:
        size = total or first
        yield size
        total += size


def slices(items, first):
    """List *items* cut by the chunk rule; one slice holding everything
    when the statement has no early-exit bound (*first* None)."""
    start = 0
    for size in chunk_sizes(first or len(items)):
        if start >= len(items):
            return
        yield items[start:start + size]
        start += size


class Accounting:
    """What the sources count, each counter at its one site, per
    statement or per chunk and never per row.  Limits installed on
    *local*, the session's thread-local, take ``rows fetched`` too:
    ``explain analyze`` reads it there."""

    def __init__(self, metrics, local=None):
        self.local = local
        counter = metrics.counter
        self.rows_fetched = counter("quel.rows_fetched")
        # Statements a trigram index pruned, and to how many rows.
        self.text_searches = counter("text.searches")
        self.text_candidates = counter("text.candidates")
        # Pinned reads: variables answered from an index, and the ones a
        # swamped stale set sent back to a scan.
        self.snapshot_index_reads = counter("quel.snapshot_index_reads")
        self.snapshot_scan_fallbacks = counter("quel.snapshot_scan_fallbacks")

    def fetched(self, asked):
        """A source asked its table for *asked* rows."""
        self.rows_fetched.inc(asked)
        limits = getattr(self.local, "limits", None)
        if limits is not None:
            limits.fetched += asked

    def text_search(self, candidates, new=True):
        """A trigram index pruned a variable to *candidates* rows (the
        stream learns its own a chunk at a time: *new* False)."""
        if new:
            self.text_searches.inc()
        self.text_candidates.inc(candidates)

    def planned(self, sources, pinned):
        """The plan-time counts of one statement's chosen *sources*."""
        index_reads = 0
        for source in sources:
            if source.text_candidates is not None:
                self.text_search(source.text_candidates)
            if source.stale is None:
                self.snapshot_scan_fallbacks.inc()
            if pinned and source.access.startswith("index"):
                index_reads += 1
        if index_reads:
            self.snapshot_index_reads.inc(index_reads)

    def pull(self, wrap, chunks, fetch):
        """The shared pull: ``fetch(chunk)``'s rows, wrapped, a chunk of
        *chunks* at a time, none before the join asks: ``explain``
        fetches nothing and a tail that stops early never pays for the
        chunks behind the one it stopped in."""
        def pools():
            for chunk in chunks:
                self.fetched(len(chunk))
                yield [wrap(row) for row in fetch(chunk)]

        return chain.from_iterable(pools())  # a hop per chunk, not per row


class _Reversed:
    """Inverts comparisons so a descending sort key can live inside an
    ascending bounded-selection list (`functools.cmp_to_key` without
    the per-compare lambda).  Ordering ``(key, seq)`` tuples, and
    bisecting a list of them, asks only ``==`` and ``<``."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return self.key == other.key

    def __lt__(self, other):
        return other.key < self.key


class BoundedSort:
    """The bounded selection a ``sort by ... limit N`` tail keeps and
    top-k consults: the N best ``(key, seq)`` entries in a sorted list,
    so a ranked retrieve over a million bindings holds N records
    instead of sorting everything at the end.  *seq*, the tie-break the
    next offer takes, is arrival order -- the stable full sort's
    tie-breaking -- unless the source sets it before each row it hands
    the tail: top-k, which visits rows best bound first, sets the rowid
    ("index text"'s visiting order)."""

    __slots__ = ("limit", "keys", "records", "descending", "seq")

    def __init__(self, limit, descending):
        self.limit = limit
        self.descending = descending
        self.keys = []
        self.records = []
        self.seq = 0

    def entry(self, sort_key, seq):
        """The ``(key, seq)`` a row would be kept under, or None when
        the selection is full of better ones."""
        key = value_sort_key(sort_key)
        if self.descending:
            key = _Reversed(key)
        entry = (key, seq)
        if len(self.keys) >= self.limit and not entry < self.keys[-1]:
            return None
        return entry

    def offer(self, record, sort_key):
        entry = self.entry(sort_key, self.seq)
        self.seq += 1
        if entry is None:
            return
        at = bisect_left(self.keys, entry)
        self.keys.insert(at, entry)
        self.records.insert(at, record)
        if len(self.keys) > self.limit:
            self.keys.pop()
            self.records.pop()


# -- the sources ------------------------------------------------------------------------


def text_rowids(table, text_restrictions):
    """The intersection of the trigram-index candidate sets of
    *text_restrictions*, ascending when iterated, or None when no index
    contributed (index reads only: it runs inside a probe).  A gate with
    no index, or a sub-trigram query the index cannot bound, contributes
    nothing -- the exact predicate still verifies every materialized
    row in the join, so candidates stay a sound superset."""
    rowids = None
    for attribute, operator, query, threshold in text_restrictions:
        index = table.text_index_for(attribute)
        if index is None:
            continue
        if operator == "matches":
            matched = index.candidates_matching(query)
        else:
            matched = index.candidates_similar(query, threshold)
        if matched is None:
            continue
        rowids = matched if rowids is None else rowids & matched
        if not rowids:
            break
    return rowids


class _Source:
    """What the sources share: the range, the counters, the defaults,
    and a pull that needs only ``_chunks(first)`` and ``_fetch(chunk)``."""

    __slots__ = ("count", "stale", "_declared", "_accounting")
    answers = ()
    text_candidates = None
    correlated = False

    def __init__(self, declared, accounting):
        self._declared = declared
        self._accounting = accounting

    def pull(self, bindings, first, selector):
        return self._accounting.pull(
            self._declared.wrap, self._chunks(first), self._fetch
        )


class IndexSource(_Source):
    """"index", "index text", or the scan no index spares ("filtered
    scan", "scan"; "snapshot scan" when pinned).

    Every equality restriction on a real column is answered from an
    index -- built on first use if absent -- and the rowid sets, text
    gates' included, are intersected before any row is materialized; one
    on an unknown attribute filters in place.  The index reads are one
    probe, whose stale rowids are merged into the ascending rowid list
    once; each chunk comes back through :meth:`Table.fetch`, which --
    pinned -- re-checks the equalities on each visible version (the
    join skips *answers*, so nothing downstream would).  A scan takes
    its rows at plan time -- that is how it knows its count -- and
    hands them over as one chunk.
    """

    __slots__ = ("access", "answers", "text_candidates", "_chunks", "_fetch")

    def __init__(self, declared, restrictions, text_restrictions, answers,
                 accounting):
        _Source.__init__(self, declared, accounting)
        self.answers = answers
        self.text_candidates = None
        table = declared.table
        has_column = table.schema.has_column
        indexed = [(a, v) for a, v in restrictions if has_column(a)]
        residual = [(a, v) for a, v in restrictions if not has_column(a)]

        def kept(rows):
            if residual:
                rows = [
                    row for row in rows
                    if all(row.get(a) == v for a, v in residual)
                ]
            return rows

        def probe():
            rowids = text_rowids(table, text_restrictions)
            text_pruned = rowids is not None
            for attribute, value in indexed:
                if rowids is not None and not rowids:
                    break
                index = table.any_index_for(attribute)
                if index is None:
                    # Adaptive access path: build the missing index once so
                    # this and every later query answers from it.
                    index = table.create_index(attribute)
                # A lookup answers ascending: a lone one is the
                # candidate list as it stands.
                matched = index.lookup(value)
                if rowids is not None:
                    # Walk the lookup: a text gate's candidates are a
                    # set to ask, not one to enumerate.
                    held = set(rowids) if isinstance(rowids, list) else rowids
                    matched = [rowid for rowid in matched if rowid in held]
                rowids = matched
            return rowids, text_pruned

        (rowids, text_pruned), stale = table.probe(probe)
        pinned = stale is not None
        keys = [(a, value_sort_key(v)) for a, v in indexed]

        def verify(row):
            return all(value_sort_key(row[a]) == key for a, key in keys)

        if rowids is None or stale is SWAMPED:
            if rowids is not None:
                rows = table.fetch(rowids, SWAMPED, verify)
            elif declared.scan_order is None:
                rows = list(table)
            else:
                rows = table.sorted_by(declared.scan_order)
            rows = kept(rows)
            self._chunks = lambda first: (rows,)
            self._fetch = iter
            self.count = len(rows)
            self.access = "snapshot scan" if pinned else (
                "filtered scan" if residual else "scan"
            )
            self.stale = 0 if rowids is None else None
            return
        self.count = len(rowids)
        self.stale = len(stale) if pinned else 0
        if not isinstance(rowids, list):
            rowids = sorted(rowids)
        if stale:
            rowids, stale = sorted(set(rowids).union(stale)), ()
        self._chunks = lambda first: slices(rowids, first)
        self._fetch = lambda chunk: kept(table.fetch(chunk, stale, verify))
        self.access = "index"
        if text_pruned:
            self.access = "index text"
            self.text_candidates = self.count


class TextStream(_Source):
    """"index text stream": the rarest ``matches`` gate's posting
    intersection itself advances a chunk at a time (one
    :meth:`Table.matching_chunks` chunk per fetch), only far enough for
    the join to verify N rows, in "index text"'s ascending rowid order.
    *count* is the posting-length estimate."""

    __slots__ = ("_index", "_query")
    access = "index text stream"
    text_candidates = 0  # a search at plan time; each chunk counts its own

    @classmethod
    def plan(cls, declared, text_restrictions, accounting):
        """The stream over *declared*, or None: no indexed ``matches``
        gate bounds it, or the stale set is swamped."""
        table = declared.table

        def rarest():
            best = None
            for attribute, operator, query, _threshold in text_restrictions:
                index = table.text_index_for(attribute)
                if operator != "matches" or index is None:
                    continue
                estimate = index.estimate_matching(query)
                if estimate is not None and (best is None or estimate < best[0]):
                    best = (estimate, index, query)
            return best

        best, stale = table.probe(rarest)
        if best is None or stale is SWAMPED:
            return None
        source = cls(declared, accounting)
        source.count, source._index, source._query = best
        source.stale = len(stale or ())
        return source

    def _fetch(self, chunk):
        self._accounting.text_search(len(chunk), new=False)
        return self._declared.table.get_many(chunk)

    def _chunks(self, first):
        return self._declared.table.matching_chunks(
            self._index, self._query, chunk_sizes(first)
        )


class TextTopK(_Source):
    """"index text topk": only ``similarity(v.attr, "literal")`` has a
    posting-count upper bound (:meth:`SimilarityScorer.bound_with`,
    tighter the more grams a row has beyond the shared ones), so under
    that sort key, descending, the gate candidates are taken a bucket of
    equal trigram overlap at a time, highest first, until the tail's
    bounded selection holds N rows no remaining bucket's bound can beat;
    the rest are never fetched, nor so much as enumerated.  Ties order
    by rowid, as a stable sort over "index text" would."""

    __slots__ = ("text_candidates", "_scorer", "_index", "_buckets", "_seen")
    access = "index text topk"

    @classmethod
    def plan(cls, declared, text_restrictions, attribute, query, accounting):
        """Top-k by similarity of *attribute* to *query*, or None: a
        sub-trigram query (no overlap bound exists), no index on either
        side, or a swamped stale set."""
        scorer = SimilarityScorer(query)
        if not scorer.grams:
            return None
        table = declared.table

        def overlaps():
            """The gate candidates bucketed by exact trigram overlap
            with the similarity query, from the postings alone."""
            index = table.text_index_for(attribute)
            if index is None:
                return None
            rowids = text_rowids(table, text_restrictions)
            if rowids is None:
                return None
            return rowids, index, index.overlap_counts(scorer.grams, rowids)

        planned, stale = table.probe(overlaps)
        if planned is None or stale is SWAMPED:
            return None
        source = cls(declared, accounting)
        rowids, source._index, source._buckets = planned
        # What the postings say about a stale rowid describes some other
        # version of it: it is fetched first and scored exactly.
        source._seen = seen = set(stale or ())
        source.stale = len(seen)
        source.count = source.text_candidates = len(rowids) + sum(
            rowid not in rowids for rowid in seen
        )
        source._scorer = scorer
        return source

    def _cells(self, overlap, bucket, selector):
        """A bucket's cells of equal stored gram count, fewest grams
        (best bound) first, as far as a cell's bound can enter the
        selection as it stands (index reads only: inside a probe)."""
        bound = self._scorer.bound_with
        return list(takewhile(
            lambda cell: selector.entry(bound(overlap, cell[0]), -1) is not None,
            self._index.size_cells(bucket),
        ))

    def _ranked(self, selector):
        """The candidates that can still enter the selection as it
        stands when each is drawn: a bucket at a time, highest overlap
        first, until a bucket's bound cannot; best bound first within a
        bucket (a row's stored gram count tightens it), until a row's
        cannot."""
        bound, seen = self._scorer.bound_with, self._seen
        probe = self._declared.table.probe
        for overlap, bucket in self._buckets:
            if selector.entry(bound(overlap, overlap), -1) is None:
                return
            cells, late = probe(self._cells, overlap, bucket, selector)
            if late:
                # Rewritten since the postings were counted: the gram
                # count read now is another version's, the overlap is
                # not.  A row of *overlap* grams has the bucket's bound.
                late = bucket if late is SWAMPED else late
                cells.insert(0, (overlap, sorted(r for r in late if r in bucket)))
            for size, rowid in (
                (size, rowid) for size, cell in cells for rowid in cell
            ):
                if selector.entry(bound(overlap, size), -1) is None:
                    break
                if rowid not in seen:
                    seen.add(rowid)
                    yield rowid

    def _best_first(self, selector):
        """Ascending rowid chunks of :meth:`_ranked`, cut by the chunk
        rule: all but the last are whole."""
        if self._seen:
            yield sorted(self._seen)
        source = self._ranked(selector)
        for size in chunk_sizes(selector.limit):
            chunk = sorted(islice(source, size))
            if not chunk:
                return
            yield chunk

    def pull(self, bindings, first, selector):
        declared = self._declared
        for candidate in self._accounting.pull(
            declared.wrap, self._best_first(selector), declared.table.get_many
        ):
            selector.seq = candidate.rowid
            yield candidate


class OrderRange(_Source):
    """"order range": with the driver of a ``before`` / ``after`` /
    ``under`` conjunct bound, the other side is one :meth:`Ordering.walk`
    per driver binding.  The children its membership rows name
    materialize, in sibling order, through one probe and fetch of the
    enumerated type's surrogate index, which drops children of other
    types -- the rows the conjunct would have rejected.  Each walk
    counts the membership and the entity rows it asked for; never
    outermost, it meets no early-exit bound: one chunk per walk."""

    __slots__ = ("answers", "_ordering", "_option")
    access = "order range"
    stale = 0
    correlated = True

    def __init__(self, option, ordering, declared, accounting):
        _Source.__init__(self, declared, accounting)
        self.count = ordering.table.row_estimate()
        self.answers = (option.conjunct_index,)
        self._ordering = ordering
        self._option = option

    def pull(self, bindings, first, selector):
        driver = bindings.get(self._option.driver_var)
        if not isinstance(driver, EntityInstance):
            return ()
        ordering, mode = self._ordering, self._option.mode
        if mode == "under":
            members = ordering.member_rows_under(driver.surrogate)
        else:
            member = ordering.member_row_of(driver)
            if member is None:
                return ()
            if mode == "before":
                members = ordering.member_rows_before(member)
            else:
                members = ordering.member_rows_after(member)
        table = self._declared.table
        place = {row["child"]: slot for slot, row in enumerate(members)}

        def lookups():
            lookup = table.any_index_for(SURROGATE_COLUMN).lookup
            return [rowid for child in place for rowid in lookup(child)]

        rowids, stale = table.probe(lookups)
        self._accounting.fetched(len(members) + len(rowids))
        rows = table.fetch(
            rowids, stale, lambda row: row[SURROGATE_COLUMN] in place
        )
        if stale:  # merged in by rowid: back into sibling order
            rows.sort(key=lambda row: place[row[SURROGATE_COLUMN]])
        wrap = self._declared.wrap
        return [wrap(row) for row in rows]


# -- who picks -----------------------------------------------------------------------------


def _pushdowns(compiled):
    """At most one pushdown option per order conjunct, as ``{enumerated
    variable: option}``.  The enumerated variable must not carry
    equality restrictions (an index lookup would already make it cheap)
    and may be enumerated for only one conjunct.  Among a conjunct's
    options, the first whose driver is restricted wins: the driver
    binds early and small."""
    restricted = compiled.restrictions.get
    chosen = {}
    by_conjunct = {}
    for option in compiled.pushdown_options:
        by_conjunct.setdefault(option.conjunct_index, []).append(option)
    for index in sorted(by_conjunct):
        options = [
            option for option in by_conjunct[index]
            if option.enum_var not in chosen and not restricted(option.enum_var)
        ]
        if options:
            best = next(
                (o for o in options if restricted(o.driver_var)), options[0]
            )
            chosen[best.enum_var] = best
    return chosen


def _similarity_sort_key(sort_by):
    """Match a sort key of ``similarity(v.attr, "literal")``: returns
    ``(variable, attribute, query)``, or None for any other shape."""
    if (
        isinstance(sort_by, ast.FunctionCall)
        and sort_by.name == "similarity"
        and len(sort_by.arguments) == 2
    ):
        target, literal = sort_by.arguments
        if (
            isinstance(target, ast.AttributeRef)
            and isinstance(literal, ast.Literal)
            and isinstance(literal.value, str)
        ):
            return target.variable, target.attribute, literal.value
    return None


def _early_exit(compiled, declared, rt):
    """The early-exit source for a non-unique, non-aggregate ``limit
    N`` retrieve over one entity variable with a pushable text gate and
    no equality restriction (which would change the candidate set), or
    None.  Neither materializes the gate's full candidate set, which
    grows with the table: unsorted, :class:`TextStream`; sorted by the
    builtin ``similarity`` descending, :class:`TextTopK` (its bound
    replicates the builtin: a session that rebound the name gets
    neither)."""
    statement, (variable,) = compiled.statement, compiled.used
    text_restrictions = compiled.text_restrictions.get(variable)
    if (
        compiled.kind != "RetrieveStatement" or statement.limit is None
        or statement.unique or compiled.aggregates
        or declared.kind != "entity" or not text_restrictions
        or compiled.restrictions.get(variable)
    ):
        return None
    if statement.sort_by is None:
        return TextStream.plan(declared, text_restrictions, rt.accounting)
    spec = _similarity_sort_key(statement.sort_by)
    if (
        not statement.descending or spec is None or spec[0] != variable
        or rt.functions.scalar("similarity") is not scalar_similarity
    ):
        return None
    return TextTopK.plan(declared, text_restrictions, spec[1], spec[2], rt.accounting)


def choose(compiled, ranges, rt, pinned):
    """Pick the source of every variable *compiled* uses and the order
    the join binds them in: ``(order, {variable: source})``.  *ranges*
    maps each variable to its declared range; *rt* is the executing
    session, whose literal vector the restrictions read.  What selects
    a source is observed, never configured:

    * an order conjunct with one side bound enumerates the other
      (:class:`OrderRange`), placed after its driver; mutually-driven
      ones (a before b and b before a) get plain sources and let the
      per-row checks decide;
    * a ``limit N`` text retrieve over one variable streams its
      candidates (:func:`_early_exit`);
    * everything else answers from the restrictions an index can answer
      (:class:`IndexSource`), smallest candidate set first.
    """
    used = compiled.used
    accounting = rt.accounting
    sources = {}

    def plain(variable):
        sources[variable] = IndexSource(
            ranges[variable],
            [
                (attribute, value(rt, None)) for attribute, value
                in compiled.restrictions.get(variable, ())
            ],
            compiled.text_restrictions.get(variable, ()),
            compiled.restriction_conjuncts.get(variable, ()),
            accounting,
        )

    driven = _pushdowns(compiled) if compiled.pushdown_options else {}
    early = _early_exit(compiled, ranges[used[0]], rt) if len(used) == 1 else None
    if early is not None:
        sources[used[0]] = early
        order = list(used)
    else:
        order = [variable for variable in used if variable not in driven]
        for variable in order:
            plain(variable)
        order = planner.order_variables(order, sources, compiled.conjuncts)
    while driven:
        ready = [v for v in sorted(driven) if driven[v].driver_var in sources]
        if not ready:
            for variable in sorted(driven):
                plain(variable)
                order.append(variable)
            break
        option = driven.pop(ready[0])
        sources[ready[0]] = OrderRange(
            option, rt.schema.ordering(option.order_name), ranges[ready[0]],
            accounting,
        )
        order.append(ready[0])
    accounting.planned(sources.values(), pinned)
    return order, sources
