"""Candidate sources: the one module under ``quel/`` that reads index
structures.

A *source* answers one range variable's candidates.  :func:`choose`
builds one per variable at plan time, from index reads alone (each
inside a :meth:`Table.probe`, so pinned runs as locked); rows are
fetched when the join pulls.  Every source has

* ``count`` -- the probe's answer, neither inflated by stale rowids nor
  reduced by a re-check: the plan line and the join order;
* ``access`` -- the plan label;
* ``stale`` -- how many stale rowids a pinned index read took in (0
  when not pinned, or for a scan);
* ``answers`` -- indices of the conjuncts its candidates satisfy by
  construction (a ``similar_to`` with nothing stale), which the join skips;
* ``text_candidates`` -- what a trigram index pruned to at plan time
  (None: none did);
* ``correlated`` -- True when the pull reads outer bindings: the join
  pulls such a source per binding and drains any other inner one once;
* ``pull(bindings, first, selector)`` -- the candidates, the fetched
  rows themselves, a chunk at a time.  *first*, an unsorted ``limit
  N``'s early-exit bound, sizes the first chunk (None: one chunk of
  everything); *selector*, a sorted one's :class:`BoundedSort`, is what
  top-k asks.

A range variable binds the fetched :class:`~repro.storage.row.Row`;
only an operand that needs an instance wraps it (``EntityRange.wrap``).
"""

from bisect import bisect_left
from functools import partial
from itertools import chain

from repro.core.entity import SURROGATE_COLUMN, BoundInstance
from repro.errors import UnknownAttributeError
from repro.quel import planner
from repro.storage.values import value_sort_key


# -- what a range variable ranges over ----------------------------------------------


class EntityRange:
    """A range variable over an entity type: candidates are its rows,
    scanned in surrogate order; ``wrap`` makes one an instance that
    reads the row its source fetched."""

    kind = "entity"
    scan_order = SURROGATE_COLUMN

    def __init__(self, entity_type):
        self.entity_type = entity_type
        self.type_name = entity_type.name
        self.table = entity_type.table
        self.key = (self.kind, self.type_name)  # what a plan depends on
        self.wrap = partial(BoundInstance, entity_type)

    def position(self, name):
        """The slot of attribute *name* in a bound row's values tuple;
        an attribute the type lacks raises ``UnknownAttributeError``."""
        self.entity_type.attribute(name)
        return self.table.schema.layout[name]


class RelationshipRange:
    """A range variable over a relationship: candidates are its rows,
    scanned in table order."""

    kind = "relationship"
    scan_order = None

    def __init__(self, relationship):
        self.type_name = relationship.name
        self.table = relationship.table
        self.key = (self.kind, self.type_name)

    def position(self, name):
        """The slot of role or attribute *name* in a bound row's values
        tuple; one the relationship lacks raises as an entity range does."""
        if name not in self.table.schema.layout:
            raise UnknownAttributeError("relationship %r has no role or "
                                        "attribute %r" % (self.type_name, name))
        return self.table.schema.layout[name]


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
    when the statement has no early-exit bound (*first* None) or the
    first chunk takes them all."""
    if not first or first >= len(items):
        return (items,) if items else ()
    return _cut(items, first)


def _cut(items, first):
    start = 0
    for size in chunk_sizes(first):
        if start >= len(items):
            return
        yield items[start:start + size]
        start += size


#: The counters a statement's counts land in, a slot each in a cell of
#: :func:`statement_tally`; the ``quel.statement_seconds`` slots follow.
STATEMENT_COUNTERS = (
    "quel.statements", "quel.rows_returned", "quel.rows_fetched",
    "text.searches", "text.candidates", "quel.snapshot_index_reads",
    "quel.cache.statement_hits", "quel.cache.statement_misses",
    "quel.cache.hits", "quel.cache.misses", "quel.cache.invalidations")
(STATEMENTS, RETURNED, FETCHED, TEXT_SEARCHES, TEXT_CANDIDATES,
 INDEX_READS, STATEMENT_HITS, STATEMENT_MISSES, PLAN_HITS, PLAN_MISSES,
 INVALIDATIONS) = range(11)


def statement_tally(metrics):
    """The Tally whose cells hold statements' counts, in *metrics*."""
    return metrics.tally(STATEMENT_COUNTERS, ("quel.statement_seconds",))


class Accounting:
    """A thread's statement counts: *counts*, its statement-tally cell,
    a slot each (``counts[PLAN_HITS] += 1``) added once a statement or
    chunk, never a row; the statement's *limits* take rows fetched too
    (``explain analyze``); *tracing*: a sink was attached as it began."""

    __slots__ = ("counts", "limits", "tracing")

    def __init__(self, counts):
        self.counts = counts
        self.limits = None
        self.tracing = False

    def fetched(self, asked):
        """A source asked its table for *asked* rows."""
        self.counts[FETCHED] += asked
        limits = self.limits
        if limits is not None:
            limits.fetched += asked

    def text_search(self, candidates, new=True):
        """A trigram index pruned a variable to *candidates* rows (the
        stream learns its own a chunk at a time: *new* False)."""
        if new:
            self.counts[TEXT_SEARCHES] += 1
        self.counts[TEXT_CANDIDATES] += candidates

    def planned(self, sources, pinned):
        """The plan-time counts of one statement's chosen *sources*."""
        for source in sources:
            if source.text_candidates is not None:
                self.text_search(source.text_candidates)
            if pinned and source.access.startswith("index"):
                self.counts[INDEX_READS] += 1

    def pull(self, chunks, fetch):
        """The shared pull: ``fetch(chunk)``'s rows, a chunk of *chunks*
        at a time, none before the join asks: ``explain`` fetches
        nothing and a tail that stops early never pays for the chunks
        behind the one it stopped in."""
        counts = self.counts

        def counted(chunk):
            counts[FETCHED] += len(chunk)
            if self.limits is not None:
                self.limits.fetched += len(chunk)
            return fetch(chunk)

        return chain.from_iterable(map(counted, chunks))  # a hop a chunk


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


def text_rowids(table, text_restrictions, decided):
    """The intersection of the trigram-index candidate sets of
    *text_restrictions*, ascending when iterated, or None when no index
    contributed (index reads only: it runs inside a probe).  A gate with
    no index, or a sub-trigram query the index cannot bound, contributes
    nothing -- the exact predicate still verifies every materialized
    row in the join, so candidates stay a sound superset.  *decided*
    gains each ``similar_to`` conjunct an index answered, exactly."""
    rowids = None
    for attribute, operator, query, threshold, conjunct in text_restrictions:
        index = table.text_index_for(attribute)
        if index is None:
            continue
        if operator == "matches":
            matched = index.candidates_matching(query)
        elif (matched := index.candidates_similar(query, threshold)) is not None:
            decided.append(conjunct)
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
        return self._accounting.pull(self._chunks(first), self._fetch)


class IndexAccess:
    """The half of an :class:`IndexSource` that depends only on what a
    cached plan is keyed on, resolved once a plan: the table, the
    index over each equality restriction's column (None: the first run
    builds it, a schema change, so the next statement recompiles), the
    restrictions on attributes the table has no column for, the text
    gates, and the conjuncts the source answers.

    *restrictions* are ``(attribute, value)`` pairs, where
    ``value(rt, None)`` is the literal the executing statement probes
    with."""

    __slots__ = ("table", "scan_order", "indexed", "residual",
                 "text_restrictions", "answers")

    def __init__(self, declared, restrictions, text_restrictions, answers):
        table = self.table = declared.table
        self.scan_order = declared.scan_order
        has_column = table.schema.has_column
        self.indexed = tuple(
            (attribute, table.index_for(attribute), value)
            for attribute, value in restrictions if has_column(attribute)
        )
        self.residual = tuple(
            (attribute, value)
            for attribute, value in restrictions if not has_column(attribute)
        )
        self.text_restrictions = text_restrictions
        self.answers = tuple(answers)

    def probe(self, values):
        """The rowids the indexes hold for the restrictions, *values*
        being their literals in order, the text gates' included: None
        when nothing indexed answers; then whether a text gate pruned,
        and the ``similar_to`` gates an index decided (index reads
        only: it runs inside :meth:`Table.probe`)."""
        table, decided = self.table, []
        rowids = None
        if self.text_restrictions:
            rowids = text_rowids(table, self.text_restrictions, decided)
        text_pruned = rowids is not None
        for (attribute, index, _), value in zip(self.indexed, values):
            if rowids is not None and not rowids:
                break
            if index is None:
                # Adaptive access path: build the missing index once so
                # this and every later query answers from it.
                index = table.create_index(attribute)
            # A lookup answers ascending: a lone one is the candidate
            # list as it stands.
            matched = index.lookup(value)
            if rowids is not None:
                # Walk the lookup: a text gate's candidates are a set
                # to ask, not one to enumerate.
                held = set(rowids) if isinstance(rowids, list) else rowids
                matched = [rowid for rowid in matched if rowid in held]
            rowids = matched
        return rowids, text_pruned, decided


class IndexSource(_Source):
    """"index", "index text", or the scan no index spares ("filtered
    scan", "scan"; "snapshot scan" when pinned).

    Every equality restriction on a real column is answered from an
    index (:class:`IndexAccess`) and the rowid sets, text gates'
    included, are intersected before any row is materialized; one on an
    unknown attribute filters in place.  The index reads are one probe,
    whose stale rowids are merged into the ascending rowid list once;
    each chunk comes back through :meth:`Table.fetch`, which -- pinned
    -- re-checks the equalities on the visible version of each stale
    rowid (the join skips *answers*, so nothing downstream would; with
    no stale rowid they take each ``similar_to`` the index decided).
    A scan takes its rows at plan time, hence its count, as one chunk.
    """

    __slots__ = ("access", "answers", "text_candidates", "_plan", "_values",
                 "_residual", "_rowids", "_stale", "_rows")

    def __init__(self, plan, rt, accounting):
        self._declared, self._accounting = None, accounting
        self._plan = plan
        self.answers = plan.answers
        self.text_candidates = None
        self._rows = None
        table = plan.table
        self._values = values = [value(rt, None) for _, _, value in plan.indexed]
        self._residual = [
            (attribute, value(rt, None)) for attribute, value in plan.residual
        ] if plan.residual else None
        (rowids, text_pruned, decided), stale = table.probe(plan.probe, values)
        pinned = stale is not None
        if rowids is None:
            if plan.scan_order is None:
                rows = list(table)
            else:
                rows = table.sorted_by(plan.scan_order)
            self._rows = rows = self._kept(rows)
            self.count = len(rows)
            self.access = "snapshot scan" if pinned else (
                "filtered scan" if self._residual else "scan"
            )
            self.stale = 0
            return
        self.count = len(rowids)
        self.stale = len(stale) if pinned else 0
        if decided and not self.stale:
            self.answers = (*self.answers, *decided)
        if not isinstance(rowids, list):
            rowids = sorted(rowids)
        if stale:
            stale = frozenset(stale)
            rowids = sorted(stale.union(rowids))
        self._rowids, self._stale = rowids, stale
        self.access = "index"
        if text_pruned:
            self.access = "index text"
            self.text_candidates = self.count

    def _kept(self, rows):
        residual = self._residual
        if residual:
            rows = [
                row for row in rows
                if all(row.get(a) == v for a, v in residual)
            ]
        return rows

    def _verify(self, row):
        """The equalities the probe stood for, on a visible version."""
        return all(
            value_sort_key(row[attribute]) == value_sort_key(value)
            for (attribute, _, _), value in zip(self._plan.indexed, self._values)
        )

    def _chunks(self, first):
        if self._rows is not None:
            return (self._rows,)
        return slices(self._rowids, first)

    def _fetch(self, chunk):
        if self._rows is not None:
            return chunk
        stale = self._stale
        rows = self._plan.table.fetch(
            chunk, stale.intersection(chunk) if stale else stale, self._verify
        )
        return self._kept(rows) if self._residual else rows


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
        gate bounds it."""
        table = declared.table

        def rarest():
            best = None
            for attribute, operator, query, _threshold, _ in text_restrictions:
                index = table.text_index_for(attribute)
                if operator != "matches" or index is None:
                    continue
                estimate = index.estimate_matching(query)
                if estimate is not None and (best is None or estimate < best[0]):
                    best = (estimate, index, query)
            return best

        best, stale = table.probe(rarest)
        if best is None:
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


class RowHint:
    """What one execution learned of a variable's row in hand, in its
    bindings under ``(RowHint, variable)``: the ``value`` a text check
    read and its ``folded`` form (for that object only), and the Jaccard
    half :class:`TextTopK` read off the postings (None: use the grams)."""

    value = folded = jaccard = None


class TextTopK(_Source):
    """"index text topk": only ``similarity(v.attr, "literal")`` has a
    posting-count upper bound (:meth:`SimilarityScorer.bound_with`,
    tighter the more grams a row has beyond the shared ones), so under
    that sort key, descending, the gate candidates are taken a bucket of
    equal trigram overlap at a time, highest first, until the tail's
    bounded selection holds N rows no remaining bucket's bound can beat;
    the rest are never fetched, nor so much as enumerated.  Ties order
    by rowid, as a stable sort over "index text" would.  A drawn row's
    overlap and stored gram count, its exact Jaccard half, go in its hint."""

    __slots__ = ("text_candidates", "_scorer", "_index", "_buckets", "_seen",
                 "_variable", "_jaccards")
    access = "index text topk"

    @classmethod
    def plan(cls, declared, gates, variable, attribute, scorer, accounting):
        """Top-k by *scorer*'s similarity of *variable*'s *attribute* to
        its query, or None: no index on either side."""
        table = declared.table

        def overlaps():
            """The gate candidates bucketed by exact trigram overlap
            with the similarity query, from the postings alone."""
            index = table.text_index_for(attribute)
            if index is None:
                return None
            rowids = text_rowids(table, gates, [])
            if rowids is None:
                return None
            return rowids, index, index.overlap_counts(scorer.grams, rowids)

        planned, stale = table.probe(overlaps)
        if planned is None:
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
        source._scorer, source._variable, source._jaccards = scorer, variable, {}
        return source

    def _cells(self, selector):
        """``(bound, Jaccard half or None, rowids)`` cells that can enter
        the selection when reached: buckets highest overlap first, then
        cells of equal stored gram count fewest first (best bound), each
        until a bound cannot.  One probe a bucket reads its counts."""
        bound, jaccard = self._scorer.bound_with, self._scorer.jaccard
        probe, seen = self._declared.table.probe, self._seen
        for overlap, bucket in self._buckets:
            best = bound(overlap, overlap)
            if selector.entry(best, -1) is None:
                return
            cells, late = probe(self._index.size_cells, bucket)
            if late:
                # Rewritten since the postings were counted: the gram
                # count read now is another version's, the overlap is
                # not.  A row of *overlap* grams has the bucket's bound.
                late = sorted(r for r in late if r in bucket)
                yield best, None, late
                seen.update(late)
            for size, cell in cells:
                score = bound(overlap, size)
                if selector.entry(score, -1) is None:
                    break
                # Fewer grams than the overlap: every row here is late.
                yield score, jaccard(overlap, size) if size >= overlap else None, cell

    def _best_first(self, selector):
        """Ascending rowid chunks of :meth:`_cells`' rows, cut by the chunk
        rule, all but the last whole; a row's Jaccard half waits in
        ``_jaccards`` for its fetch.  The selection moves only while a
        chunk is out, so a cell's bound is asked again then."""
        seen, jaccards = self._seen, self._jaccards
        if seen:
            yield sorted(seen)
        sizes = chunk_sizes(selector.limit)
        size, chunk = next(sizes), []
        for bound, jaccard, cell in self._cells(selector):
            for rowid in cell:
                if rowid in seen:
                    continue
                chunk.append(rowid)
                jaccards[rowid] = jaccard
                if len(chunk) == size:
                    yield sorted(chunk)
                    size, chunk = next(sizes), []
                    if selector.entry(bound, -1) is None:
                        break
        if chunk:
            yield sorted(chunk)

    def pull(self, bindings, first, selector):
        hint = bindings[RowHint, self._variable] = RowHint()
        for candidate in self._accounting.pull(
            self._best_first(selector), self._declared.table.get_many
        ):
            selector.seq = candidate.rowid
            hint.jaccard = self._jaccards.pop(candidate.rowid, None)
            yield candidate


class OrderRange(_Source):
    """"order range": with the driver of a ``before`` / ``after`` /
    ``under`` conjunct bound, the other side is one :meth:`Ordering.walk`
    per driver binding.  The children its membership rows name
    materialize, in sibling order, through one probe and fetch of the
    enumerated type's surrogate index, which drops children of other
    types -- the rows the conjunct would have rejected.  Each walk
    counts the membership and the entity rows it asked for; never
    outermost, it meets no early-exit bound: one chunk per walk, pulled
    with the bindings alone.  *driver* is the driver variable's range.
    The table, its surrogate index and the walk's front are resolved
    here, once a plan."""

    __slots__ = ("answers", "_ordering", "_driver", "_driver_var", "_under",
                 "_walk", "_table", "_rowids_of", "_surrogate_at", "_child_at")
    access = "order range"
    stale = 0
    correlated = True

    def __init__(self, option, ordering, declared, driver, accounting):
        _Source.__init__(self, declared, accounting)
        self.count = ordering.table.row_estimate()
        self.answers = (option.conjunct_index,)
        self._ordering = ordering
        self._driver = driver
        self._driver_var = option.driver_var
        self._under = option.mode == "under"
        self._walk = {
            "under": ordering.member_rows_under,
            "before": ordering.member_rows_before,
            "after": ordering.member_rows_after,
        }[option.mode]
        self._table = declared.table
        self._rowids_of = self._table.index_for(SURROGATE_COLUMN).lookup_many
        # Where a driver row holds its surrogate and a membership row
        # its child: leading columns, which every row has.
        self._surrogate_at = driver.table.schema.layout[SURROGATE_COLUMN]
        self._child_at = ordering.table.schema.layout["child"]

    def pull(self, bindings, first=None, selector=None):
        row = bindings.get(self._driver_var)
        if row is None:
            return ()
        if self._under:
            members = self._walk(row.values[self._surrogate_at])
        else:
            member = self._ordering.member_row_of(self._driver.wrap(row))
            if member is None:
                return ()
            members = self._walk(member)
        at = self._child_at
        children = [member.values[at] for member in members]
        table = self._table
        rowids, stale = table.probe(self._rowids_of, children)
        self._accounting.fetched(len(members) + len(rowids))
        if not stale:
            return table.fetch(rowids, stale, None)
        # Merged in by rowid: checked, then put back into sibling order.
        place = {child: slot for slot, child in enumerate(children)}
        rows = table.fetch(
            rowids, stale, lambda row: row[SURROGATE_COLUMN] in place
        )
        rows.sort(key=lambda row: place[row[SURROGATE_COLUMN]])
        return rows


# -- who picks -----------------------------------------------------------------------------


def _early_source(compiled, rt, accounting):
    """The source the plan's ``early_exit`` names, or None when its
    plan-time probe finds it cannot serve (see its ``plan``)."""
    kind, variable, *sort_key = compiled.early_exit
    declared = rt._range_for(variable)
    gates = compiled.text_restrictions[variable]
    if kind == "stream":
        return TextStream.plan(declared, gates, accounting)
    return TextTopK.plan(declared, gates, variable, *sort_key, accounting)


def choose(compiled, rt, pinned, accounting):
    """Pick the source of every variable *compiled* uses and the order
    the join binds them in: ``(order, {variable: source})``.  *rt* is
    the executing session, whose ranges the plan's match and whose
    literal vector the restrictions read.  What selects a source is
    observed, never configured:

    * an order conjunct with one side bound enumerates the other
      (:class:`OrderRange`), placed after its driver; mutually-driven
      ones (a before b and b before a) get plain sources and let the
      per-row checks decide;
    * a ``limit N`` text retrieve over one variable streams its
      candidates (``CompiledStatement.early_exit``);
    * everything else answers from the restrictions an index can answer
      (:class:`IndexSource`), smallest candidate set first.

    *accounting* is the statement's: the sources count into it.
    """
    used = compiled.used
    accesses = compiled.accesses
    sources = {}
    driven = dict(compiled.pushdowns)
    early = (
        _early_source(compiled, rt, accounting) if compiled.early_exit
        else None
    )
    if early is not None:
        sources[used[0]] = early
        order = list(used)
    else:
        order = [variable for variable in used if variable not in driven]
        for variable in order:
            sources[variable] = IndexSource(accesses[variable], rt, accounting)
        if len(order) > 1:
            order = planner.order_variables(order, sources, compiled.conjuncts)
    while driven:
        ready = [v for v in sorted(driven) if driven[v].driver_var in sources]
        if not ready:
            for variable in sorted(driven):
                sources[variable] = IndexSource(
                    accesses[variable], rt, accounting
                )
                order.append(variable)
            break
        option = driven.pop(ready[0])
        sources[ready[0]] = OrderRange(
            option, rt.schema.ordering(option.order_name),
            rt._range_for(ready[0]), rt._range_for(option.driver_var),
            accounting,
        )
        order.append(ready[0])
    accounting.planned(sources.values(), pinned)
    return order, sources
