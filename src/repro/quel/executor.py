"""QUEL execution against a schema.

A :class:`QuelSession` holds range-variable declarations and executes
statements.  Each statement is compiled once (:mod:`repro.quel.compile`)
and runs one pipeline: planning picks a candidate source per range
variable, a backtracking join binds the candidates and checks the
qualification's conjuncts, and the statement's tail projects, sorts,
limits, aggregates or mutates.  The entity operators ``is``,
``before``, ``after`` and ``under`` evaluate per the section 5.6
semantics.

Statements run under table locks: every range variable's table is
read-locked (shared) and a mutation's target table write-locked
(exclusive) before rows are touched, so concurrent writers cannot
produce torn reads.  Inside a transaction the locks join the
transaction (strict 2PL); outside one they are statement-scoped -- an
ephemeral lock owner is allocated and released when the statement ends,
on success *and* on error.

Execution is also bounded: a thread-local :class:`ExecutionLimits`
(installed by the session layer, or directly via
:meth:`QuelSession.set_limits`) threads a deadline and row budget into
the join loop, which raises ``QueryTimeoutError`` /
``ResourceLimitError`` instead of looping unboundedly.
"""

import threading
import time
from bisect import bisect_left
from itertools import chain, islice

from repro.errors import QueryError, QueryTimeoutError, ResourceLimitError
from repro.core.entity import SURROGATE_COLUMN, EntityInstance
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, span, tracing_active
from repro.quel import ast
from repro.quel.cache import CachedStatement, shape_cache_for
from repro.quel.compile import bound_slots, compile_statement
from repro.quel.functions import FunctionRegistry, scalar_similarity
from repro.quel.parser import parse_quel
from repro.quel import planner
from repro.storage.table import SWAMPED
from repro.storage.values import value_sort_key
from repro.text import SimilarityScorer


class ExecutionLimits:
    """A deadline and row budget bounding one thread's query execution.

    *deadline* is absolute ``time.monotonic``; *row_budget* caps the
    number of candidate rows the join loop may visit.  ``tick`` is
    called once per candidate visit and checks the deadline every 64
    visits (a monotonic read per row would dominate small queries).
    """

    __slots__ = ("deadline", "row_budget", "visits", "fetched")

    def __init__(self, deadline=None, row_budget=None):
        self.deadline = deadline
        self.row_budget = row_budget
        self.visits = 0
        self.fetched = 0  # rows the sources asked for, a chunk at a time

    def check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError(
                "query exceeded its deadline after %d candidate rows"
                % self.visits
            )

    def tick(self):
        self.visits += 1
        if self.row_budget is not None and self.visits > self.row_budget:
            raise ResourceLimitError(
                "query exceeded its row budget of %d candidate rows"
                % self.row_budget
            )
        if (self.visits & 63) == 0:
            self.check_deadline()


def _text_rowids(table, text_restrictions):
    """Trigram-index candidate rowids for *text_restrictions*.  Reads
    index structures only, so it runs inside a :meth:`Table.probe`.

    Returns the intersection of the per-gate candidate sets, ascending
    when iterated, or None when no trigram index contributed.  A gate
    with no index, or a sub-trigram query the index cannot bound,
    contributes nothing -- the exact predicate still verifies every
    materialized row downstream, so candidates remain a sound superset.
    Every gate an index can answer is sent to it: a ``matches`` gate's
    candidates are an AND over bitsets however many they are, a
    ``similar_to`` gate's are the rows that pass.
    """
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


class _EntityRange:
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


class _RelationshipRange:
    """A range variable over a relationship: candidates are its rows,
    scanned in table order."""

    kind = "relationship"
    scan_order = None

    def __init__(self, relationship):
        self.relationship = relationship
        self.type_name = relationship.name
        self.table = relationship.table
        self.key = (self.kind, self.type_name)

    def wrap(self, row):
        return row


def _chunk_sizes(first):
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


def _slices(items, first):
    """List *items* cut by the chunk rule; one slice holding everything
    when the statement has no early-exit bound (*first* None)."""
    start = 0
    for size in _chunk_sizes(first or len(items)):
        if start >= len(items):
            return
        yield items[start:start + size]
        start += size


class QuelSession:
    """Stateful QUEL session over one schema.

    Every statement runs one pipeline.  Source text is parsed, and each
    statement lowered to Python closures, once per *shape* -- the text
    with its literals cut out -- in the database's shape cache
    (:mod:`repro.quel.cache`); the literals a plan leaves bound travel
    beside the execution, on this session's thread-local.  Planning picks a
    candidate source per range variable from what it observes -- a
    pinned snapshot, which restrictions an index can answer, the
    statement's ``limit``/sort shape (see :meth:`_prepare_compiled`) --
    and a single join loop binds candidates, runs the conjunct checks
    and feeds the statement's tail.
    """

    def __init__(self, schema):
        self.schema = schema
        self.ranges = {}
        self.functions = FunctionRegistry()
        self._last_plan = None
        # Per thread, because one session serves many: the execution
        # limits, and the executing statement's literal vector.
        self._local = threading.local()
        # Statement-level metrics ("quel.*") land in the database's
        # registry; increments are per statement, never per row.
        metrics = getattr(schema.database, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._statements = self.metrics.counter("quel.statements")
        self._rows_returned = self.metrics.counter("quel.rows_returned")
        self._rows_fetched = self.metrics.counter("quel.rows_fetched")
        self._statement_seconds = self.metrics.histogram(
            "quel.statement_seconds"
        )
        # One queue write per statement covers both the counter and
        # the latency histogram (they drain it on read).
        self._statement_tally = self.metrics.tally(
            "quel.statements", "quel.statement_seconds"
        )
        # Text-gate accounting: statements whose plan pruned through a
        # trigram index, and how many candidate rows survived pruning.
        self._text_searches = self.metrics.counter("text.searches")
        self._text_candidates = self.metrics.counter("text.candidates")
        # Pinned-snapshot reads: range variables answered from an index,
        # and the ones a swamped stale set sent back to a scan.
        self._snapshot_index_reads = self.metrics.counter(
            "quel.snapshot_index_reads"
        )
        self._snapshot_scan_fallbacks = self.metrics.counter(
            "quel.snapshot_scan_fallbacks"
        )
        self._shapes = shape_cache_for(schema.database, self.metrics)
        self._last_shape = None
        self._last_cache_info = None

    @property
    def last_cache_info(self):
        """'hit' or 'miss' for the last statement's plan-cache lookup,
        or None when the statement did not consult the cache."""
        return self._last_cache_info

    @property
    def last_shape(self):
        """The shape of the last source text executed: the statement
        with ``?`` where a literal stood (or None)."""
        return self._last_shape

    @property
    def last_plan(self):
        """The most recent statement's plan, rendered as text (or None).

        The executor keeps the structured :class:`~repro.quel.planner.
        QueryPlan` (see :attr:`last_plan_object`); the text is built
        lazily here so queries never pay for string formatting.
        """
        if self._last_plan is None:
            return None
        return self._last_plan.render()

    @property
    def last_plan_object(self):
        """The most recent statement's QueryPlan (or None)."""
        return self._last_plan

    # -- execution limits --------------------------------------------------------

    def set_limits(self, deadline=None, row_budget=None):
        """Install a deadline/row budget for this thread's statements."""
        self._local.limits = ExecutionLimits(deadline, row_budget)

    def clear_limits(self):
        self._local.limits = None

    @property
    def limits(self):
        return getattr(self._local, "limits", None)

    # -- public API ------------------------------------------------------------

    def execute(self, source):
        """Execute a QUEL program; returns the last statement's result.

        Retrieves return a list of result dicts; mutations return the
        affected-instance count; range statements return None.  A
        source is parsed at most once per shape: a repeat, or the same
        statement with other literals, finds the parse in the shape
        cache and runs it with its own literal vector.
        """
        shape, literals = self._shapes.lookup(source)
        if shape is None:
            with span("quel.parse"):
                statements = parse_quel(source)
            bound = frozenset(bound_slots(statements))
            shape = self._shapes.store(
                source, literals,
                [
                    CachedStatement(statement, self._used_by(statement), bound)
                    for statement in statements
                ],
                bound,
            )
        self._last_shape = shape.text
        local = self._local
        # Restored, not cleared: a registered function may run a
        # statement of its own in the middle of this one.
        outer = getattr(local, "literals", None)
        local.literals = literals
        try:
            result = None
            for cached in shape.statements:
                result = self._execute(cached.statement, cached)
            return result
        finally:
            local.literals = outer

    def execute_statement(self, statement):
        """Execute one bare AST node: compiled on the spot with every
        literal a constant, nothing cached."""
        return self._execute(statement, None)

    def _execute(self, statement, cached):
        self._last_cache_info = None
        if isinstance(statement, ast.RangeStatement):
            return self._declare_range(statement)
        if isinstance(statement, ast.ExplainStatement):
            return self._explain(statement, cached)
        # The tracer check is hoisted so the no-sink path skips the
        # span calls (and their kwargs dicts) entirely -- that is how
        # the 3% overhead budget holds for cached compiled statements.
        statement_span = (
            span("quel.statement", kind=type(statement).__name__)
            if tracing_active()
            else NOOP_SPAN
        )
        started = time.monotonic()
        try:
            return self._dispatch(statement, cached)
        except (QueryTimeoutError, ResourceLimitError) as exc:
            self._record_partial_progress(exc)
            statement_span.record("error", type(exc).__name__)
            raise
        finally:
            if statement_span is not NOOP_SPAN:
                statement_span.finish()
            self._statement_tally.observe(time.monotonic() - started)

    def _dispatch(self, statement, cached):
        compiled = self._compiled_for(statement, cached)
        if isinstance(statement, ast.RetrieveStatement):
            return self._with_statement_locks(self._retrieve, compiled)
        if isinstance(statement, ast.AppendStatement):
            return self._with_statement_locks(
                self._append, compiled,
                write_target=lambda: self.schema.entity_type(
                    statement.entity_type
                ).table.name,
            )
        # Replace or delete: _compiled_for rejected every other kind.
        method = (
            self._replace
            if isinstance(statement, ast.ReplaceStatement)
            else self._delete
        )
        return self._with_statement_locks(
            method, compiled,
            write_target=lambda: self._range_for(statement.variable).table.name,
        )

    # -- the compile-and-cache layer ---------------------------------------------

    def _used_by(self, statement):
        """The range variables *statement*'s plan joins over, sorted;
        None for a statement that has no plan."""
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement  # the parser nests none
        if isinstance(statement, ast.RangeStatement):
            return None
        return self._plan_parts(statement)[0]

    def _compiled_for(self, statement, cached=None):
        """The compiled form of *statement*.

        *cached* is its entry in the shape cache, whose plans are keyed
        on what a plan depends on beside the statement -- the bindings
        of the range variables it uses and the function registry -- and
        valid at one schema epoch; compiles and stores on miss.  A bare
        AST (no entry) is compiled on the spot.  A statement kind that
        cannot be compiled raises ``QueryError``.
        """
        if cached is None:
            self._last_cache_info = "miss"
            return compile_statement(statement, self)
        shapes = self._shapes
        epoch = self.schema.database.schema_epoch
        functions_version = self.functions.version
        range_for = self._range_for
        key = (
            tuple([range_for(variable).key for variable in cached.used]),
            # Pristine registries are interchangeable; a session that
            # registered functions gets entries private to its registry
            # (the plan's reference also pins the registry, so the key
            # can never alias a recycled one).
            self.functions if functions_version else None,
            functions_version,
        )
        found = cached.plans.get(key)
        if found is not None:
            if found[0] == epoch:
                shapes.hits.inc()
                self._last_cache_info = "hit"
                return found[1]
            shapes.invalidations.inc()
        shapes.misses.inc()
        self._last_cache_info = "miss"
        compiled = compile_statement(statement, self, cached.bound)
        shapes.store_plan(cached, key, epoch, compiled)
        return compiled

    def _record_partial_progress(self, exc):
        """Publish how far a timed-out/over-budget statement got.

        The shell reads these to print partial-progress counters with
        the error instead of swallowing them.
        """
        limits = self.limits
        visits = limits.visits if limits is not None else 0
        name = (
            "quel.timeouts"
            if isinstance(exc, QueryTimeoutError)
            else "quel.row_budget_exceeded"
        )
        self.metrics.counter(name).inc()
        self.metrics.gauge("quel.last_partial_rows_visited").set(visits)

    # -- explain / explain analyze ---------------------------------------------

    def _explain(self, statement, cached):
        inner = statement.statement
        if isinstance(inner, ast.ExplainStatement):
            raise QueryError("explain cannot be nested")
        if isinstance(inner, ast.RangeStatement):
            self._declare_range(inner)
            return [{"plan": "range declaration (no plan)"}]
        if statement.analyze:
            return self._explain_analyze(inner, cached)
        return self._with_statement_locks(
            self._plan_only, self._compiled_for(inner, cached)
        )

    def _plan_parts(self, statement):
        """The (used variables, qualification) a statement would join over."""
        variables_in = planner.variables_in
        used = variables_in(statement.where)
        if isinstance(statement, ast.RetrieveStatement):
            for target in statement.targets:
                used |= variables_in(target)
            used |= variables_in(statement.sort_by)
        elif isinstance(statement, ast.DeleteStatement):
            used.add(statement.variable)
        else:
            if isinstance(statement, ast.ReplaceStatement):
                used.add(statement.variable)
            for _, expression in statement.assignments:
                used |= variables_in(expression)
        return sorted(used), statement.where

    def _plan_only(self, compiled):
        # gate=False: explain plans without evaluating anything, not
        # even the constant conjuncts.
        self._prepare_compiled(compiled, gate=False)
        return self._last_plan.rows()

    def _explain_analyze(self, inner, cached):
        """Execute *inner* fully, then report plan + actual counts/time.

        Candidate-row visits are counted by a temporary
        :class:`ExecutionLimits` (inheriting any installed deadline and
        row budget), so the steady-state join loop never carries an
        always-on per-row counter.
        """
        previous = self.limits
        self._local.limits = ExecutionLimits(
            deadline=previous.deadline if previous is not None else None,
            row_budget=previous.row_budget if previous is not None else None,
        )
        started = time.monotonic()
        try:
            result = self._dispatch(inner, cached)
            elapsed = time.monotonic() - started
            visits, fetched = self.limits.visits, self.limits.fetched
        finally:
            self._local.limits = previous
        plan = self._last_plan
        rows = plan.rows() if plan is not None else [{"plan": "(no plan)"}]
        if plan is not None and plan.snapshot is not None:
            rows.append(
                {"plan": "snapshot %d: +%d stale rowids" % plan.snapshot}
            )
        count = len(result) if isinstance(result, list) else result
        rows.append({"plan": "rows: %s" % count})
        rows.append({"plan": "rows visited: %d" % visits})
        rows.append({"plan": "rows fetched: %d" % fetched})
        rows.append({"plan": "time: %.3f ms" % (elapsed * 1000.0)})
        return rows

    def _with_statement_locks(self, method, compiled, write_target=None):
        """Run *method(compiled)* under statement-scoped lock ownership.

        Pre-acquires the exclusive lock on a mutation's target table;
        range-variable tables are share-locked as the binding generator
        resolves them.  Ephemeral (no-transaction) owners release their
        locks when the statement ends, success or error; transactional
        owners keep theirs until commit/abort (strict 2PL).

        Read statements in *snapshot mode* -- the thread has a pinned
        MVCC snapshot, or the database is degraded with no transaction
        active -- skip all of that: no statement owner is allocated and
        the lock manager is never touched, because visibility comes from
        the version chains.
        """
        database = self.schema.database
        transactions = database.transactions
        if write_target is None and self._snapshot_read_mode(database):
            pin = transactions.current_snapshot() is None
            if pin:
                transactions.pin_snapshot()
            try:
                limits = self.limits
                if limits is not None:
                    limits.check_deadline()
                return method(compiled)
            finally:
                if pin:
                    transactions.unpin_snapshot()
        owner, ephemeral = transactions.begin_statement()
        try:
            limits = self.limits
            if limits is not None:
                limits.check_deadline()
            if write_target is not None:
                database.write_table(write_target())
            return method(compiled)
        finally:
            if ephemeral:
                transactions.end_statement(owner)

    @staticmethod
    def _snapshot_read_mode(database):
        """True when a read statement should run against a snapshot."""
        transactions = database.transactions
        if transactions.current_snapshot() is not None:
            return True
        # Degraded (read-only) databases serve every standalone read
        # lock-free: there is nothing a lock could protect against, and
        # S-lock churn on the healed path was a real regression.
        return database.degraded and transactions.current() is None

    def register_function(self, name, function, aggregate=False):
        if aggregate:
            self.functions.register_aggregate(name, function)
        else:
            self.functions.register_scalar(name, function)

    # -- range variables ----------------------------------------------------------

    def _range_over(self, name):
        """A range over the entity type or relationship *name*, or None."""
        if self.schema.has_entity_type(name):
            return _EntityRange(self.schema.entity_type(name))
        if name in self.schema.relationships:
            return _RelationshipRange(self.schema.relationship(name))
        return None

    def _declare_range(self, statement):
        target = self._range_over(statement.entity_type)
        if target is None:
            raise QueryError(
                "range over unknown type %r" % statement.entity_type
            )
        for variable in statement.variables:
            self.ranges[variable] = target
        return None

    def _range_for(self, variable):
        declared = self.ranges.get(variable)
        if declared is not None:
            return declared
        # Footnote 6: a range variable with the same name as its entity
        # type (or relationship) is implicitly declared.
        target = self._range_over(variable)
        if target is None:
            raise QueryError("undeclared range variable %r" % variable)
        self.ranges[variable] = target
        return target

    def _resolve_ordering(self, clause_name, instances, parent=None):
        """Find the ordering for before/after/under given the operands."""
        if clause_name is not None:
            return self.schema.ordering(clause_name)
        candidates = []
        for ordering in self.schema.orderings.values():
            if any(
                instance.type.name not in ordering.child_types
                for instance in instances
            ):
                continue
            if parent is not None and ordering.parent_type != parent.type.name:
                continue
            candidates.append(ordering)
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise QueryError(
                "no ordering admits operand types %s"
                % ", ".join(sorted({i.type.name for i in instances}))
            )
        raise QueryError(
            "ambiguous ordering; specify 'in <order_name>' (candidates: %s)"
            % ", ".join(sorted(o.name for o in candidates))
        )

    # -- planning: one candidate source per range variable ------------------------------

    def _choose_pushdowns(self, compiled):
        """Pick at most one pushdown option per order conjunct.

        The enumerated variable must not carry equality restrictions (an
        index lookup would already make it cheap) and may be enumerated
        for only one conjunct.  Among a conjunct's options, one whose
        driver is restricted wins: the driver binds early and small.
        Returns ``(dynamic, consumed)``: enum var -> option, plus the
        conjunct indices the enumeration answers by construction.
        """
        dynamic = {}
        consumed = set()
        by_conjunct = {}
        for option in compiled.pushdown_options:
            by_conjunct.setdefault(option.conjunct_index, []).append(option)
        for index in sorted(by_conjunct):
            best = None
            best_restricted = False
            for option in by_conjunct[index]:
                if option.enum_var in dynamic:
                    continue
                if compiled.restrictions.get(option.enum_var):
                    continue
                restricted = bool(compiled.restrictions.get(option.driver_var))
                if best is None or (restricted and not best_restricted):
                    best = option
                    best_restricted = restricted
            if best is not None:
                dynamic[best.enum_var] = best
                consumed.add(index)
        return dynamic, consumed

    def _pull(self, declared, chunks, fetch):
        """The shared pull: *declared*'s candidates, a chunk of *chunks*
        at a time -- ``fetch(chunk)``'s rows, wrapped.  Nothing is
        fetched before the join asks, so plain ``explain`` fetches
        nothing and a tail that stops early never pays for the chunks
        behind the one it stopped in.  What each chunk asked its table
        for is counted per chunk, not per row: ``quel.rows_fetched``,
        and ``rows fetched`` under ``explain analyze``."""
        wrap = declared.wrap
        limits = self.limits

        def pools():
            for chunk in chunks:
                self._rows_fetched.inc(len(chunk))
                if limits is not None:
                    limits.fetched += len(chunk)
                yield [wrap(row) for row in fetch(chunk)]

        return chain.from_iterable(pools())  # a hop per chunk, not per row

    def _candidates(self, declared, restrictions, text_restrictions):
        """The candidate source of range *declared* under *restrictions*.

        Every equality restriction on a real column is answered from an
        index -- built on first use if absent, so it never silently
        degrades to a filtered scan (relationship role columns are
        indexed at definition time) -- and the rowid sets are
        intersected before any row is materialized.  Text gates in
        *text_restrictions* prune through the trigram index when one
        exists ("index text" access); the exact predicate re-verifies
        every survivor in the join, so candidates are a sound superset.
        Restrictions on unknown attributes filter in place rather than
        triggering a full unfiltered scan.

        The same code runs under a table lock and under a pinned MVCC
        snapshot: the index reads happen inside one :meth:`Table.probe`,
        whose stale rowids are merged into the ascending rowid list
        once, and each chunk comes back through :meth:`Table.fetch`,
        which -- pinned -- re-checks the equalities on each visible
        version (the join skips a static variable's restriction
        conjuncts, so nothing downstream would).

        Returns ``(count, pull, access, stale)``.  *count* is what the
        probe answered, neither inflated by stale rowids nor reduced by
        the re-check; ``pull(first, selector)`` is the :meth:`_pull`
        over the rowids cut by the chunk rule.  *access* is "index",
        "index text", "filtered scan" or "scan" -- or "snapshot scan", a
        pinned read no index applied to.  *stale* counts the stale
        rowids an index read took in (0 when not pinned); None says the
        table was :data:`~repro.storage.table.SWAMPED` and is scanned.
        """
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
            rowids = _text_rowids(table, text_restrictions)
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
            # A scan takes its rows now -- that is how it knows its
            # count -- and hands them over as one chunk.
            if rowids is not None:
                rows = table.fetch(rowids, SWAMPED, verify)
            elif declared.scan_order is None:
                rows = list(table)
            else:
                rows = table.sorted_by(declared.scan_order)
            rows = kept(rows)
            access = "filtered scan" if residual else "scan"
            return (
                len(rows),
                lambda first, selector: self._pull(declared, (rows,), iter),
                "snapshot scan" if pinned else access,
                0 if rowids is None else None,
            )
        count = len(rowids)
        taken = len(stale) if pinned else 0
        if not isinstance(rowids, list):
            rowids = sorted(rowids)
        if stale:
            rowids, stale = sorted(set(rowids).union(stale)), ()
        return (
            count,
            lambda first, selector: self._pull(
                declared, _slices(rowids, first),
                lambda chunk: kept(table.fetch(chunk, stale, verify)),
            ),
            "index text" if text_pruned else "index",
            taken,
        )

    def _limit_text_source(self, compiled, declared):
        """The early-exit source for a ``limit N`` text retrieve, or None.

        Both forms serve a non-unique, non-aggregate ``limit N``
        retrieve over one entity variable with at least one pushable
        text gate and no equality restriction (equality would change
        the candidate set); neither materializes the full gate
        candidate set, which grows with the table.

        *Unsorted* -- "index text stream": the rarest ``matches`` gate's
        posting intersection itself advances a chunk at a time
        (:meth:`_stream_candidates`), only far enough for the join to
        verify N rows, in "index text"'s ascending rowid order.

        *Sorted by* ``similarity(v.attr, "literal")`` *descending* --
        "index text topk": only this sort key has a posting-count upper
        bound (:meth:`SimilarityScorer.bound`, tightened per row by
        :meth:`~SimilarityScorer.bound_with`), so the gate candidates
        are taken a bucket of equal trigram overlap at a time, highest
        first, until the tail's bounded selection holds N rows no
        remaining bucket's bound can beat; the rest are never fetched,
        nor so much as enumerated.
        Ties order by rowid, as a stable sort over "index text" would.

        Both read the index inside :meth:`Table.probe`, so they run
        pinned exactly as locked; a table whose stale set has outgrown
        the candidate cap gets neither (None: the generic source scans).
        Returns ``(count, pull, access, stale)`` like :meth:`_candidates`.
        """
        statement = compiled.statement
        variable = compiled.used[0]
        text_restrictions = compiled.text_restrictions.get(variable)
        if (
            compiled.kind != "RetrieveStatement"
            or statement.limit is None
            or statement.unique
            or compiled.aggregates
            or declared.kind != "entity"
            or compiled.restrictions.get(variable)
            or not text_restrictions
        ):
            return None
        table = declared.table
        if statement.sort_by is None:
            def rarest():
                best = None
                for attribute, operator, query, _threshold in text_restrictions:
                    index = table.text_index_for(attribute)
                    if operator != "matches" or index is None:
                        continue
                    estimate = index.estimate_matching(query)
                    if estimate is not None and (
                        best is None or estimate < best[0]
                    ):
                        best = (estimate, index, query)
                return best

            best, stale = table.probe(rarest)
            if best is None or stale is SWAMPED:
                return None
            estimate, index, query = best
            self._text_searches.inc()
            return (
                estimate,
                lambda first, selector: self._stream_candidates(
                    declared, index, query, first
                ),
                "index text stream", len(stale or ()),
            )
        spec = _similarity_sort_key(statement.sort_by)
        if not statement.descending or spec is None or spec[0] != variable:
            return None
        # The score bound replicates the *builtin* similarity();
        # sessions that rebound the name keep the generic sources.
        if self.functions.scalar("similarity") is not scalar_similarity:
            return None
        scorer = SimilarityScorer(spec[2])
        if not scorer.grams:
            return None  # sub-trigram query: no overlap bound exists

        def overlaps():
            """The gate candidates bucketed by exact trigram overlap
            with the similarity query, from the postings alone."""
            index = table.text_index_for(spec[1])
            if index is None:
                return None
            rowids = _text_rowids(table, text_restrictions)
            if rowids is None:
                return None
            return rowids, index, index.overlap_counts(scorer.grams, rowids)

        planned, stale = table.probe(overlaps)
        if planned is None or stale is SWAMPED:
            return None
        rowids, index, buckets = planned
        # What the postings say about a stale rowid describes some other
        # version of it: it is fetched first and scored exactly.
        seen = set(stale or ())
        count = len(rowids) + sum(rowid not in rowids for rowid in seen)
        self._text_searches.inc()
        self._text_candidates.inc(count)

        def sized(overlap, bucket):
            """A bucket's rowids not fetched yet, and their rows' stored
            gram counts."""
            bucket = [rowid for rowid in bucket if rowid not in seen]
            return bucket, index.row_gram_counts(bucket)

        def ranked(selector):
            """The candidates that can still enter the selection as it
            stands when each is drawn: a bucket at a time, highest
            overlap first, until a bucket's bound cannot; best bound
            first within a bucket (a row's stored gram count tightens
            it), until a row's cannot."""
            for overlap, bucket in buckets:
                if selector.entry(scorer.bound(overlap), -1) is None:
                    return
                (bucket, sizes), late = table.probe(sized, overlap, bucket)
                if late:
                    # Rewritten since the postings were counted: the gram
                    # count read now is another version's, the overlap is
                    # not.  A row of *overlap* grams has the bucket's bound.
                    late = set(bucket if late is SWAMPED else late)
                    sizes = [
                        overlap if rowid in late else size
                        for rowid, size in zip(bucket, sizes)
                    ]
                bound_of = {
                    size: -scorer.bound_with(overlap, size)
                    for size in set(sizes)
                }
                bounds = map(bound_of.get, sizes)
                for bound, rowid in sorted(zip(bounds, bucket)):
                    if selector.entry(-bound, -1) is None:
                        break
                    yield rowid

        def best_first(selector):
            """Ascending rowid chunks of *ranked*, cut by the chunk
            rule: all but the last are whole."""
            if seen:
                yield sorted(seen)
            source = ranked(selector)
            for size in _chunk_sizes(selector.limit):
                chunk = sorted(islice(source, size))
                if not chunk:
                    return
                yield chunk

        def pull(first, selector):
            for candidate in self._pull(
                declared, best_first(selector), table.get_many
            ):
                selector.seq = candidate.rowid
                yield candidate

        return count, pull, "index text topk", len(seen)

    def _stream_candidates(self, declared, index, query, first):
        """The pull over *index*'s lazy ``matches`` stream: one
        :meth:`Table.matching_chunks` chunk per fetch, cut by the chunk
        rule, so abandoning the pull costs nothing."""
        table = declared.table

        def fetch(chunk):
            self._text_candidates.inc(len(chunk))
            return table.get_many(chunk)

        chunks = table.matching_chunks(index, query, _chunk_sizes(first))
        return self._pull(declared, chunks, fetch)

    def _prepare_compiled(self, compiled, gate=True):
        """Lock tables, pick every variable's candidate source, and
        order the join.

        What selects a source is observable, never configured:

        * an order conjunct (``before``/``after``/``under``) with one
          side bound enumerates the other side by one
          :meth:`Ordering.walk` per driver binding ("order range"), so
          that variable gets no static candidate list;
        * a ``limit N`` text retrieve over one variable streams its
          candidates (:meth:`_limit_text_source`);
        * everything else answers from the restrictions an index can
          answer (:meth:`_candidates`) -- either way planning reads the
          indexes only, and the rows are fetched a chunk at a time
          (:meth:`_pull`) once the join asks.

        A pinned snapshot (lock-free MVCC read) takes no locks and
        otherwise changes nothing here: every source reads its indexes
        through :meth:`Table.probe`, which is what adds the table's
        stale rowids to the candidates; "snapshot scan" is what a
        pinned variable no index applies to is labelled.

        Returns ``(order, pulls, dynamic, checks_by_level)``, or None
        when a constant conjunct gates the whole query out (*gate*;
        explain passes False so nothing is evaluated).
        """
        plan_span = span("quel.plan") if tracing_active() else NOOP_SPAN
        try:
            ranges = {}
            database = self.schema.database
            read_table = database.read_table
            snapshot = database.transactions.current_snapshot()
            for variable in compiled.used:
                ranges[variable] = self._range_for(variable)
                # Shared lock before any read: concurrent writers cannot
                # produce torn reads of this table mid-statement.  (A
                # pinned snapshot makes this a no-op: version chains,
                # not locks, keep the read consistent.)
                read_table(ranges[variable].table.name)
            dynamic = {}
            consumed = set()
            if compiled.pushdown_options:
                dynamic, consumed = self._choose_pushdowns(compiled)

            pulls = {}
            accesses = {}
            counts = {}
            stale_rowids = 0

            def bind_static(variable):
                nonlocal stale_rowids
                (counts[variable], pulls[variable], accesses[variable],
                 stale) = self._candidates(
                    ranges[variable],
                    [
                        (attribute, value(self, None)) for attribute, value
                        in compiled.restrictions.get(variable, ())
                    ],
                    compiled.text_restrictions.get(variable, ()),
                )
                if accesses[variable] == "index text":
                    self._text_searches.inc()
                    self._text_candidates.inc(counts[variable])
                if stale is None:
                    self._snapshot_scan_fallbacks.inc()
                else:
                    stale_rowids += stale

            static_vars = [v for v in compiled.used if v not in dynamic]
            early_exit = None
            if len(compiled.used) == 1:
                (only,) = compiled.used
                early_exit = self._limit_text_source(compiled, ranges[only])
            if early_exit is None:
                for variable in static_vars:
                    bind_static(variable)
            else:
                (counts[only], pulls[only], accesses[only],
                 stale_rowids) = early_exit
            nodes = [conjunct.node for conjunct in compiled.conjuncts]
            order = planner.order_variables(static_vars, counts, nodes)
            placed = set(order)
            pending = dict(dynamic)
            while pending:
                advanced = None
                for variable in sorted(pending):
                    if pending[variable].driver_var in placed:
                        advanced = variable
                        break
                if advanced is None:
                    # Mutually-driven order clauses (a before b and b
                    # before a): demote the rest to static candidates
                    # and let the per-row checks decide.
                    for variable in sorted(pending):
                        consumed.discard(pending[variable].conjunct_index)
                        del dynamic[variable]
                        bind_static(variable)
                        order.append(variable)
                    break
                option = pending.pop(advanced)
                ordering = self.schema.ordering(option.order_name)
                counts[advanced] = ordering.table.row_estimate()
                accesses[advanced] = "order range"
                order.append(advanced)
                placed.add(advanced)
            plan = planner.build_plan(order, counts, accesses)
            if snapshot is not None:
                plan.snapshot = (snapshot, stale_rowids)
                index_reads = sum(
                    1 for access in accesses.values()
                    if access.startswith("index")
                )
                if index_reads:
                    self._snapshot_index_reads.inc(index_reads)
            self._last_plan = plan
            if plan_span is not NOOP_SPAN:
                plan_span.record("label", plan.label)
                plan_span.record("candidates", sum(counts.values()))
                plan_span.record(
                    "index_hits",
                    sum(1 for a in accesses.values() if a == "index"),
                )
        finally:
            if plan_span is not NOOP_SPAN:
                plan_span.finish()

        if gate:
            for conjunct in compiled.conjuncts:
                if not conjunct.variables and not conjunct.truth(self, {}):
                    return None

        # Conjuncts answered structurally are skipped in the join:
        # consumed order conjuncts hold by enumeration; a static
        # variable's equality restrictions already filtered its
        # candidates.
        skip = set(consumed)
        for variable in order:
            if variable not in dynamic:
                skip.update(compiled.restriction_conjuncts.get(variable, ()))
        checks_by_level = []
        bound = set()
        for variable in order:
            bound.add(variable)
            checks_by_level.append(
                [
                    conjunct.truth
                    for index, conjunct in enumerate(compiled.conjuncts)
                    if index not in skip
                    and variable in conjunct.variables
                    and conjunct.variables <= bound
                ]
            )
        return order, pulls, dynamic, checks_by_level

    def _order_range_candidates(self, option, bindings, limits):
        """Candidates for an enumerated variable, given its bound driver.

        One :meth:`Ordering.walk` yields the membership rows; their
        children materialize, in sibling order, through one probe and
        fetch of the enum type's surrogate index, which silently drops
        children of other types -- exactly the rows the fallback
        conjunct would have rejected.  What the walk asked both tables
        for is counted once, as :meth:`_pull` counts a chunk.
        """
        driver = bindings.get(option.driver_var)
        if not isinstance(driver, EntityInstance):
            return []
        ordering = self.schema.ordering(option.order_name)
        if option.mode == "under":
            members = ordering.member_rows_under(driver.surrogate)
        else:
            member = ordering.member_row_of(driver)
            if member is None:
                return []
            if option.mode == "before":
                members = ordering.member_rows_before(member)
            else:
                members = ordering.member_rows_after(member)
        declared = self._range_for(option.enum_var)
        table = declared.table
        place = {row["child"]: slot for slot, row in enumerate(members)}

        def lookups():
            lookup = table.any_index_for(SURROGATE_COLUMN).lookup
            return [rowid for child in place for rowid in lookup(child)]

        rowids, stale = table.probe(lookups)
        asked = len(members) + len(rowids)
        self._rows_fetched.inc(asked)
        if limits is not None:
            limits.fetched += asked
        rows = table.fetch(
            rowids, stale, lambda row: row[SURROGATE_COLUMN] in place
        )
        if stale:  # merged in by rowid: back into sibling order
            rows.sort(key=lambda row: place[row[SURROGATE_COLUMN]])
        return [declared.wrap(row) for row in rows]

    # -- the join ---------------------------------------------------------------------------

    def _join(self, order, candidates, dynamic, checks_by_level, limits):
        """The one join loop: bind each variable of *order* to its
        candidates in turn, run the conjunct checks that variable
        completes, and yield a copy of every full binding."""
        total = len(order)

        def join(level, bindings):
            if level == total:
                yield dict(bindings)
                return
            variable = order[level]
            option = dynamic.get(variable)
            if option is None:
                pool = candidates[variable]
            else:
                pool = self._order_range_candidates(option, bindings, limits)
            checks = checks_by_level[level]
            for candidate in pool:
                if limits is not None:
                    limits.tick()
                bindings[variable] = candidate
                passed = True
                for check in checks:
                    if not check(self, bindings):
                        passed = False
                        break
                if passed:
                    yield from join(level + 1, bindings)
            bindings.pop(variable, None)

        return join(0, {})

    def _compiled_bindings(self, compiled, first=None, selector=None):
        """Yield the binding dicts a compiled statement's tail consumes.

        The tail says where it will stop: *first*, an unsorted ``limit
        N``'s early-exit bound, sizes the first chunk of the outermost
        variable's source (None: one chunk of everything); *selector*,
        a sorted one's bounded selection, is what top-k consults.  Inner
        variables are re-iterated per outer binding: drained into lists.
        """
        limits = self.limits
        if limits is not None:
            limits.check_deadline()
        prepared = self._prepare_compiled(compiled)
        if prepared is None:
            return
        order, pulls, dynamic, checks_by_level = prepared
        if not order:
            # No range variables; the constant gate already passed.
            yield {}
            return
        outer = order[0]
        candidates = {outer: pulls[outer](first, selector)}
        for variable in order[1:]:
            if variable in pulls:
                candidates[variable] = list(pulls[variable](None, None))
        source = self._join(order, candidates, dynamic, checks_by_level, limits)
        # The scan span brackets the whole join; a try/finally closes
        # it even when the caller abandons the generator early.
        visits_before = limits.visits if limits is not None else 0
        scan_span = (
            span("quel.scan", variables=len(order))
            if tracing_active()
            else NOOP_SPAN
        )
        rows_out = 0
        try:
            for bindings in source:
                rows_out += 1
                yield bindings
        finally:
            if scan_span is not NOOP_SPAN:
                if limits is not None:
                    scan_span.record(
                        "rows_visited", limits.visits - visits_before
                    )
                scan_span.record("rows_out", rows_out)
                scan_span.finish()

    # -- statements -------------------------------------------------------------------

    def _retrieve(self, compiled):
        statement = compiled.statement
        plain = compiled.targets
        aggregates = compiled.aggregates
        sort_fn = compiled.sort_fn
        limit = statement.limit

        # Bounded execution under `limit`: an unsorted retrieve stops
        # consuming bindings as soon as enough rows (distinct ones,
        # under `unique`) exist -- the join generator is abandoned, so
        # candidates after the cut are never visited, nor, past the
        # chunk *first* sizes, fetched; a sorted one routes rows
        # through a bounded selection holding `limit` entries instead
        # of sorting everything.  Aggregates, and `unique` under a sort,
        # need the full row set -- only the output is truncated.
        selector = first = unique_seen = None
        unique_count = 0
        if limit is not None and not aggregates:
            if statement.sort_by is None:
                first = limit
                if statement.unique:
                    unique_seen = set()
            elif not statement.unique:
                selector = _BoundedSort(limit, statement.descending)

        sort_target = compiled.sort_target
        rows = []
        for bindings in self._compiled_bindings(compiled, first, selector):
            record = {}
            for name, fn in plain:
                record[name] = fn(self, bindings)
            sort_key = None
            if sort_target is not None:
                # Also a target: evaluated once a row, above.
                sort_key = record[sort_target]
            elif sort_fn is not None:
                sort_key = sort_fn(self, bindings)
            if selector is not None:
                selector.offer(record, sort_key)
                continue
            aggregate_inputs = {}
            for aggregate in aggregates:
                aggregate_inputs[aggregate.name] = aggregate.arg_fn(
                    self, bindings
                )
            rows.append((record, sort_key, aggregate_inputs))
            if unique_seen is None:
                if first is not None and len(rows) >= first:
                    break
            else:
                key = _record_key(record)
                if key is None or key not in unique_seen:
                    if key is not None:
                        unique_seen.add(key)
                    unique_count += 1
                    if unique_count >= limit:
                        break

        if aggregates:
            out = self._aggregate_rows(rows, bool(plain), aggregates)
            if limit is not None:
                out = out[:limit]
            self._rows_returned.inc(len(out))
            return out

        if selector is not None:
            out = selector.records
        else:
            if statement.sort_by is not None:
                rows.sort(
                    key=lambda item: value_sort_key(item[1]),
                    reverse=statement.descending,
                )
            out = [record for record, _, _ in rows]
            if statement.unique:
                out = _dedupe(out)
            if limit is not None:
                out = out[:limit]
        self._rows_returned.inc(len(out))
        return out

    def _aggregate_rows(self, rows, has_plain, aggregates):
        """Aggregate semantics: no plain targets => one global row;
        otherwise group by the plain-target values."""
        groups = {}
        order = []
        for record, _, aggregate_inputs in rows:
            key = tuple(sorted(record.items(), key=lambda kv: kv[0]))
            if key not in groups:
                groups[key] = (record, {name: [] for name in aggregate_inputs})
                order.append(key)
            for name, value in aggregate_inputs.items():
                groups[key][1][name].append(value)
        if not has_plain and not rows:
            # Aggregates over an empty result still produce one row.
            record = {}
            for aggregate in aggregates:
                function = self.functions.aggregate(aggregate.function_name)
                record[aggregate.name] = function([])
            return [record]
        out = []
        for key in order:
            record, inputs = groups[key]
            result = dict(record)
            for aggregate in aggregates:
                function = self.functions.aggregate(aggregate.function_name)
                result[aggregate.name] = function(inputs.get(aggregate.name, []))
            out.append(result)
        return out

    def _append(self, compiled):
        entity_type = self.schema.entity_type(compiled.statement.entity_type)
        count = 0
        for bindings in self._compiled_bindings(compiled):
            values = {
                name: fn(self, bindings) for name, fn in compiled.assignments
            }
            entity_type.create(**values)
            count += 1
        return count

    def _matching_instances(self, compiled):
        """Distinct instances of the statement's target variable that
        satisfy its qualification, each with its first full binding."""
        variable = compiled.statement.variable
        seen = {}
        for bindings in self._compiled_bindings(compiled):
            bound = bindings[variable]
            if not isinstance(bound, EntityInstance):
                raise QueryError("%r is not an entity range variable" % variable)
            seen.setdefault(bound.surrogate, (bound, bindings))
        return list(seen.values())

    def _replace(self, compiled):
        matches = self._matching_instances(compiled)
        for instance, bindings in matches:
            updates = {
                name: fn(self, bindings) for name, fn in compiled.assignments
            }
            instance.set(**updates)
        return len(matches)

    def _delete(self, compiled):
        matches = self._matching_instances(compiled)
        for instance, _ in matches:
            # Remove from orderings/relationships first so the delete is legal.
            for ordering in self.schema.orderings.values():
                if instance.type.name in ordering.child_types and ordering.contains(
                    instance
                ):
                    ordering.remove(instance)
            for relationship in self.schema.relationships.values():
                for role, type_name in relationship.roles:
                    if type_name == instance.type.name:
                        relationship.unrelate(**{role: instance})
            instance.delete()
        return len(matches)


def _similarity_sort_key(sort_by):
    """Match a sort key of ``similarity(v.attr, "literal")``: returns
    ``(variable, attribute, query)``, or None for any other shape."""
    if not (
        isinstance(sort_by, ast.FunctionCall)
        and sort_by.name == "similarity"
        and len(sort_by.arguments) == 2
    ):
        return None
    target, literal = sort_by.arguments
    if not (
        isinstance(target, ast.AttributeRef)
        and isinstance(literal, ast.Literal)
        and isinstance(literal.value, str)
    ):
        return None
    return target.variable, target.attribute, literal.value


def _record_key(record):
    """Hashable identity of a result record, or None (unhashable values
    never dedupe -- they are always distinct)."""
    key = tuple(sorted(record.items(), key=lambda kv: kv[0]))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _dedupe(records):
    seen = set()
    out = []
    for record in records:
        key = _record_key(record)
        if key is None:
            out.append(record)
            continue
        if key not in seen:
            seen.add(key)
            out.append(record)
    return out


class _Reversed:
    """Inverts comparisons so a descending sort key can live inside an
    ascending bounded-selection list (`functools.cmp_to_key` without
    the per-compare lambda)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return self.key == other.key

    def __ne__(self, other):
        return self.key != other.key

    def __lt__(self, other):
        return other.key < self.key

    def __le__(self, other):
        return other.key <= self.key

    def __gt__(self, other):
        return other.key > self.key

    def __ge__(self, other):
        return other.key >= self.key


class _BoundedSort:
    """Bounded selection for ``sort by ... limit N``.

    Keeps the N best ``(key, seq)`` entries in a sorted list, so a
    ranked retrieve over a million bindings holds N records instead of
    sorting everything at the end.  *seq*, the tie-break the next offer
    takes, is arrival order -- the stable full sort's tie-breaking --
    unless the source sets it before each row it hands the tail: top-k,
    which visits rows best bound first, sets the rowid ("index text"'s
    visiting order).
    """

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


def execute_quel(source, schema):
    """One-shot convenience: run a QUEL program against *schema*."""
    return QuelSession(schema).execute(source)
