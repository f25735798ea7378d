"""QUEL execution against a schema.

A :class:`QuelSession` holds range-variable declarations and executes
statements.  Each statement is compiled once (:mod:`repro.quel.compile`)
and runs one pipeline: :mod:`repro.quel.sources` picks a candidate
source per range variable, a backtracking join binds the candidates
and checks the qualification's conjuncts, and the statement's tail
projects, sorts, limits, aggregates or mutates.  The entity operators
``is``, ``before``, ``after`` and ``under`` evaluate per the section
5.6 semantics.

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

A statement counts in plain slots (:class:`~repro.quel.sources.Accounting`);
a retrieve makes its rows once, as :class:`Rows` (a reply frame's form).
"""

import collections
import threading
import time
from bisect import bisect_left

from repro.errors import QueryError, QueryTimeoutError, ResourceLimitError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, span, tracing_active
from repro.quel import ast
from repro.quel.cache import CachedStatement, shape_cache_for
from repro.quel.compile import bound_slots, compile_statement, plan_parts
from repro.quel.functions import FunctionRegistry
from repro.quel.parser import parse_quel
from repro.quel import planner, sources
from repro.quel.sources import (INVALIDATIONS, PLAN_HITS, PLAN_MISSES,
    RETURNED, STATEMENT_HITS, STATEMENT_MISSES, STATEMENTS)
from repro.storage.values import value_sort_key


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


#: A retrieve's answer as its projection made it: the column names once
#: and a tuple of values a row.
Rows = collections.namedtuple("Rows", "columns values")


def _plan_rows(rows):
    """``explain``'s result dicts as the :class:`Rows` a retrieve makes."""
    return Rows(["plan"], [(row["plan"],) for row in rows])


class _ThreadState(threading.local):
    """A thread's limits, literal vector and Accounting (class defaults)."""
    limits = literals = accounting = None


class QuelSession:
    """Stateful QUEL session over one schema.

    Source text is parsed, and each statement lowered to Python
    closures, once per *shape* -- the text with its literals cut out --
    in the database's shape cache (:mod:`repro.quel.cache`); the
    literals a plan leaves bound travel beside the execution, on this
    session's thread-local.  Every statement then runs the module's one
    pipeline: sources, join, tail.
    """

    def __init__(self, schema):
        self.schema = schema
        self.ranges = {}
        self.functions = FunctionRegistry()
        self._last_plan = None  # (order, sources, snapshot) until _plan
        # Per thread, because one session serves many: the execution
        # limits, and the executing statement's literal vector.
        self._local = _ThreadState()
        # "quel.*" / "text.*" land in the database's registry (Accounting).
        metrics = getattr(schema.database, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tally = sources.statement_tally(self.metrics)
        seconds = self.metrics.histogram("quel.statement_seconds")
        at = self._tally.slot(seconds)  # its buckets' counts, then its sum
        self._seconds = (at, seconds.buckets, at + len(seconds.buckets) + 1)
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
        plan = self._plan()
        return None if plan is None else plan.render()

    @property
    def last_plan_object(self):
        """The most recent statement's QueryPlan (or None)."""
        return self._plan()

    def _plan(self):
        """The last plan, made a QueryPlan the first time it is read."""
        last = self._last_plan
        if type(last) is tuple:
            order, chosen, snapshot = last
            last = self._last_plan = planner.build_plan(order, chosen)
            if snapshot is not None:
                last.snapshot = (snapshot, sum(s.stale for s in chosen.values()))
        return last

    # -- execution limits --------------------------------------------------------

    def set_limits(self, deadline=None, row_budget=None):
        """Install a deadline/row budget for this thread's statements."""
        self._local.limits = ExecutionLimits(deadline, row_budget)

    def clear_limits(self):
        self._local.limits = None

    @property
    def limits(self):
        return self._local.limits

    # -- public API ------------------------------------------------------------

    def execute(self, source, tuples=False):
        """Execute a QUEL program; returns the last statement's result.

        Retrieves return a list of result dicts (with *tuples*, the
        :class:`Rows` they are made from); mutations return the
        affected-instance count; range statements return None.  A source
        is parsed at most once per shape: a repeat, or the same
        statement with other literals, finds the parse in the shape
        cache and runs it with its own literal vector.
        """
        local = self._local
        accounting = local.accounting
        if accounting is None:
            accounting = local.accounting = sources.Accounting(self._tally.cell())
        outer_limits = accounting.limits
        accounting.limits = local.limits
        # Restored, not cleared: a registered function may run a
        # statement of its own in the middle of this one.
        outer = local.literals
        try:
            shape, literals = self._shapes.lookup(source)
            if shape is None:
                accounting.counts[STATEMENT_MISSES] += 1
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
            else:
                accounting.counts[STATEMENT_HITS] += 1
            self._last_shape = shape.text
            local.literals = literals
            result = None
            for cached in shape.statements:
                result = self._execute(cached.statement, cached, accounting)
        finally:
            local.literals = outer
            accounting.limits = outer_limits
        if isinstance(result, Rows) and not tuples:
            columns = result.columns
            return [dict(zip(columns, values)) for values in result.values]
        return result

    def _execute(self, statement, cached, accounting):
        self._last_cache_info = None
        # The tracer check is hoisted, once a statement, so the no-sink
        # path skips the span calls (and their kwargs dicts) entirely --
        # that is how the 3% overhead budget holds for cached statements.
        tracing = accounting.tracing = tracing_active()
        if isinstance(statement, ast.RangeStatement):
            return self._declare_range(statement)
        if isinstance(statement, ast.ExplainStatement):
            return self._explain(statement, cached, accounting)
        statement_span = (
            span("quel.statement", kind=type(statement).__name__)
            if tracing else NOOP_SPAN
        )
        started = time.monotonic()
        try:
            return self._dispatch(statement, cached, accounting)
        except (QueryTimeoutError, ResourceLimitError) as exc:
            self._record_partial_progress(exc)
            statement_span.record("error", type(exc).__name__)
            raise
        finally:
            if statement_span is not NOOP_SPAN:
                statement_span.finish()
            seconds = time.monotonic() - started
            counts, (at, buckets, total) = accounting.counts, self._seconds
            counts[STATEMENTS] += 1
            counts[at + bisect_left(buckets, seconds)] += 1
            counts[total] += seconds

    def _dispatch(self, statement, cached, accounting):
        compiled = self._compiled_for(statement, cached, accounting)
        if isinstance(statement, ast.RetrieveStatement):
            return self._with_statement_locks(
                self._retrieve, compiled, accounting
            )
        if isinstance(statement, ast.AppendStatement):
            return self._with_statement_locks(
                self._append, compiled, accounting,
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
            method, compiled, accounting,
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
        return plan_parts(statement)[0]

    def _compiled_for(self, statement, cached, accounting):
        """The compiled form of *statement*.

        *cached* is its entry in the shape cache, whose plans are keyed
        on what a plan depends on beside the statement -- the bindings
        of the range variables it uses and the function registry -- and
        valid at one schema epoch; compiles and stores on miss.  A
        statement kind that cannot be compiled raises ``QueryError``.
        """
        shapes = self._shapes
        epoch = self.schema.database.schema_epoch
        functions_version = self.functions.version
        ranges, range_for = self.ranges, self._range_for
        key = (
            tuple([
                (ranges[variable] if variable in ranges
                 else range_for(variable)).key
                for variable in cached.used
            ]),
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
                accounting.counts[PLAN_HITS] += 1
                self._last_cache_info = "hit"
                return found[1]
            accounting.counts[INVALIDATIONS] += 1
        accounting.counts[PLAN_MISSES] += 1
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

    def _explain(self, statement, cached, accounting):
        inner = statement.statement  # the parser nests no explain
        if isinstance(inner, ast.RangeStatement):
            self._declare_range(inner)
            return _plan_rows([{"plan": "range declaration (no plan)"}])
        if statement.analyze:
            return self._explain_analyze(inner, cached, accounting)
        # Plans without evaluating anything, not even the constant
        # conjuncts.
        self._with_statement_locks(
            self._prepare_compiled,
            self._compiled_for(inner, cached, accounting), accounting,
        )
        return _plan_rows(self._plan().rows())

    def _explain_analyze(self, inner, cached, accounting):
        """Execute *inner* fully, then report plan + actual counts/time.

        Candidate-row visits are counted by a temporary
        :class:`ExecutionLimits` (inheriting any installed deadline and
        row budget), so the steady-state join loop never carries an
        always-on per-row counter.
        """
        previous = self.limits
        limits = accounting.limits = self._local.limits = ExecutionLimits(
            deadline=previous.deadline if previous is not None else None,
            row_budget=previous.row_budget if previous is not None else None,
        )
        started = time.monotonic()
        try:
            result = self._dispatch(inner, cached, accounting)
            elapsed = time.monotonic() - started
        finally:
            accounting.limits = self._local.limits = previous
        plan = self._plan()
        rows = plan.rows() if plan is not None else [{"plan": "(no plan)"}]
        if plan is not None and plan.snapshot is not None:
            rows.append(
                {"plan": "snapshot %d: +%d stale rowids" % plan.snapshot}
            )
        count = len(result.values) if isinstance(result, Rows) else result
        rows.append({"plan": "rows: %s" % count})
        rows.append({"plan": "rows visited: %d" % limits.visits})
        rows.append({"plan": "rows fetched: %d" % limits.fetched})
        rows.append({"plan": "conjuncts decided: %d" % len(getattr(plan, "decided", ()))})
        rows.append({"plan": "time: %.3f ms" % (elapsed * 1000.0)})
        return _plan_rows(rows)

    def _with_statement_locks(self, method, compiled, accounting,
                              write_target=None):
        """Run *method(compiled, accounting)* under statement-scoped lock
        ownership.

        Pre-acquires the exclusive lock on a mutation's target table;
        range-variable tables are share-locked as the binding generator
        resolves them.  Outside a transaction the statement commits its
        changes as one when it ends, or undoes them if it raises, and
        releases its locks; a transaction keeps its own until
        commit/abort (strict 2PL).

        Read statements in *snapshot mode* -- the thread has a pinned
        MVCC snapshot, or the database is degraded with no transaction
        active -- skip all of that: no statement owner is allocated and
        the lock manager is never touched, because visibility comes from
        the version chains.
        """
        database = self.schema.database
        transactions = database.transactions
        limits = accounting.limits
        pinned = transactions.current_snapshot() is not None
        if write_target is None and (
            pinned
            # Degraded (read-only) databases serve every standalone read
            # lock-free: there is nothing a lock could protect against,
            # and S-lock churn on the healed path was a real regression.
            or database.degraded and transactions.current() is None
        ):
            if not pinned:
                transactions.pin_snapshot()
            try:
                if limits is not None:
                    limits.check_deadline()
                return method(compiled, accounting)
            finally:
                if not pinned:
                    transactions.unpin_snapshot()
        with transactions.statement():
            if limits is not None:
                limits.check_deadline()
            if write_target is not None:
                database.write_table(write_target())
            return method(compiled, accounting)

    def register_function(self, name, function, aggregate=False):
        if aggregate:
            self.functions.register_aggregate(name, function)
        else:
            self.functions.register_scalar(name, function)

    # -- range variables ----------------------------------------------------------

    def _range_over(self, name):
        """A range over the entity type or relationship *name*, or None."""
        if self.schema.has_entity_type(name):
            return sources.EntityRange(self.schema.entity_type(name))
        if name in self.schema.relationships:
            return sources.RelationshipRange(self.schema.relationship(name))
        return None

    def _declare_range(self, statement):
        name = statement.entity_type
        target = self.ranges.get(statement.variables[0])  # kept if re-declared
        if target is None or target.type_name != name:
            target = self._range_over(name)
            if target is None:
                raise QueryError("range over unknown type %r" % name)
        for variable in statement.variables:
            self.ranges[variable] = target

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

    # -- planning and the join ----------------------------------------------------------------

    def _prepare_compiled(self, compiled, accounting):
        """Lock every used variable's table, let
        :func:`repro.quel.sources.choose` pick the sources and the
        binding order, and leave the plan to be read: returns ``(order,
        {variable: source}, the conjuncts they answer)``.  Only index
        structures are read; ``explain`` stops here.
        """
        plan_span = span("quel.plan") if accounting.tracing else NOOP_SPAN
        try:
            database = self.schema.database
            snapshot = database.transactions.current_snapshot()
            if snapshot is None:
                # Shared lock before any read: concurrent writers cannot
                # produce torn reads of this table mid-statement.  (A
                # pinned snapshot needs none: version chains, not
                # locks, keep the read consistent.)
                for variable in compiled.used:
                    database.read_table(self._range_for(variable).table.name)
            order, chosen = sources.choose(
                compiled, self, snapshot is not None, accounting
            )
            self._last_plan = (order, chosen, snapshot)
            decided = chosen[order[0]].answers if len(order) == 1 else (
                frozenset(i for v in order for i in chosen[v].answers))
            if plan_span is not NOOP_SPAN:
                plan = self._plan()
                steps = plan.steps
                plan_span.record("label", plan.label)
                plan_span.record("candidates", sum(s.candidates for s in steps))
                plan_span.record(
                    "index_hits", sum(s.access == "index" for s in steps)
                )
        finally:
            if plan_span is not NOOP_SPAN:
                plan_span.finish()
        return order, chosen, decided

    def _join(self, order, chosen, levels, first, selector, limits):
        """The one join loop: bind each variable of *order* to its
        source's candidates, the rows they fetched, in turn, run the
        conjunct checks that variable completes (*levels*), and yield
        every full binding -- the one dict, rebound in place: a tail
        that keeps a binding copies it.  The tail's early-exit bound
        (*first*, *selector*) reaches the outermost source only.  An
        inner source is re-iterated per outer binding: pulled anew when
        it reads them (``correlated``), drained into a list once when it
        does not."""
        total = len(order)
        pools = [None]  # the outermost source is pulled once, below
        for variable in order[1:]:
            pull = chosen[variable].pull
            if chosen[variable].correlated:
                pools.append(pull)  # pull(bindings): no early-exit bound
            else:
                pools.append(lambda bindings, rows=list(pull(None, None, None)): rows)

        def join(level, bindings, candidates):
            variable = order[level]
            checks = levels[level]
            last = level + 1 == total
            for candidate in candidates:
                if limits is not None:
                    limits.tick()
                bindings[variable] = candidate
                for check in checks:
                    if not check(self, bindings):
                        break
                else:
                    if last:
                        yield bindings
                    else:
                        yield from join(
                            level + 1, bindings, pools[level + 1](bindings)
                        )
            bindings.pop(variable, None)

        bindings = {}
        return join(0, bindings, chosen[order[0]].pull(bindings, first, selector))

    def _compiled_bindings(self, compiled, accounting, first=None,
                           selector=None):
        """The binding dicts a compiled statement's tail consumes, one
        dict rebound in place (see :meth:`_join`).  The tail says where
        it will stop: *first*, an unsorted ``limit N``'s early-exit
        bound; *selector*, a sorted one's bounded selection.  The
        deadline was checked as the statement took its locks."""
        limits = accounting.limits
        order, chosen, skip = self._prepare_compiled(compiled, accounting)
        for conjunct in compiled.constants:
            # A false constant conjunct gates the whole statement out.
            if not conjunct.truth(self, {}):
                return iter(())
        if not order:
            return iter(({},))
        # A conjunct some source answers (*skip*) is not checked; every
        # other runs at the level that binds its last variable.
        source = self._join(
            order, chosen, compiled.checks(order, skip), first, selector, limits
        )
        if not accounting.tracing:
            return source
        return self._scanned(source, len(order), limits)

    @staticmethod
    def _scanned(source, variables, limits):
        """*source* inside the ``quel.scan`` span, which a try/finally
        closes even when the caller abandons the generator early."""
        visits_before = limits.visits if limits is not None else 0
        scan_span = span("quel.scan", variables=variables)
        rows_out = 0
        try:
            for bindings in source:
                rows_out += 1
                yield bindings
        finally:
            if limits is not None:
                scan_span.record("rows_visited", limits.visits - visits_before)
            scan_span.record("rows_out", rows_out)
            scan_span.finish()

    # -- statements -------------------------------------------------------------------

    def _retrieve(self, compiled, accounting):
        """The statement's :class:`Rows`: the compiled projection's tuples,
        sorted, made unique, limited or aggregated as it says."""
        statement = compiled.statement
        aggregates = compiled.aggregates
        limit = statement.limit
        sort_at = compiled.sort_at
        sort_fn = None if sort_at is not None else compiled.sort_fn

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
                selector = sources.BoundedSort(limit, statement.descending)

        project = compiled.project
        rows = []
        for bindings in self._compiled_bindings(
            compiled, accounting, first, selector
        ):
            values = project(self, bindings)
            sort_key = None
            if sort_fn is not None:
                sort_key = sort_fn(self, bindings)
            elif sort_at is not None:
                sort_key = values[sort_at]  # a target: evaluated above
            if selector is not None:
                selector.offer(values, sort_key)
            elif aggregates:
                rows.append((values, [a.arg_fn(self, bindings) for a in aggregates]))
            elif sort_fn is None and sort_at is None:
                rows.append(values)
                if unique_seen is None:
                    if first is not None and len(rows) >= first:
                        break
                else:
                    key = _row_key(values)
                    if key is None or key not in unique_seen:
                        if key is not None:
                            unique_seen.add(key)
                        unique_count += 1
                        if unique_count >= limit:
                            break
            else:
                rows.append((values, sort_key))

        columns = compiled.columns
        if aggregates:
            columns, out = self._aggregate_rows(rows, compiled)
        elif selector is not None:
            out = selector.records
        else:
            if statement.sort_by is not None:
                rows.sort(
                    key=lambda item: value_sort_key(item[1]),
                    reverse=statement.descending,
                )
                rows = [values for values, _ in rows]
            out = _dedupe(rows) if statement.unique else rows
        if limit is not None:
            out = out[:limit]
        accounting.counts[RETURNED] += len(out)
        return Rows(columns, out)

    def _aggregate_rows(self, rows, compiled):
        """Aggregate semantics over ``(values, aggregate inputs)`` rows,
        as ``(columns, rows)``: no plain targets => one global row;
        otherwise group by the plain-target values.  An aggregate's
        column follows the plain ones, or takes a plain one's name's."""
        columns = list(compiled.columns)
        places = []
        for aggregate in compiled.aggregates:
            if aggregate.name not in columns:
                columns.append(aggregate.name)
            places.append(columns.index(aggregate.name))
        functions = [
            self.functions.aggregate(a.function_name) for a in compiled.aggregates
        ]
        groups = {}
        if not compiled.columns and not rows:
            groups[()] = [[] for _ in functions]  # still one row
        for values, arguments in rows:
            for inputs, argument in zip(
                groups.setdefault(values, [[] for _ in functions]), arguments
            ):
                inputs.append(argument)
        out = []
        for values, inputs in groups.items():
            row = list(values) + [None] * (len(columns) - len(values))
            for place, function, collected in zip(places, functions, inputs):
                row[place] = function(collected)
            out.append(tuple(row))
        return columns, out

    def _append(self, compiled, accounting):
        entity_type = self.schema.entity_type(compiled.statement.entity_type)
        count = 0
        for bindings in self._compiled_bindings(compiled, accounting):
            values = {
                name: fn(self, bindings) for name, fn in compiled.assignments
            }
            entity_type.create(**values)
            count += 1
        return count

    def _matches(self, compiled, accounting):
        """Distinct instances of the statement's target variable that
        satisfy its qualification, each with its first full binding."""
        variable = compiled.statement.variable
        declared = self._range_for(variable)
        seen = {}
        for bindings in self._compiled_bindings(compiled, accounting):
            if declared.kind != "entity":
                raise QueryError("%r is not an entity range variable" % variable)
            instance = declared.wrap(bindings[variable])
            if instance.surrogate not in seen:
                seen[instance.surrogate] = (instance, dict(bindings))
        return list(seen.values())

    def _replace(self, compiled, accounting):
        matches = self._matches(compiled, accounting)
        for instance, bindings in matches:
            updates = {
                name: fn(self, bindings) for name, fn in compiled.assignments
            }
            instance.set(**updates)
        return len(matches)

    def _delete(self, compiled, accounting):
        matches = self._matches(compiled, accounting)
        for instance, _ in matches:
            # Leave orderings as a child and every relationship first, so
            # the delete is legal unless the instance still has children.
            for holder, place in self.schema.holders(instance.type.name):
                if place != "parent":
                    for row in holder.rows_holding(place, instance.surrogate):
                        holder.table.delete(row.rowid)
            instance.delete()
        return len(matches)


def _row_key(values):
    """A result row as its own hashable identity, or None (unhashable
    values never dedupe -- they are always distinct)."""
    try:
        hash(values)
    except TypeError:
        return None
    return values


def _dedupe(rows):
    seen = set()
    out = []
    for values in rows:
        key = _row_key(values)
        if key is None:
            out.append(values)
            continue
        if key not in seen:
            seen.add(key)
            out.append(values)
    return out


def execute_quel(source, schema):
    """One-shot convenience: run a QUEL program against *schema*."""
    return QuelSession(schema).execute(source)
