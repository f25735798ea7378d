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
"""

import threading
import time

from repro.errors import QueryError, QueryTimeoutError, ResourceLimitError
from repro.core.entity import EntityInstance
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, span, tracing_active
from repro.quel import ast
from repro.quel.cache import CachedStatement, shape_cache_for
from repro.quel.compile import bound_slots, compile_statement
from repro.quel.functions import FunctionRegistry
from repro.quel.parser import parse_quel
from repro.quel import planner, sources
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
        self._last_plan = None
        # Per thread, because one session serves many: the execution
        # limits, and the executing statement's literal vector.
        self._local = threading.local()
        # Statement-level metrics ("quel.*") land in the database's
        # registry; increments are per statement, never per row.
        metrics = getattr(schema.database, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._rows_returned = self.metrics.counter("quel.rows_returned")
        # One queue write per statement covers both the counter and
        # the latency histogram (they drain it on read).
        self._statement_tally = self.metrics.tally(
            "quel.statements", "quel.statement_seconds"
        )
        # What the candidate sources count, and this thread's limits.
        self.accounting = sources.Accounting(self.metrics, self._local)
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
        # Plans without evaluating anything, not even the constant
        # conjuncts.
        self._with_statement_locks(
            self._prepare_compiled, self._compiled_for(inner, cached)
        )
        return self._last_plan.rows()

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
            return sources.EntityRange(self.schema.entity_type(name))
        if name in self.schema.relationships:
            return sources.RelationshipRange(self.schema.relationship(name))
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

    # -- planning and the join ----------------------------------------------------------------

    def _prepare_compiled(self, compiled):
        """Lock every used variable's table, let
        :func:`repro.quel.sources.choose` pick the sources and the
        binding order, and publish the plan: returns ``(order, {variable:
        source})``.  Only index structures are read; ``explain`` stops
        here.
        """
        plan_span = span("quel.plan") if tracing_active() else NOOP_SPAN
        try:
            database = self.schema.database
            snapshot = database.transactions.current_snapshot()
            ranges = {}
            for variable in compiled.used:
                ranges[variable] = declared = self._range_for(variable)
                # Shared lock before any read: concurrent writers cannot
                # produce torn reads of this table mid-statement.  (A
                # pinned snapshot makes this a no-op: version chains,
                # not locks, keep the read consistent.)
                database.read_table(declared.table.name)
            order, chosen = sources.choose(
                compiled, ranges, self, snapshot is not None
            )
            self._last_plan = plan = planner.build_plan(order, chosen)
            if snapshot is not None:
                stale = sum(source.stale or 0 for source in chosen.values())
                plan.snapshot = (snapshot, stale)
            if plan_span is not NOOP_SPAN:
                steps = plan.steps
                plan_span.record("label", plan.label)
                plan_span.record("candidates", sum(s.candidates for s in steps))
                plan_span.record(
                    "index_hits", sum(s.access == "index" for s in steps)
                )
        finally:
            if plan_span is not NOOP_SPAN:
                plan_span.finish()
        return order, chosen

    def _join(self, order, chosen, checks_by_level, first, selector, limits):
        """The one join loop: bind each variable of *order* to its
        source's candidates in turn, run the conjunct checks that
        variable completes, and yield a copy of every full binding.
        The tail's early-exit bound (*first*, *selector*) reaches the
        outermost source only.  An inner source is re-iterated per
        outer binding: pulled anew when it reads them (``correlated``),
        drained into a list once when it does not."""
        total = len(order)
        outermost = chosen[order[0]].pull
        pools = [lambda bindings: outermost(bindings, first, selector)]
        for variable in order[1:]:
            pull = chosen[variable].pull
            if chosen[variable].correlated:
                pools.append(lambda bindings, pull=pull: pull(bindings, None, None))
            else:
                pools.append(lambda bindings, rows=list(pull(None, None, None)): rows)

        def join(level, bindings):
            if level == total:
                yield dict(bindings)
                return
            variable = order[level]
            checks = checks_by_level[level]
            for candidate in pools[level](bindings):
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
        N``'s early-exit bound; *selector*, a sorted one's bounded
        selection (see :meth:`_join`)."""
        limits = self.limits
        if limits is not None:
            limits.check_deadline()
        order, chosen = self._prepare_compiled(compiled)
        conjuncts = compiled.conjuncts
        for conjunct in conjuncts:
            # A false constant conjunct gates the whole statement out.
            if not conjunct.variables and not conjunct.truth(self, {}):
                return
        if not order:
            yield {}
            return
        # A conjunct some source answers by construction is skipped;
        # every other runs at the level that binds its last variable.
        skip = {i for variable in order for i in chosen[variable].answers}
        checks_by_level = []
        bound = set()
        for variable in order:
            bound.add(variable)
            checks_by_level.append([
                conjunct.truth
                for index, conjunct in enumerate(conjuncts)
                if index not in skip
                and variable in conjunct.variables
                and conjunct.variables <= bound
            ])
        source = self._join(order, chosen, checks_by_level, first, selector, limits)
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
                selector = sources.BoundedSort(limit, statement.descending)

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


def execute_quel(source, schema):
    """One-shot convenience: run a QUEL program against *schema*."""
    return QuelSession(schema).execute(source)
