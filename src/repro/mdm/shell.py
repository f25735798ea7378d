"""A line-oriented shell for the Music Data Manager.

Feeds DDL and QUEL to an MDM interactively::

    python -m repro.mdm.shell

Statements may span lines; a blank line (or a trailing ``;;``) executes
the buffer.  Backslash commands inspect the schema:

    \\d              list entity types, relationships, orderings
    \\d NAME         describe one entity type
    \\indexes        list every index (equality and trigram text)
    \\stats          schema statistics
    \\health         robustness counters and degraded-mode status
    \\plan           show the last query plan
    \\explain STMT   show the plan a QUEL statement would use
    \\metrics        dump the metrics registry
    \\checks         run every ordering invariant check
    \\replicas       WAL-shipping replica state (when network-served)
    \\q              quit

The shell is a thin, fully testable layer: :meth:`MdmShell.handle_line`
returns the text that would be printed.  It executes QUEL through, and
``\\plan`` / ``\\explain`` report on, one ``QuelSession``: the manager's
own by default, the connection's when the network server serves the
shell over ``META`` frames.
"""

from repro.errors import MDMError, QueryTimeoutError, ResourceLimitError
from repro.lang.lexer import leading_keywords
from repro.mdm.manager import MusicDataManager


def _human_bytes(count):
    """``194.3 MiB``-style rendering for index footprints."""
    count = float(count)
    for unit in ("B", "KiB", "MiB"):
        if count < 1024.0:
            return "%.1f %s" % (count, unit)
        count /= 1024.0
    return "%.1f GiB" % count


def format_rows(rows):
    """Render a QUEL result list as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(column), *(len(str(row.get(column))) for row in rows))
        for column in columns
    }
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    rule = "-+-".join("-" * widths[column] for column in columns)
    lines = [header, rule]
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column)).ljust(widths[column]) for column in columns)
        )
    lines.append("(%d row%s)" % (len(rows), "" if len(rows) == 1 else "s"))
    return "\n".join(lines)


class MdmShell:
    """Stateful shell over one MusicDataManager."""

    def __init__(self, mdm=None, server=None, session=None):
        self.mdm = mdm if mdm is not None else MusicDataManager()
        # When the shell is served over the wire (repro.net.server), the
        # server hands itself in so \replicas can report shipping state,
        # and the connection's QuelSession, so statements, \plan and
        # \explain speak for this connection and no other.
        self.server = server
        self.session = session if session is not None else self.mdm.session
        self._buffer = []
        self.done = False

    # -- the one entry point ---------------------------------------------------

    def handle_line(self, line):
        """Process one input line; returns output text ('' for none)."""
        stripped = line.strip()
        if stripped.startswith("\\"):
            return self._command(stripped)
        if stripped.endswith(";;"):
            self._buffer.append(stripped[:-2])
            return self._execute_buffer()
        if stripped == "":
            if self._buffer:
                return self._execute_buffer()
            return ""
        self._buffer.append(line)
        return ""

    def _execute_buffer(self):
        source = "\n".join(self._buffer).strip()
        self._buffer = []
        if not source:
            return ""
        try:
            # DDL goes to the manager, QUEL through this shell's session.
            if leading_keywords(source, 1) == ("define",):
                result = self.mdm.execute(source)
            else:
                result = self.session.execute(source)
        except (QueryTimeoutError, ResourceLimitError) as error:
            # Surface partial progress instead of swallowing it: the
            # executor publishes how far the statement got before the
            # deadline/budget cut it off.
            visited = self.mdm.database.metrics.value(
                "quel.last_partial_rows_visited"
            )
            return "error: %s\n(partial progress: %s candidate row%s visited)" % (
                error, visited, "" if visited == 1 else "s"
            )
        except MDMError as error:
            return "error: %s" % error
        if isinstance(result, list):
            return format_rows(result)
        if isinstance(result, int):
            return "(%d instance%s affected)" % (result, "" if result == 1 else "s")
        return "ok"

    # -- backslash commands --------------------------------------------------------

    def _command(self, text):
        parts = text.split()
        command, arguments = parts[0], parts[1:]
        if command in ("\\q", "\\quit"):
            self.done = True
            return "bye"
        if command == "\\d":
            if arguments:
                return self._describe(arguments[0])
            return self._list_schema()
        if command == "\\stats":
            stats = self.mdm.statistics()
            return "\n".join("%-24s %s" % (k, v) for k, v in sorted(stats.items()))
        if command == "\\health":
            return self._health()
        if command == "\\plan":
            plan = self.session.last_plan
            return plan if plan else "(no query yet)"
        if command == "\\explain":
            if not arguments:
                return "usage: \\explain <quel statement>"
            statement = text.split(None, 1)[1]
            try:
                rows = self.session.execute("explain " + statement)
            except MDMError as error:
                return "error: %s" % error
            rendered = format_rows(rows)
            cache_info = self.session.last_cache_info
            if cache_info is not None:
                rendered += "\n(plan cache: %s; shape: %s)" % (
                    cache_info, self.session.last_shape
                )
            return rendered
        if command == "\\indexes":
            return self._indexes()
        if command == "\\metrics":
            return self.mdm.database.metrics.render()
        if command == "\\replicas":
            return self._replicas()
        if command == "\\checks":
            try:
                self.mdm.check_invariants()
            except MDMError as error:
                return "INVARIANT VIOLATION: %s" % error
            return "all ordering invariants hold"
        return (
            "unknown command %s (try \\d, \\indexes, \\stats, \\health, "
            "\\plan, \\explain, \\metrics, \\checks, \\replicas, \\q)"
            % command
        )

    def _indexes(self):
        """Every index in the database: equality (hash) and text (trigram)."""
        database = self.mdm.database
        rows = []
        for table_name in database.table_names():
            table = database.table(table_name)
            entries = []
            for (column, kind), index in table.indexes().items():
                # Composite unique indexes key on a tuple of columns.
                name = (
                    ", ".join(column) if isinstance(column, tuple) else column
                )
                entries.append((name, kind, index))
            for name, kind, index in sorted(entries, key=lambda e: e[0]):
                if kind == "text":
                    detail = "%d entries, %d grams, %d postings, ~%s" % (
                        len(index), index.gram_count(),
                        index.posting_entries(),
                        _human_bytes(index.approx_bytes()),
                    )
                    rows.append((table_name, name, "text", detail))
                else:
                    rows.append((
                        table_name, name,
                        "unique" if kind else "equality",
                        "%d keys" % len(index),
                    ))
        if not rows:
            return "(no indexes)"
        lines = ["%-24s %-16s %-10s %s" % ("table", "column", "kind", "detail")]
        for table_name, column, kind, detail in rows:
            lines.append("%-24s %-16s %-10s %s" % (table_name, column, kind, detail))
        return "\n".join(lines)

    def _replicas(self):
        """Per-replica shipping state, when serving over the network."""
        if self.server is None:
            return "(not serving over the network)"
        peers = self.server.replication.status()
        if not peers:
            return "(no replicas connected)"
        lines = ["%-16s %-12s %10s %10s %6s %6s" % (
            "replica", "state", "shipped", "acked", "lag", "seeds")]
        for peer in peers:
            lines.append("%-16s %-12s %10s %10s %6s %6s" % (
                peer["name"], peer["state"], peer["shipped_lsn"],
                peer["acked_lsn"], peer["lag"], peer["seeds"],
            ))
        return "\n".join(lines)

    def _health(self):
        """The serving-health report: robustness counters + mode."""
        stats = self.mdm.statistics()
        mode = "normal"
        if stats.get("degraded"):
            mode = "DEGRADED (read-only): %s" % self.mdm.database.degraded_reason
        lines = ["mode                     %s" % mode]
        for key in (
            "admitted", "commits", "retries", "retry_exhausted",
            "overload_shed", "deadlock_aborts", "lock_waits",
            "lock_timeouts", "query_timeouts", "resource_limited",
        ):
            lines.append("%-24s %s" % (key, stats.get(key, 0)))
        return "\n".join(lines)

    def _list_schema(self):
        schema = self.mdm.schema
        lines = ["entity types:"]
        for name in sorted(schema.entity_types):
            lines.append(
                "  %-24s %d instance(s)"
                % (name, schema.entity_types[name].count())
            )
        lines.append("relationships:")
        for name in sorted(schema.relationships):
            lines.append(
                "  %-24s %s" % (name, schema.relationships[name].cardinality)
            )
        lines.append("orderings:")
        for name in sorted(schema.orderings):
            ordering = schema.orderings[name]
            lines.append(
                "  %-24s (%s) under %s"
                % (name, ", ".join(ordering.child_types), ordering.parent_type)
            )
        return "\n".join(lines)

    def _describe(self, name):
        schema = self.mdm.schema
        if not schema.has_entity_type(name):
            return "no entity type %r" % name
        entity_type = schema.entity_type(name)
        lines = ["define entity %s" % name]
        for attribute in entity_type.attributes:
            lines.append("  %-20s %s" % (attribute.name, attribute.domain_name()))
        involved = schema.orderings_with_child(name)
        for ordering in involved:
            lines.append("  child in ordering %s" % ordering.name)
        for ordering in schema.orderings_with_parent(name):
            lines.append("  parent of ordering %s" % ordering.name)
        return "\n".join(lines)


def main():
    shell = MdmShell()
    print("Music Data Manager shell -- \\q to quit, blank line executes.")
    while not shell.done:
        try:
            prompt = "....> " if shell._buffer else "mdm> "
            line = input(prompt)
        except EOFError:
            break
        output = shell.handle_line(line)
        if output:
            print(output)


if __name__ == "__main__":
    main()
