"""Spans taken from outside the program, for the traced benchmark run.

``Tracer.install()`` replaces the public callables listed in ``TARGETS``
with timing wrappers; ``uninstall()`` puts the originals back.  Nothing
under ``src/`` is edited.  A span is a list ``[name, parent, start_ns,
end_ns, child_ns]`` kept in memory; ``parent`` is the enclosing span on
the same thread, or, for the server's connection thread, the client call
that thread is serving (closed loop: one open call per connection).

A layer's *busy* time is the duration of its outermost spans; a span's
*self* time is its duration minus the part its children cover.  Only
statement- and batch-level callables are wrapped, never per-row ones such
as ``Table.get``.
"""

import threading
import time
import types

_clock = time.perf_counter_ns

#: (module, owner class or None, attribute, span name).  The span name's
#: prefix up to the last dot is the metric group it is summed into.
TARGETS = [
    ("repro.net.protocol", None, "pack", "net.encode.pack"),
    ("repro.net.protocol", None, "encode_frame", "net.encode.frame"),
    ("repro.net.protocol", None, "encode_rows", "net.encode.rows"),
    ("repro.net.protocol", None, "unpack_json", "net.decode.json"),
    ("repro.net.protocol", None, "decode_payload", "net.decode.payload"),
    ("repro.net.protocol", None, "decode_rows", "net.decode.rows"),
    ("repro.net.client", "MdmClient", "retrieve", "net.call.retrieve"),
    ("repro.net.client", "MdmClient", "execute", "net.call.execute"),
    ("repro.mdm.service", "MdmSession", "run", "mdm.run.run"),
    ("repro.mdm.service", "AdmissionGate", "acquire", "mdm.admission.acquire"),
    ("repro.quel.executor", "QuelSession", "execute", "quel.execute.execute"),
    ("repro.quel.executor", None, "parse_quel", "quel.parse.parse_quel"),
    ("repro.quel.executor", None, "compile_statement",
     "quel.compile.compile_statement"),
    ("repro.text.index", "TrigramIndex", "candidates_matching",
     "text.search.candidates_matching"),
    ("repro.text.index", "TrigramIndex", "iter_matching",
     "text.search.iter_matching"),
    ("repro.text.index", "TrigramIndex", "candidates_similar",
     "text.search.candidates_similar"),
    ("repro.text.index", "TrigramIndex", "similar_overlaps",
     "text.search.similar_overlaps"),
    ("repro.text.index", "TrigramIndex", "overlap_counts",
     "text.search.overlap_counts"),
    ("repro.text.index", "TrigramIndex", "insert", "text.maintain.insert"),
    ("repro.text.index", "TrigramIndex", "delete", "text.maintain.delete"),
    ("repro.storage.table", "Table", "get_many", "storage.table_read.get_many"),
    ("repro.storage.table", "Table", "select_eq",
     "storage.table_read.select_eq"),
    ("repro.storage.table", "Table", "select_range",
     "storage.table_read.select_range"),
    ("repro.storage.table", "Table", "sorted_by",
     "storage.table_read.sorted_by"),
    ("repro.storage.table", "Table", "scan", "storage.table_read.scan"),
    ("repro.storage.table", "Table", "insert", "storage.table_write.insert"),
    ("repro.storage.table", "Table", "update", "storage.table_write.update"),
    ("repro.storage.table", "Table", "delete", "storage.table_write.delete"),
    ("repro.storage.wal", "WriteAheadLog", "append",
     "storage.wal_append.append"),
    ("repro.storage.wal", "WriteAheadLog", "append_batch",
     "storage.wal_append.append_batch"),
    ("repro.storage.wal", "WriteAheadLog", "commit_flush",
     "storage.wal_flush.commit_flush"),
    ("repro.storage.wal", "WriteAheadLog", "sync_to",
     "storage.wal_flush.sync_to"),
    ("repro.storage.wal", None, "replay", "storage.replay.replay"),
    ("repro.storage.lock", "LockManager", "acquire", "storage.lock.acquire"),
    ("repro.core.ordering", "Ordering", "insert", "core.ordering_edit.insert"),
    ("repro.core.ordering", "Ordering", "append", "core.ordering_edit.append"),
    ("repro.core.ordering", "Ordering", "move", "core.ordering_edit.move"),
    ("repro.core.ordering", "Ordering", "remove", "core.ordering_edit.remove"),
    ("repro.core.ordering", "Ordering", "reparent",
     "core.ordering_edit.reparent"),
    ("repro.core.ordering", "Ordering", "children",
     "core.ordering_read.children"),
    ("repro.core.ordering", "Ordering", "child_at",
     "core.ordering_read.child_at"),
    ("repro.core.ordering", "Ordering", "position_of",
     "core.ordering_read.position_of"),
    ("repro.core.ordering", "Ordering", "before", "core.ordering_read.before"),
    ("repro.core.ordering", "Ordering", "after", "core.ordering_read.after"),
    ("repro.core.ordering", "Ordering", "under", "core.ordering_read.under"),
    ("repro.core.ordering", "Ordering", "parent_of",
     "core.ordering_read.parent_of"),
    ("repro.core.ordering", "Ordering", "member_row_of",
     "core.ordering_read.member_row_of"),
    ("repro.core.ordering", "Ordering", "member_rows_under",
     "core.ordering_read.member_rows_under"),
    ("repro.core.ordering", "Ordering", "member_rows_before",
     "core.ordering_read.member_rows_before"),
    ("repro.core.ordering", "Ordering", "member_rows_after",
     "core.ordering_read.member_rows_after"),
    ("repro.core.entity", "EntityType", "create", "core.entity_create.create"),
]

NAME, PARENT, START, END, CHILD = range(5)


def group_of(name):
    return name.rsplit(".", 1)[0]


class _TimedIterator:
    """Charges the time spent inside a lazy result's ``next`` to its span."""

    __slots__ = ("_inner", "_span")

    def __init__(self, inner, span):
        self._inner = inner
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        started = _clock()
        try:
            return next(self._inner)
        finally:
            self._span[END] += _clock() - started


class Tracer:
    """Installs the wrappers, holds the spans, and sums them by layer."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.result_bytes = 0
        self.ordering_row_writes = {}  # op class -> ordering-table row writes
        self._local = threading.local()
        self._open_calls = {}  # client id -> its open net.call span
        self._originals = []

    # -- installing --------------------------------------------------------

    def install(self):
        import importlib

        for module_name, owner_name, attribute, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapper(original, span_name))

    def uninstall(self):
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrapper(self, fn, name):
        tracer = self
        local = self._local
        spans = self.spans
        is_client_call = name.startswith("net.call.")
        is_session_run = name == "mdm.run.run"
        is_result_frame = name == "net.encode.pack"
        is_table_write = name.startswith("storage.table_write.")

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
            if is_session_run:
                session_name = args[0].name
                if session_name.startswith("net:"):
                    local.client = session_name[4:]
            if stack:
                parent = stack[-1]
            else:
                # A connection thread between two of its own spans: the
                # work belongs to the call its client is waiting on.
                parent = tracer._open_calls.get(local.__dict__.get("client"))
            span = [name, parent, _clock(), 0, 0]
            spans.append(span)
            stack.append(span)
            if is_client_call:
                tracer._open_calls[str(args[0].client_id)] = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = _clock()
                stack.pop()
                if is_client_call:
                    tracer._open_calls.pop(str(args[0].client_id), None)
            if isinstance(result, types.GeneratorType):
                return _TimedIterator(result, span)
            if is_result_frame and args and args[0] == 0x12:  # protocol.RESULT
                tracer.result_bytes += len(result)
            elif is_table_write and args[0].name.startswith("ord:"):
                writes = tracer.ordering_row_writes
                op = stack[0][NAME] if stack else ""
                writes[op] = writes.get(op, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- request roots -----------------------------------------------------

    def begin(self, op_class):
        """Open the root span of one benchmark op on this thread."""
        span = ["op." + op_class, None, _clock(), 0, 0]
        self.spans.append(span)
        self._local.stack = [span]
        return span

    def end(self, span):
        span[END] = _clock()
        self._local.stack = []

    # -- summing -----------------------------------------------------------

    def summary(self):
        """Busy and self microseconds and outermost-span counts per group,
        and the request count.

        Orphans (a connection thread's first decode, anything outside an
        op) have no root and are left out.
        """
        for span in self.spans:
            span[CHILD] = 0
        rooted = []
        for span in self.spans:
            top = span
            while top[PARENT] is not None:
                top = top[PARENT]
            if top[NAME].startswith("op."):
                rooted.append(span)
                if span[PARENT] is not None:
                    span[PARENT][CHILD] += span[END] - span[START]
        busy = {}
        count = {}
        self_time = {}
        requests = {}  # root span name -> how many
        root_ns = 0
        for span in rooted:
            group = group_of(span[NAME])
            duration = span[END] - span[START]
            self_time[group] = (
                self_time.get(group, 0) + max(0, duration - span[CHILD])
            )
            if span[PARENT] is None:
                requests[span[NAME]] = requests.get(span[NAME], 0) + 1
                root_ns += duration
            ancestor = span[PARENT]
            while ancestor is not None and group_of(ancestor[NAME]) != group:
                ancestor = ancestor[PARENT]
            if ancestor is None:
                busy[group] = busy.get(group, 0) + duration
                count[group] = count.get(group, 0) + 1
        return {
            "requests": sum(requests.values()),
            "requests_by_op": requests,
            "root_us": root_ns / 1e3,
            "self_sum_us": sum(self_time.values()) / 1e3,
            "busy_us": {g: ns / 1e3 for g, ns in sorted(busy.items())},
            "self_us": {g: ns / 1e3 for g, ns in sorted(self_time.items())},
            "count": dict(sorted(count.items())),
            "spans": len(rooted),
            "result_bytes": self.result_bytes,
            "ordering_row_writes": sum(self.ordering_row_writes.values()),
            "ordering_row_writes_by_op": dict(self.ordering_row_writes),
        }

    def write(self, path, limit=100_000):
        """Write spans as ``name start_ns end_ns parent request`` lines."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        request = {}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# span name start_ns end_ns parent request "
                         "(%d spans, first %d written)\n"
                         % (len(self.spans), min(limit, len(self.spans))))
            for i, span in enumerate(self.spans[:limit]):
                parent = span[PARENT]
                if parent is None:
                    request[i] = i
                    parent_index = -1
                else:
                    parent_index = index[id(parent)]
                    request[i] = request.get(parent_index, -1)
                handle.write("%d %s %d %d %d %d\n" % (
                    i, span[NAME], span[START], span[END],
                    parent_index, request[i],
                ))
