"""Execution monitoring: the executor's one instrumentation hook.

An :class:`ExecutionMonitor` rides on the
:class:`~repro.engine.evaluator.ExecutionContext` of one statement when
something watches it: a profiler, live progress tracking (implied by
telemetry and by a memory budget) or a cancel event (a server session).
A bare execution has none, and the executor pays one ``is None`` test per
operator.  The executor calls ``enter``/``exit``/``abort`` around every
operator execution and ``checkpoint`` every 256 rows inside its loops;
each call lands a pending cancel, updates the node's one
:class:`OperatorRecord` (with a profiler also its wall time and a tracer
span), advances the live progress fields and keeps the memory budget.
``EXPLAIN ANALYZE`` freezes the records; the progress system tables read
them live.

The budget counts bytes *held*: an operator's output from when it
finishes until the operator consuming it as a direct plan input
finishes, and a hash-join build table for its join's duration.  Output
that outlives its consumer (a cached measure source, a memoized subquery
result, the statement's result) stays counted to the end of the
statement; a subquery result no memo keeps is released once used.  Checkpoints also project the buffer a loop is still
building, so a runaway join raises :class:`~repro.errors.ResourceExhausted`
mid-loop instead of running the interpreter out of memory.

One thread — the one executing the query — writes a monitor; any number
of observers (``repro_running_queries`` / ``repro_query_progress``, the
HTTP sidecar's ``/queries``, the shell's ``\\top``) read it without a
lock.  Every field they read is a plain attribute store of an immutable
value, so under the GIL a reader always sees a value that *was* true.

:class:`QueryRegistry` is the Database-wide directory of in-flight
tracked queries; registration takes a lock, reading a monitor never
does.  ``current_query_id`` lets a query scanning the registry exclude
itself.
"""

from __future__ import annotations

import contextvars
import itertools
import sys
import threading
import time
from datetime import datetime, timezone
from typing import Any, List, Optional

from repro.errors import QueryCancelled, ResourceExhausted

__all__ = [
    "ExecutionMonitor",
    "OperatorRecord",
    "QueryRegistry",
    "current_query_id",
]

#: The query id of the tracked statement executing in this context, or ""
#: outside one.  A ContextVar (not a thread-local) so it survives the
#: server's ``asyncio.to_thread`` hop, like the telemetry session label.
current_query_id: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_current_query", default=""
)

#: Byte estimate used for a row before the first real row is sampled.
_DEFAULT_ROW_BYTES = 80

#: Rows between two progress ticks; mirrors the executor's checkpoint
#: mask (``not index & 0xFF``).
TICK_ROWS = 256


def _estimate_row_bytes(row: tuple) -> int:
    """Cheap shallow byte estimate of one materialized row."""
    try:
        return sys.getsizeof(row) + sum(
            sys.getsizeof(value) for value in row
        )
    except TypeError:  # pragma: no cover - exotic cell types
        return _DEFAULT_ROW_BYTES


class OperatorRecord:
    """Everything observed about one plan node during one statement.

    A node re-entered per outer row (a correlated subquery plan)
    accumulates across executions; ``calls`` says how often.
    ``est_rows_min`` / ``est_rows_max`` are the dataflow analyzer's
    cardinality bounds (``plan.facts``).  ``rows_in`` is *measured*: a
    finishing operator adds its output to its parent's ``rows_in`` only
    when it is a direct plan input of that parent, so a subquery run from
    inside an expression does not pollute its host's input count.
    ``state`` walks pending -> running -> done; ``time_ns`` (children
    included) is only taken under a profiler.
    """

    __slots__ = (
        "op_id",
        "label",
        "est_rows_min",
        "est_rows_max",
        "calls",
        "rows_in",
        "rows_out",
        "time_ns",
        "counters",
        "state",
        "row_bytes",
        "inputs",
    )

    def __init__(self, op_id: int, label: str, inputs: tuple = (), facts=None):
        self.op_id = op_id
        self.label = label
        self.est_rows_min = None if facts is None else facts.row_min
        self.est_rows_max = None if facts is None else facts.row_max
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        self.time_ns = 0
        #: Operator-specific counters (hash_probes, comparisons, groups...).
        self.counters: dict[str, int] = {}
        self.state = "pending"
        #: Sampled bytes per output row, once the operator produced one.
        self.row_bytes = 0
        #: The plan node's direct inputs, for rows_in and byte release.
        self.inputs = inputs

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def as_row(self, query_id: str) -> tuple:
        """One ``repro_query_progress`` row."""
        return (
            query_id,
            self.op_id,
            self.label,
            self.est_rows_min,
            self.est_rows_max,
            self.rows_out,
            self.calls,
            self.state,
        )

    def to_dict(self) -> dict[str, Any]:
        """The operator-tree node of a serialized QueryProfile."""
        entry: dict[str, Any] = {
            "label": self.label,
            "calls": self.calls,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            # One materialized batch per successful call in this
            # operator-at-a-time engine.
            "batches": self.calls - self.counters.get("errors", 0),
            "time_ms": round(self.time_ns / 1e6, 3),
        }
        if self.counters:
            entry["counters"] = {k: self.counters[k] for k in sorted(self.counters)}
        return entry


class _Frame:
    """One operator execution in flight on the monitor's stack."""

    __slots__ = ("plan", "record", "held", "span", "start_ns")

    def __init__(self, plan, record: OperatorRecord):
        self.plan = plan
        self.record = record
        #: Bytes this execution releases on exit: its direct inputs'
        #: outputs and its own auxiliary state.
        self.held = 0
        self.span = None
        self.start_ns: Optional[int] = None


class ExecutionMonitor:
    """One statement execution's instrumentation: cancel flag, operator
    records, live progress and memory budget; single writer, lock-free
    readers."""

    __slots__ = (
        "query_id",
        "session_id",
        "sql",
        "traceparent",
        "started_s",
        "started_ns",
        "rows_processed",
        "current_operator",
        "memory_bytes",
        "memory_limit_bytes",
        "cancel_event",
        "tracer",
        "_clock",
        "_records",
        "_stack",
        "_next_op",
    )

    def __init__(
        self,
        query_id: str = "",
        *,
        sql: str = "",
        session_id: str = "",
        traceparent: str = "",
        memory_limit_bytes: Optional[int] = None,
        profiler=None,
        cancel_event=None,
    ):
        self.query_id = query_id
        self.session_id = session_id
        self.sql = sql
        self.traceparent = traceparent
        self.started_s = time.time()
        self.started_ns = time.perf_counter_ns()
        self.rows_processed = 0
        self.current_operator = ""
        self.memory_bytes = 0
        self.memory_limit_bytes = memory_limit_bytes
        #: Optional :class:`threading.Event`; once set, the next operator
        #: boundary or checkpoint raises :class:`QueryCancelled`.
        self.cancel_event = cancel_event
        #: The attached profiler's tracer and clock, or None: operators
        #: are timed and get spans only under a profiler.
        self.tracer = None if profiler is None else profiler.tracer
        self._clock = None if profiler is None else profiler.clock
        #: id(plan node) -> OperatorRecord, insertion-ordered; readers
        #: materialize ``list(values())`` which is atomic under the GIL.
        self._records: dict = {}
        self._stack: list[_Frame] = []
        self._next_op = itertools.count(1)

    # -- writer side (the executing thread) ------------------------------

    def attach_plan(self, plan: Any) -> None:
        """Pre-register every operator of ``plan`` with its estimated
        cardinality bounds, so estimated-vs-actual rows are visible from
        the first tick (and for operators that never run at all)."""
        for node in plan.walk():
            if id(node) not in self._records:
                self._new_record(node)

    def _new_record(self, plan: Any) -> OperatorRecord:
        record = OperatorRecord(
            next(self._next_op),
            plan.label(),
            tuple(plan.inputs()),
            getattr(plan, "facts", None),
        )
        self._records[id(plan)] = record
        return record

    def record(self, plan: Any) -> Optional[OperatorRecord]:
        """The record of ``plan``, or None if it was never seen."""
        return self._records.get(id(plan))

    def enter(self, plan: Any) -> _Frame:
        """An operator starts; returns the frame for :meth:`exit` /
        :meth:`abort`."""
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise QueryCancelled("query cancelled")
        record = self._records.get(id(plan))
        if record is None:
            record = self._new_record(plan)
        record.state = "running"
        self.current_operator = record.label
        frame = _Frame(plan, record)
        if self.tracer is not None:
            frame.span = self.tracer.begin(record.label, "operator")
            frame.start_ns = self._clock()
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame, rows: list) -> None:
        """An operator finished with ``rows``: release what it held,
        account its output, and raise if that breaches the budget."""
        record = frame.record
        count = len(rows)
        output_bytes = 0
        if count:
            if not record.row_bytes:
                record.row_bytes = _estimate_row_bytes(rows[0])
            output_bytes = count * record.row_bytes
        held = self.memory_bytes - frame.held + output_bytes
        if self.memory_limit_bytes is not None and held > self.memory_limit_bytes:
            self._exhausted(record.label, held)
        self.memory_bytes = held
        stack = self._stack
        stack.pop()
        record.calls += 1
        record.rows_out += count
        record.state = "done"
        self.rows_processed += count
        if stack:
            parent = stack[-1]
            # Only a direct plan input feeds its parent's rows_in and dies
            # with it; a subquery or measure source run from an expression
            # stays counted while its memo keeps it (see release).
            if any(child is frame.plan for child in parent.record.inputs):
                parent.record.rows_in += count
                parent.held += output_bytes
        if frame.start_ns is not None:
            record.time_ns += self._clock() - frame.start_ns
            if frame.span is not None:
                frame.span.meta["rows"] = count
                self.tracer.end(frame.span)

    def release(self, plan: Any, rows: list) -> None:
        """``rows``, the output of ``plan`` run from an expression, are
        dropped after use instead of staying alive in a memo."""
        self.memory_bytes -= len(rows) * self._records[id(plan)].row_bytes

    def abort(self, frame: _Frame) -> None:
        """Unwind an operator execution that raised."""
        self._stack.pop()
        record = frame.record
        record.calls += 1
        record.count("errors")
        if frame.start_ns is not None:
            record.time_ns += self._clock() - frame.start_ns
            if frame.span is not None:
                frame.span.meta["error"] = True
                self.tracer.end(frame.span)

    def count(self, key: str, amount: int) -> None:
        """Add to a counter of the running operator (hash_probes, ...)."""
        self._stack[-1].record.count(key, amount)

    def account(self, nbytes: int) -> None:
        """Hold auxiliary state (a hash-join build table) of the running
        operator until it exits."""
        frame = self._stack[-1]
        frame.held += nbytes
        self.memory_bytes += nbytes
        if (
            self.memory_limit_bytes is not None
            and self.memory_bytes > self.memory_limit_bytes
        ):
            self._exhausted(frame.record.label, self.memory_bytes)

    def checkpoint(self, plan: Any, buffered_rows: int) -> None:
        """A 256-row checkpoint inside an operator loop.

        Lands a pending cancel, advances the rows-processed counter, pins
        the current operator, and — when a budget is set — projects the
        loop's growing buffer against it, so a runaway join dies
        mid-flight instead of after materializing its output.
        """
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise QueryCancelled("query cancelled")
        record = self._records.get(id(plan))
        if record is None:
            record = self._new_record(plan)
        self.current_operator = record.label
        self.rows_processed += TICK_ROWS
        if self.memory_limit_bytes is not None and buffered_rows:
            per_row = record.row_bytes or _DEFAULT_ROW_BYTES
            projected = self.memory_bytes + buffered_rows * per_row
            if projected > self.memory_limit_bytes:
                self._exhausted(record.label, projected)

    def _exhausted(self, label: str, observed: int) -> None:
        raise ResourceExhausted(
            f"query memory budget exhausted in {label}: "
            f"~{observed} bytes buffered, limit "
            f"{self.memory_limit_bytes} (query {self.query_id})"
        )

    # -- reader side (any thread) -----------------------------------------

    @property
    def started(self) -> str:
        return datetime.fromtimestamp(self.started_s, timezone.utc).isoformat(
            timespec="seconds"
        )

    @property
    def elapsed_ms(self) -> float:
        return (time.perf_counter_ns() - self.started_ns) / 1e6

    def as_row(self) -> tuple:
        """The ``repro_running_queries`` row for this query."""
        return (
            self.query_id,
            self.session_id or None,
            self.sql or None,
            self.traceparent or None,
            self.started,
            round(self.elapsed_ms, 3),
            self.rows_processed,
            self.current_operator or None,
            self.memory_bytes,
            self.memory_limit_bytes,
        )

    def operator_rows(self) -> List[tuple]:
        """The ``repro_query_progress`` rows, plan-registration order."""
        return [
            record.as_row(self.query_id)
            for record in list(self._records.values())
        ]

    def as_dict(self) -> dict:
        """JSON shape served by the HTTP sidecar's ``/queries``."""
        return {
            "query_id": self.query_id,
            "session_id": self.session_id or None,
            "sql": self.sql or None,
            "traceparent": self.traceparent or None,
            "started": self.started,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "rows_processed": self.rows_processed,
            "current_operator": self.current_operator or None,
            "memory_bytes": self.memory_bytes,
            "memory_limit_bytes": self.memory_limit_bytes,
        }


class QueryRegistry:
    """Directory of in-flight tracked queries on one Database.

    Registration and removal take a plain lock (statement granularity);
    everything read *through* the registry is a lock-free monitor.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queries: dict = {}
        self._seq = itertools.count(1)
        #: Lifetime count of tracked queries.
        self.started_total = 0

    def start(self, **fields) -> ExecutionMonitor:
        """Register a new tracked query; ``fields`` are the
        :class:`ExecutionMonitor` keyword arguments."""
        with self._lock:
            monitor = ExecutionMonitor(f"q{next(self._seq)}", **fields)
            self._queries[monitor.query_id] = monitor
            self.started_total += 1
        return monitor

    def finish(self, monitor: ExecutionMonitor) -> None:
        with self._lock:
            self._queries.pop(monitor.query_id, None)

    def snapshot(self, exclude: str = "") -> List[ExecutionMonitor]:
        """The currently running queries, oldest first.

        ``exclude`` drops one query id — the caller's own, so a query
        over ``repro_running_queries`` never observes itself.
        """
        with self._lock:
            monitors = list(self._queries.values())
        return [m for m in monitors if m.query_id != exclude]

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)
