"""Single-writer / many-reader locking for shared-catalog access.

The storage layer's tables are plain Python lists mutated in place by
DML (``rows[i] = ...``, ``rows[:] = kept``), so a reader iterating a
table while a writer mutates it can observe a *torn* row set — some rows
pre-statement, some post.  :class:`RWLock` is the concurrency discipline
the session layer (:mod:`repro.server`) wraps around every statement:
queries acquire the shared side, DDL/DML the exclusive side, so a read
statement always sees either the complete pre-statement or complete
post-statement state of every table it scans.

The lock is writer-preferring: once a writer is waiting, new readers
queue behind it, so a steady stream of dashboard queries cannot starve
an INSERT forever.  It is also reentrant per-thread on the read side
(a reader that re-enters — e.g. an EXPLAIN that plans a subquery — does
not deadlock against a queued writer).

Single-caller use of :class:`~repro.api.Database` never touches the
lock; it exists for the session layer and costs nothing otherwise.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["RWLock"]


class RWLock:
    """A writer-preferring reader/writer lock.

    Use the context-manager helpers::

        with lock.read():
            ...  # shared with other readers
        with lock.write():
            ...  # exclusive
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None  # ident of the thread holding write
        self._writers_waiting = 0
        #: Per-thread read-entry counts, for read reentrancy.
        self._reading: dict[int, int] = {}

    # -- read side -----------------------------------------------------------

    def acquire_read(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            if self._writer == ident or self._reading.get(ident):
                # Reentrant: the thread already holds the lock (either
                # side); just bump its read count.
                self._readers += 1
                self._reading[ident] = self._reading.get(ident, 0) + 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            self._reading[ident] = self._reading.get(ident, 0) + 1

    def release_read(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            count = self._reading.get(ident, 0)
            if count <= 0:
                raise RuntimeError("release_read() without acquire_read()")
            if count == 1:
                del self._reading[ident]
            else:
                self._reading[ident] = count - 1
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side ----------------------------------------------------------

    def acquire_write(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            if self._writer == ident:
                raise RuntimeError("RWLock write side is not reentrant")
            if self._reading.get(ident):
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = ident
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write() by a non-holder")
            self._writer = None
            self._cond.notify_all()

    # -- context managers ----------------------------------------------------

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # -- introspection (repro_sessions / tests) ------------------------------

    @property
    def readers(self) -> int:
        return self._readers
