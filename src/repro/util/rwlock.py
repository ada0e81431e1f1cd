"""A write-preferring, reentrant reader–writer lock with counters.

The shared lookup service serves many clients from one set of
disclosure databases (paper §5: one hash database per enterprise,
consulted by every user's plug-in). Queries vastly outnumber updates —
one observation per page load or committed upload versus one decision
per keystroke — so the databases are guarded by a reader–writer lock:
disclosure queries share the lock, observations and discards take it
exclusively.

Design points:

* **Write-preferring**: new readers queue behind a waiting writer, so a
  steady stream of per-keystroke queries cannot starve an observation.
* **Reentrant**: a thread holding the write lock may re-enter both the
  write and the read side (the engine's compound operations — observe,
  check-document — nest reads inside writes on the same lock), and a
  reader may re-enter the read side. A read→write *upgrade* is refused
  with ``RuntimeError`` because two upgrading readers would deadlock.
* **Counted**: acquisition and contention counters feed the engine's
  ``stats()`` → ``format_counters`` reporting path so lock behaviour is
  visible next to latency numbers. Counter increments happen under the
  lock's state mutex, so they are exact. The counters live in a
  :class:`~repro.obs.registry.MetricsRegistry` scope (a private one
  unless the owner passes a shared scope), and ``stats()`` plus the
  legacy public attributes are thin views over those instruments.
* **Cheap when uncontended** (DESIGN.md §8): one C-level
  ``threading.Lock`` guards the state, and a ``Condition`` on it is
  used only to wait. An acquisition that finds the lock free, or that
  re-enters it, takes the mutex once and never touches the condition;
  a release notifies only when a thread is waiting. The guards that
  :meth:`RWLock.read_locked` and :meth:`RWLock.write_locked` return are
  built once per lock and call ``acquire_*``/``release_*`` through the
  lock instance on every entry, so a wrapper installed on the instance
  sees every acquisition.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # deferred at runtime: obs.registry imports util.clock
    from repro.obs.registry import MetricsScope

_get_ident = threading.get_ident


class _ReadGuard:
    """``with lock.read_locked():`` — holds no state, so one serves
    every entry, nested ones included."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock") -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_read()

    def __exit__(self, *_exc) -> None:
        self._lock.release_read()


class _WriteGuard:
    """``with lock.write_locked():``, like :class:`_ReadGuard`."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock") -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_write()

    def __exit__(self, *_exc) -> None:
        self._lock.release_write()


class RWLock:
    """Reader–writer lock: shared readers, one exclusive writer.

    Args:
        scope: metrics scope for the acquisition counters. A private
            registry under the conventional ``lock.`` prefix is created
            when omitted, so standalone locks behave exactly as before;
            owners that share one registry (a tracker, the CLI) pass
            their own scope instead.
    """

    def __init__(self, *, scope: Optional["MetricsScope"] = None) -> None:
        #: Guards every field below; the condition shares it and is
        #: only waited on (and notified) when an acquisition must block.
        #: The four acquire/release methods call ``acquire``/``release``
        #: in a ``try`` rather than use ``with``, which costs twice as
        #: much per call on CPython 3.11 (0.27 against 0.14 µs).
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        # thread ident → read recursion depth (readers only).
        self._readers: Dict[int, int] = {}
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._waiting_writers = 0
        self._waiting_readers = 0
        if scope is None:
            from repro.obs.registry import MetricsRegistry

            scope = MetricsRegistry().scope("lock.")
        self.metrics = scope
        #: Exact acquisition counters (incremented under the mutex).
        self._read_acquisitions = scope.counter("read_acquisitions")
        self._write_acquisitions = scope.counter("write_acquisitions")
        #: Acquisitions that had to wait at least once.
        self._read_contended = scope.counter("read_contended")
        self._write_contended = scope.counter("write_contended")
        self._read_guard = _ReadGuard(self)
        self._write_guard = _WriteGuard(self)

    # Legacy public counter attributes, now views over the registry.

    @property
    def read_acquisitions(self) -> int:
        return self._read_acquisitions.value

    @property
    def write_acquisitions(self) -> int:
        return self._write_acquisitions.value

    @property
    def read_contended(self) -> int:
        return self._read_contended.value

    @property
    def write_contended(self) -> int:
        return self._write_contended.value

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def acquire_read(self) -> None:
        me = _get_ident()
        self._mutex.acquire()
        try:
            depth = self._readers.get(me)
            if depth is not None:
                self._readers[me] = depth + 1
            # A read inside this thread's own write must not queue behind
            # waiting writers, or the thread deadlocks against itself.
            elif self._writer == me or (
                self._writer is None and not self._waiting_writers
            ):
                self._readers[me] = 1
            else:
                self._waiting_readers += 1
                try:
                    while self._writer is not None or self._waiting_writers:
                        self._cond.wait()
                finally:
                    self._waiting_readers -= 1
                self._readers[me] = 1
                self._read_contended.inc()
            self._read_acquisitions.inc()
        finally:
            self._mutex.release()

    def release_read(self) -> None:
        me = _get_ident()
        self._mutex.acquire()
        try:
            depth = self._readers.get(me)
            if depth is None:
                raise RuntimeError("release_read without a matching acquire_read")
            if depth > 1:
                self._readers[me] = depth - 1
                return
            del self._readers[me]
            if not self._readers and self._waiting_writers:
                self._cond.notify_all()
        finally:
            self._mutex.release()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def acquire_write(self) -> None:
        me = _get_ident()
        self._mutex.acquire()
        try:
            if self._writer == me:
                self._writer_depth += 1
                self._write_acquisitions.inc()
                return
            if me in self._readers:
                raise RuntimeError(
                    "read->write upgrade would deadlock; acquire the write "
                    "lock before the read lock"
                )
            contended = self._writer is not None or bool(self._readers)
            if contended:
                self._waiting_writers += 1
                try:
                    while self._writer is not None or self._readers:
                        self._cond.wait()
                except BaseException:
                    # Interrupted while queued: readers held back by this
                    # writer must not wait for a release that never comes.
                    if self._waiting_readers:
                        self._cond.notify_all()
                    raise
                finally:
                    self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1
            self._write_acquisitions.inc()
            if contended:
                self._write_contended.inc()
        finally:
            self._mutex.release()

    def release_write(self) -> None:
        me = _get_ident()
        self._mutex.acquire()
        try:
            if self._writer != me:
                raise RuntimeError("release_write by a thread not holding the lock")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                if self._waiting_writers or self._waiting_readers:
                    self._cond.notify_all()
        finally:
            self._mutex.release()

    # ------------------------------------------------------------------
    # Context managers and introspection
    # ------------------------------------------------------------------

    def read_locked(self) -> _ReadGuard:
        """``with lock.read_locked():`` holds the read side."""
        return self._read_guard

    def write_locked(self) -> _WriteGuard:
        """``with lock.write_locked():`` holds the write side."""
        return self._write_guard

    def held_for_write(self) -> bool:
        """True iff the *calling thread* holds the write lock."""
        with self._mutex:
            return self._writer == _get_ident()

    def stats(self) -> Dict[str, int]:
        """Exact acquisition/contention counters for reporting.

        A thin view over the lock's registry scope: field-identical to
        ``metrics.snapshot()`` by construction (differential-tested).
        """
        with self._mutex:
            return {
                "read_acquisitions": self._read_acquisitions.value,
                "write_acquisitions": self._write_acquisitions.value,
                "read_contended": self._read_contended.value,
                "write_contended": self._write_contended.value,
            }
