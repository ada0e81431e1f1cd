"""Clock abstractions.

The disclosure engine orders hash observations by timestamp to decide
which text segment is the *authoritative* owner of a fingerprint hash
(paper §4.3). Tests and deterministic experiments need a controllable
clock, while interactive use wants wall time; both implement the same
tiny protocol.
"""

from __future__ import annotations

import itertools
import time
from abc import ABC, abstractmethod

from repro.errors import DisclosureError


class Clock(ABC):
    """Source of monotonically non-decreasing timestamps."""

    @abstractmethod
    def now(self) -> float:
        """Return the current timestamp."""

    def advance_past(self, after: float) -> None:
        """Make every later reading exceed *after*, in place.

        Only a clock whose readings the program controls can resume
        past replayed timestamps; this default refuses with
        :class:`~repro.errors.DisclosureError` rather than leave the
        caller with a clock that may time-travel.
        """
        raise DisclosureError(
            f"cannot advance a {type(self).__name__} past {after}: "
            "only a LogicalClock resumes after replay"
        )


class LogicalClock(Clock):
    """Deterministic clock that ticks by one on every read.

    Guarantees strictly increasing timestamps, which makes "earliest
    observer" queries unambiguous in tests and experiments.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)

    def now(self) -> float:
        return float(next(self._counter))

    def advance_past(self, after: float) -> None:
        """Make every later reading exceed *after*; never moves back.

        Advances this object in place, so every component sharing the
        clock resumes together (recovery, standby promotion).
        """
        upcoming = next(self._counter)
        self._counter = itertools.count(max(upcoming, int(after) + 1))


class SystemClock(Clock):
    """Wall-clock time via :func:`time.monotonic`.

    Monotonic rather than ``time.time`` so that timestamp comparisons are
    immune to system clock adjustments during a session.
    """

    def now(self) -> float:
        return time.monotonic()
