"""Deterministic fault injection for the lookup service and network.

The paper's deployment puts a shared hash database behind the network
(§5, Fig. 1): a disclosure decision can now be delayed, dropped, or
refused by an overloaded backend, and §6.2's latency requirement means
a slow lookup must not wedge the editor. To test those paths the repo
injects faults *deterministically*: either from an explicit schedule
(one fault per request, in order — used by tests that assert exact
retry/timeout counters) or from a seeded RNG with configured rates
(used by the multi-client load driver).

Latency faults carry a duration but nothing here sleeps; the consumer
compares the injected latency against its timeout budget, which keeps
fault tests instantaneous and repeatable.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # deferred at runtime: obs.registry imports util.clock
    from repro.obs.registry import MetricsScope

#: Fault kinds, in reporting order.
KINDS = ("none", "latency", "drop", "error")


@dataclass(frozen=True)
class Fault:
    """One injected fault decision for one request.

    Attributes:
        kind: ``"none"`` (healthy), ``"latency"`` (slow response),
            ``"drop"`` (request lost, observed as a timeout), or
            ``"error"`` (backend refused with an HTTP 5xx).
        latency: injected service latency in seconds (latency kind).
        status: HTTP status for the error kind.
    """

    kind: str = "none"
    latency: float = 0.0
    status: int = 503

    @classmethod
    def none(cls) -> "Fault":
        return cls(kind="none")

    @classmethod
    def slow(cls, latency: float) -> "Fault":
        return cls(kind="latency", latency=latency)

    @classmethod
    def drop(cls) -> "Fault":
        return cls(kind="drop")

    @classmethod
    def error(cls, status: int = 503) -> "Fault":
        return cls(kind="error", status=status)


class FaultInjector:
    """Thread-safe source of per-request :class:`Fault` decisions.

    Exactly one of two modes:

    * **schedule**: an explicit sequence of faults consumed in request
      order; once exhausted every further request is healthy. This is
      what the fault-mode tests use so retry/backoff counters can be
      asserted against the schedule exactly.
    * **seeded rates**: a ``random.Random(seed)`` draws each request's
      fate from ``drop_rate`` / ``error_rate`` / ``latency_rate`` (the
      remainder is healthy); latency durations are uniform over
      ``latency_range``. Deterministic for a fixed seed and request
      order; the injector serialises draws under a mutex so concurrent
      clients cannot tear the RNG state.

    ``injected`` counts decisions per kind (exact, mutex-guarded). The
    counts live in a :class:`~repro.obs.registry.MetricsRegistry` scope
    (a private ``faults.``-prefixed one unless the owner passes its
    own); ``injected`` and ``stats()`` are thin views over those
    instruments.
    """

    def __init__(
        self,
        *,
        schedule: Optional[Sequence[Fault]] = None,
        seed: int = 0,
        drop_rate: float = 0.0,
        error_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_range: Tuple[float, float] = (0.0, 0.0),
        statuses: Sequence[int] = (500, 502, 503),
        scope: Optional["MetricsScope"] = None,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("error_rate", error_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if drop_rate + error_rate + latency_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1.0")
        self._mutex = threading.Lock()
        self._schedule = list(schedule) if schedule is not None else None
        self._position = 0
        self._rng = random.Random(seed)
        self._drop_rate = drop_rate
        self._error_rate = error_rate
        self._latency_rate = latency_rate
        self._latency_range = latency_range
        self._statuses = tuple(statuses)
        if scope is None:
            from repro.obs.registry import MetricsRegistry

            scope = MetricsRegistry().scope("faults.")
        self.metrics = scope
        self._injected = {
            kind: scope.counter(f"injected_{kind}") for kind in KINDS
        }

    @property
    def injected(self) -> Dict[str, int]:
        """Per-kind injected counts (legacy view over the registry)."""
        with self._mutex:
            return {kind: c.value for kind, c in self._injected.items()}

    def next_fault(self) -> Fault:
        """The fault decision for the next request (thread-safe)."""
        with self._mutex:
            fault = self._draw()
            self._injected[fault.kind].inc()
            return fault

    def _draw(self) -> Fault:
        if self._schedule is not None:
            if self._position >= len(self._schedule):
                return Fault.none()
            fault = self._schedule[self._position]
            self._position += 1
            return fault
        roll = self._rng.random()
        if roll < self._drop_rate:
            return Fault.drop()
        roll -= self._drop_rate
        if roll < self._error_rate:
            return Fault.error(self._rng.choice(self._statuses))
        roll -= self._error_rate
        if roll < self._latency_rate:
            return Fault.slow(self._rng.uniform(*self._latency_range))
        return Fault.none()

    def stats(self) -> Dict[str, int]:
        """Injected-fault counts per kind, prefixed for reporting.

        A thin view over the injector's registry scope, field-identical
        to ``metrics.snapshot()`` by construction.
        """
        with self._mutex:
            return {f"injected_{kind}": c.value for kind, c in self._injected.items()}
