"""Scatter/gather routing for sharded sweeps (DESIGN.md §11).

:class:`ShardRouter` counts the scatters of
:class:`~repro.disclosure.sharding.ShardedHashDatabase` sweeps: it runs
each sweep's per-shard jobs in the calling thread, in shard order. The
contract is duck-typed — the disclosure tier only requires an object
with ``map(fn, items)`` — so the dependency points plugin → disclosure,
never the other way around.

The per-shard probe loops are pure Python and hold the GIL throughout,
so a thread pool could not overlap them; handing them to worker threads
only added hand-off latency (DESIGN.md §11, "Scatter in the caller's
thread"). ``max_workers`` is kept for existing callers and sizes
nothing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from repro.obs.registry import MetricsRegistry, MetricsScope

T = TypeVar("T")
R = TypeVar("R")


class ShardRouter:
    """Counts and runs per-shard jobs in the calling thread.

    Args:
        max_workers: kept for existing callers and still validated
            (>= 1); it sizes nothing, because every job runs in the
            calling thread and the router starts no thread.
        scope: metrics scope for the router counters (``scatters`` =
            multi-shard fan-outs, ``jobs`` = per-shard jobs dispatched).
            A private ``router.``-scoped registry is created if omitted.

    Usable as a context manager, and :meth:`shutdown` may be called, so
    callers written for a pooled router keep working; neither releases
    anything.
    """

    def __init__(
        self, max_workers: int = 4, *, scope: Optional[MetricsScope] = None
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if scope is None:
            scope = MetricsRegistry().scope("router.")
        self.metrics = scope
        self._c_scatters = scope.counter("scatters")
        self._c_jobs = scope.counter("jobs")

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply *fn* to every item in item order; results in item order."""
        self._c_jobs.inc(len(items))
        if len(items) > 1:
            self._c_scatters.inc()
        return [fn(item) for item in items]

    def shutdown(self) -> None:
        """Nothing to release: the router owns no threads."""

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def stats(self) -> dict:
        """Scatter counters, field-identical to ``metrics.snapshot()``."""
        return {
            "scatters": self._c_scatters.value,
            "jobs": self._c_jobs.value,
        }
