"""Per-layer tracing for the benchmark.

Spans are recorded from the benchmark's own code: :class:`Tracer` wraps
public entry points of the instances a workload built (``obj.method =
tracer.wrap(name, obj.method)``), and the workload loop opens one root
span per request. A wrapper records a span only while its thread has a
root open, so set-up, audits and the shard router's worker threads
(whose work is charged to ``router.scatter``) pass straight through.

Every span is ``[name, start, end, parent, request]``; spans of one
request share the root's request id (op, batch or segment index). A
span's self time is its duration minus its children's durations; one
thread runs one span stack, so children never overlap and the self
times of a tree sum to its root exactly.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Mapping, Tuple

#: Every span the benchmark records: name -> (what it wraps, the
#: end-to-end metric it should move, the workload it moves it on).
#: Roots are opened by the workload loops; the rest wrap entry points.
SPANS: Dict[str, Tuple[str, str, str]] = {
    "op": ("root: one primary op (fleet op, reader batch, journaled observe); "
           "self time is browser DOM, services and plug-in glue",
           "ops_per_s", "fleet_typing"),
    "check": ("root: one single-request check beside the batches",
              "check_p50_ms", "lookup_scan"),
    "write": ("root: one writer observe beside the reader",
              "op_p90_ms", "lookup_scan"),
    "wal.sync": ("root: the WALSet.sync that ends the ingest",
                 "ops_per_s", "ingest_recover"),
    "wal.recover": ("root: one DurableEngine(dir) crash recovery",
                    "check_p50_ms", "ingest_recover"),
    "plugin.page_hook": ("Browser.page_hooks entries (page-load ingest)",
                         "ops_per_s, op_p90_ms", "fleet_mixed"),
    "plugin.xhr": ("patched xhr_prototype.send (sync interception)",
                   "ops_per_s", "fleet_typing"),
    "plugin.delta": ("EditBuffer build/update/current (delta dispatch)",
                     "check_p50_ms", "fleet_typing"),
    "plugin.client": ("LookupClient.lookup / lookup_batch (queue, retry)",
                      "check_p50_ms", "fleet_typing"),
    "plugin.server": ("LookupServer.handle / handle_batch",
                      "check_p50_ms", "fleet_typing"),
    "plugin.lookup": ("PolicyLookup.lookup / lookup_batch (decision cache)",
                      "check_p50_ms", "fleet_typing"),
    "tdm.observe": ("TextDisclosureModel.observe (page ingest labels)",
                    "ops_per_s, op_p90_ms", "fleet_mixed"),
    "tdm.check": ("TextDisclosureModel.check_upload(s) (label check)",
                  "ops_per_s, check_p50_ms", "lookup_scan"),
    "tdm.commit": ("TextDisclosureModel.commit_upload",
                   "ops_per_s", "fleet_typing"),
    "disclosure.observe": ("DisclosureEngine.observe_fingerprint",
                           "ops_per_s, op_p90_ms", "fleet_mixed"),
    "disclosure.sweep": ("DisclosureEngine.disclosing_sources(_many) "
                         "(Algorithm-1 sweep and threshold pass)",
                         "ops_per_s, check_p50_ms", "lookup_scan"),
    "fingerprint": ("Fingerprinter.fingerprint (normalise, hash, winnow)",
                    "ops_per_s", "ingest_recover; fleet_mixed"),
    "router.scatter": ("ShardRouter.map (scatter/gather, worker time)",
                       "ops_per_s", "lookup_scan"),
    "lock.wait": ("RWLock.acquire_read/acquire_write (tracker and shard locks)",
                  "op_p90_ms", "lookup_scan"),
    "wal.append": ("WALSet.append / append_payload (incl. batch fsyncs)",
                   "ops_per_s", "ingest_recover"),
    "wal.compact": ("DurableEngine.compact (snapshot and log rotation)",
                    "ops_per_s", "ingest_recover"),
    "wal.recover.snapshot": ("snapshot read and restore during recovery",
                             "check_p50_ms", "ingest_recover"),
    "wal.recover.replay": ("WAL tail replay during recovery",
                           "check_p50_ms", "ingest_recover"),
}

#: Per-span statistics: suffix -> (unit, better). Span latency
#: percentiles are in the trace file and ``trace_report.py`` instead: a
#: layer a workload bypasses has no latency to report, and a time that
#: reads 0 on every run is not a measurement.
SPAN_STATS: Dict[str, Tuple[str, str]] = {
    "calls_per_op": ("count", "lower"),
    "self_share": ("ratio", "lower"),
}

#: Counts reported as totals, each ratio's base among them: metric ->
#: registry counters summed into it. Counter names match by suffix, so
#: the per-shard lock scopes sum into the tracker lock's and both
#: engines' counters sum; ``bench.*`` counters are added by the
#: workloads themselves.
COUNTS: Dict[str, Tuple[str, ...]] = {
    "plugin.decision_cache.lookups": ("decision_cache.hits", "decision_cache.misses"),
    "plugin.fingerprint_cache.lookups": ("fingerprint.cache.hits", "fingerprint.cache.misses"),
    "plugin.delta.checks": ("plugin.delta.checks",),
    "disclosure.queries": ("queries",),
    "lock.read_acquisitions": ("lock.read_acquisitions",),
    "lock.write_acquisitions": ("lock.write_acquisitions",),
    "router.scatters": ("router.scatters",),
    "wal.appends": ("wal.appends",),
    "wal.input_bytes": ("bench.input_bytes",),
    "wal.records_replayed": ("wal.records_replayed",),
    "plugin.client.retries": ("bench.client.retries",),
    "plugin.client.degraded": ("bench.client.degraded",),
}

#: Counter ratios: name -> (numerator counters, denominator counters,
#: unit, better, the base count reported with it).
RATIOS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], str, str, str]] = {
    "plugin.decision_cache.hit_ratio": (
        ("decision_cache.hits",), COUNTS["plugin.decision_cache.lookups"],
        "ratio", "higher", "plugin.decision_cache.lookups"),
    "plugin.fingerprint_cache.hit_ratio": (
        ("fingerprint.cache.hits",), COUNTS["plugin.fingerprint_cache.lookups"],
        "ratio", "higher", "plugin.fingerprint_cache.lookups"),
    "plugin.delta.edit_ratio": (
        ("plugin.delta.edits",), ("plugin.delta.checks",),
        "ratio", "higher", "plugin.delta.checks"),
    "disclosure.candidates_per_query": (
        ("candidates_swept",), ("queries",), "count", "lower", "disclosure.queries"),
    "disclosure.query_cache.hit_ratio": (
        ("query_cache_hits",), ("queries",), "ratio", "higher", "disclosure.queries"),
    "lock.read_contended_ratio": (
        ("lock.read_contended",), ("lock.read_acquisitions",),
        "ratio", "lower", "lock.read_acquisitions"),
    "lock.write_contended_ratio": (
        ("lock.write_contended",), ("lock.write_acquisitions",),
        "ratio", "lower", "lock.write_acquisitions"),
    "router.jobs_per_scatter": (
        ("router.jobs",), ("router.scatters",), "count", "lower", "router.scatters"),
    "wal.fsyncs_per_append": (
        ("wal.fsyncs",), ("wal.appends",), "ratio", "lower", "wal.appends"),
    "wal.bytes_per_input_byte": (
        ("wal.bytes_appended",), ("bench.input_bytes",), "ratio", "lower", "wal.input_bytes"),
    "wal.replay_records_per_s": (
        ("wal.records_replayed",), ("bench.replay_seconds",),
        "1/s", "higher", "wal.records_replayed"),
}


def per_layer_metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, stable order."""
    specs = [
        (f"{span}.{stat}", unit, better)
        for span in SPANS
        for stat, (unit, better) in SPAN_STATS.items()
    ]
    specs += [(ratio, unit, better) for ratio, (_n, _d, unit, better, _b) in RATIOS.items()]
    specs += [(base, "count", "lower") for base in COUNTS]
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class _Root:
    __slots__ = ("_tracer", "_rec")

    def __init__(self, tracer: "Tracer", name: str, request) -> None:
        self._tracer = tracer
        self._rec = [name, 0.0, 0.0, None, request]

    def __enter__(self) -> None:
        local = self._tracer._local
        if getattr(local, "stack", None):
            raise RuntimeError("root span opened inside another span")
        local.stack = [self._rec]
        self._rec[1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._rec[2] = time.perf_counter()
        self._tracer._local.stack = []
        self._tracer.spans.append(self._rec)


class Tracer:
    """In-memory span recorder; inactive until :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[list] = []
        self._local = threading.local()

    def root(self, name: str, request):
        """Context manager for one request's root span (no-op if inactive)."""
        if not self.active:
            return _NO_SPAN
        return _Root(self, name, request)

    def wrap(self, name: str, fn):
        """*fn* recording a child span named *name* inside open roots."""
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1], stack[0][4]]
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                spans.append(rec)

        traced.__wrapped__ = fn
        return traced

    def instrument(self, obj, name: str, *attrs: str) -> None:
        """Replace each ``obj.<attr>`` with its traced wrapper."""
        for attr in attrs:
            setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def export(self) -> List[list]:
        """Spans as ``[name, start_s, end_s, parent_index, request]``."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            [name, start, end, None if parent is None else index[id(parent)], request]
            for name, start, end, parent, request in self.spans
        ]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values.

    The benchmark keeps its own rather than ``repro.util.stats``'s, so a
    change to the program cannot redefine how it is measured.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def self_times(spans: List[list]) -> List[float]:
    """Self time of every exported span, aligned with *spans*."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _req in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _r) in enumerate(spans)]


def span_metrics(spans: List[list]) -> Dict[str, float]:
    """``<span>.calls_per_op`` and ``<span>.self_share`` for every span."""
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    self_total: Dict[str, float] = defaultdict(float)
    root_total = 0.0
    for (name, start, end, parent, _req), own in zip(spans, selfs):
        calls[name] += 1
        self_total[name] += own
        if parent is None:
            root_total += end - start
    n_ops = calls.get("op", 0) or 1
    out: Dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls_per_op"] = calls.get(name, 0) / n_ops
        out[f"{name}.self_share"] = self_total[name] / root_total if root_total else 0.0
    return out


def _sum_suffix(counters: Mapping[str, float], suffixes) -> float:
    return sum(
        value
        for key, value in counters.items()
        if isinstance(value, (int, float)) and any(
            key == s or key.endswith("." + s) for s in suffixes
        )
    )


def counter_metrics(counters: Mapping[str, float]) -> Dict[str, float]:
    """Every ratio and base count from registry-counter deltas."""
    out: Dict[str, float] = {}
    for ratio, (num, den, _unit, _better, _base) in RATIOS.items():
        denominator = _sum_suffix(counters, den)
        out[ratio] = _sum_suffix(counters, num) / denominator if denominator else 0.0
    for base, names in COUNTS.items():
        out[base] = _sum_suffix(counters, names)
    return out


def write_trace(path, workload: str, seed: int, spans: List[list],
                metrics: Mapping[str, float]) -> None:
    """One JSON document per workload: the spans plus their metrics."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload, "seed": seed, "metrics": dict(metrics),
             "spans": spans},
            handle,
            separators=(",", ":"),
        )


def counter_delta(before: Mapping[str, object], after: Mapping[str, object]) -> Dict[str, float]:
    """Numeric registry-snapshot deltas (histograms are skipped)."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def merge_counts(total: Dict[str, float], delta: Mapping[str, float]) -> None:
    for name, value in delta.items():
        total[name] = total.get(name, 0) + value
