"""Observability layer: metrics registry + pipeline trace spans.

Every counter surface in the system (engine, lock, caches, lookup
service, fault injectors, network, DLP firewall) registers its
instruments here, and a registry snapshot is the one way to read them.
:mod:`repro.obs.trace` adds nested span trees for
the intercept → fingerprint → Algorithm-1 → label-check → enforcement
pipeline, surfaced through ``repro trace`` and the benchmark harness.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    NullRegistry,
    diff_snapshots,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    TraceSpan,
    current_tracer,
    span,
    tracing,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NullRegistry",
    "diff_snapshots",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "TraceSpan",
    "current_tracer",
    "span",
    "tracing",
]
