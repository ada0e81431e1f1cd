"""Micro-benchmarks of the core operations behind every figure.

Not tied to a paper exhibit; these keep the cost model of the engine
visible: fingerprinting throughput, Algorithm 1 query latency, and
label flow checks.
"""

import random
import time

from repro.datasets.synthesis import TextSynthesizer
from repro.disclosure import DisclosureEngine
from repro.eval.reporting import format_snapshot
from repro.fingerprint import Fingerprinter
from repro.fingerprint.config import PAPER_CONFIG
from repro.obs import NULL_REGISTRY, diff_snapshots
from repro.tdm.labels import Label, SegmentLabel


def test_fingerprint_throughput(benchmark):
    rng = random.Random("core-fp")
    synth = TextSynthesizer("fiction", rng)
    text = " ".join(synth.paragraph(5, 8) for _ in range(20))
    fp = Fingerprinter(PAPER_CONFIG)
    result = benchmark(fp.fingerprint, text)
    assert not result.is_empty()
    benchmark.extra_info["chars"] = len(text)


def test_algorithm1_query(benchmark, report):
    """The indexed single-sweep hot path (one O(1) owner lookup per hash)."""
    rng = random.Random("core-query")
    synth = TextSynthesizer("fiction", rng)
    engine = DisclosureEngine(PAPER_CONFIG)
    for i in range(300):
        engine.observe(f"s{i}", synth.paragraph(4, 7))
    target = engine.segment_db.get("s42").fingerprint
    before = engine.registry.snapshot()
    result = benchmark(engine.disclosing_sources, fingerprint=target)
    assert "s42" in result.source_ids()
    # Equivalence with the pre-index reference scan is the tier-1
    # differential suites' job (tests/reference_engine.py).
    counters = engine.metrics.snapshot()
    for key in ("candidates_swept", "ownership_changes"):
        benchmark.extra_info[key] = counters[key]
    delta = diff_snapshots(before, engine.registry.snapshot())
    report(
        format_snapshot(
            delta, title="Registry snapshot delta over the benchmarked queries:"
        )
    )
    # Every benchmarked call was counted, and each one ran (and timed)
    # the full sweep.
    assert delta["engine.paragraph.queries"] > 0
    algo = delta["engine.paragraph.algorithm1_seconds"]
    assert algo["count"] == delta["engine.paragraph.queries"]


def test_incremental_observe(benchmark):
    rng = random.Random("core-observe")
    synth = TextSynthesizer("fiction", rng)
    engine = DisclosureEngine(PAPER_CONFIG)
    paragraph = synth.paragraph(5, 8)
    counter = iter(range(10**9))

    def observe_fresh():
        engine.observe(f"p{next(counter)}", paragraph)

    benchmark(observe_fresh)


def test_algorithm1_metrics_overhead(benchmark, report):
    """Metrics must be near-free on the hot path: enabled vs counters-off.

    Two engines over the same corpus — one with the default registry,
    one with ``NULL_REGISTRY`` (shared no-op instruments, so the sweep
    skips even the ``+=``) — answer the same fresh-fingerprint queries
    interleaved. The smoke gate: the metrics-enabled Algorithm-1 median
    regresses less than 10% against the counters-off path (best of
    several rounds, to reject scheduler noise rather than measure it).
    """
    rounds, iterations = 5, 20
    rng = random.Random("core-overhead")
    synth = TextSynthesizer("fiction", rng)
    corpus = [synth.paragraph(4, 7) for _ in range(300)]
    # Distinct probes per (round, iteration) so every timed call is a
    # full sweep — identical fingerprints would be sweeps too (the
    # standalone-fingerprint path has no query cache), but fresh text
    # keeps the workload honest if that ever changes.
    probes_text = [synth.paragraph(4, 7) for _ in range(rounds * iterations)]

    engine_on = DisclosureEngine(PAPER_CONFIG)
    engine_off = DisclosureEngine(PAPER_CONFIG, registry=NULL_REGISTRY)
    for i, paragraph in enumerate(corpus):
        engine_on.observe(f"s{i}", paragraph)
        engine_off.observe(f"s{i}", paragraph)
    probes = [engine_off.fingerprint(text) for text in probes_text]

    def median(values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    def measure():
        ratios = []
        medians = []
        for r in range(rounds):
            on_times, off_times = [], []
            for k in range(iterations):
                probe = probes[r * iterations + k]
                # Alternate which engine sees the probe first: the first
                # query pays the cold-cache cost for that probe's hashes.
                first, second = (
                    (engine_on, engine_off) if k % 2 else (engine_off, engine_on)
                )
                pair = {}
                for engine in (first, second):
                    started = time.perf_counter()
                    engine.disclosing_sources(fingerprint=probe)
                    pair[engine is engine_on] = time.perf_counter() - started
                on_times.append(pair[True])
                off_times.append(pair[False])
            medians.append((median(on_times), median(off_times)))
            ratios.append(median(on_times) / median(off_times))
        return ratios, medians

    ratios, medians = benchmark.pedantic(measure, iterations=1, rounds=1)
    best = min(ratios)
    benchmark.extra_info["overhead_ratio_best"] = round(best, 4)
    lines = ["Metrics overhead: Algorithm-1 enabled vs NULL_REGISTRY"]
    for (on_med, off_med), ratio in zip(medians, ratios):
        lines.append(
            f"  enabled={on_med * 1000:.3f} ms  counters-off={off_med * 1000:.3f} ms"
            f"  ratio={ratio:.3f}"
        )
    lines.append(f"  best-of-{rounds} ratio = {best:.3f} (gate: < 1.10)")
    report("\n".join(lines))

    # Sanity: the off engine really is counters-off.
    assert engine_off.registry.snapshot() == {}
    assert engine_on.metrics.snapshot()["queries"] == rounds * iterations
    assert best < 1.10, f"metrics overhead {best:.3f} exceeds 10% budget"


def test_label_flow_check(benchmark):
    label = SegmentLabel.of(explicit=["ti", "tw"], implicit=["tn"])
    privilege = Label.of("ti", "tw", "tn", "tx")
    result = benchmark(label.flows_to, privilege)
    assert result
