"""The repository's benchmark of record.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                         [--trace-dir DIR] [--smoke]

Runs each workload in a fresh subprocess, prints every metric as
``workload metric value unit`` and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Exits non-zero when
any output is wrong. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics and
writes each workload's spans to ``DIR/<workload>.trace.json``.

A workload runs a fixed number of rounds, each on fresh state: enough
to fill ``--seconds`` at the nominal round times ``ROUND_S``, and at
least one per input variant, so the count depends on ``--seconds``
alone. Every set-up and round is scaled to a nominal host speed by the
host probe (``hostspeed``). Op and check timings are taken over the
requests of all untraced rounds together; set-up time is the median of
at least nine set-ups.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("fleet_mixed", "fleet_typing", "lookup_scan", "ingest_recover")
#: Nominal seconds per round of each workload, set-up and checks
#: included (about what an untraced round takes on a 2-core Xeon under
#: Python 3.11 in a fast spell); they fix the round count.
ROUND_S = {"fleet_mixed": 1.25, "fleet_typing": 1.25, "lookup_scan": 2.5, "ingest_recover": 1.5}
#: Rounds per run at the least, and at least one per input variant
#: (each fleet schedule).
MIN_ROUNDS = 4
#: Slices the host probe times right before and right after a set-up.
SETUP_SLICES = 5
#: Set-ups per untraced run: one per round, then unmeasured set-ups
#: (built and torn down) until there are this many.
MIN_SETUPS = 9
#: A child starts no round after this long, however many are left, so
#: it ends well inside ``CHILD_TIMEOUT_S`` on a slow host.
ROUND_DEADLINE_S = 110.0
CHILD_TIMEOUT_S = 175.0

#: End-to-end metrics: name -> unit (``BENCHMARK.json`` holds the bounds).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p90_ms": "ms",
    "check_p50_ms": "ms",
}


def build_workload(name: str, seed: int, smoke: bool, workdir: Path):
    from repro.eval.workload import FleetConfig

    from workloads import (
        FleetWorkload,
        IngestRecoverWorkload,
        IngestSizes,
        LookupScanWorkload,
        LookupSizes,
    )

    if name == "fleet_mixed":
        return FleetWorkload(FleetConfig(sessions=20 if smoke else 75, seed=seed), variants=12)
    if name == "fleet_typing":
        return FleetWorkload(
            FleetConfig(sessions=6 if smoke else 25, seed=seed, churn=1.0), variants=12
        )
    if name == "lookup_scan":
        return LookupScanWorkload(seed, LookupSizes(
            books=3, paragraphs_per_book=12, pool=300, batches=12, writer_docs=20,
        ) if smoke else LookupSizes(books=12, paragraphs_per_book=50, pool=20000, batches=400))
    if name == "ingest_recover":
        return IngestRecoverWorkload(seed, IngestSizes(
            books=4, paragraphs_per_book=15, compact_every=25, probes=20,
        ) if smoke else IngestSizes(
            books=20, paragraphs_per_book=60, compact_every=500, probes=200,
        ), workdir)
    raise ValueError(f"unknown workload {name!r}")


def min_rounds(workload) -> int:
    return max(MIN_ROUNDS, workload.variants)


def round_count(name: str, workload, seconds: float) -> int:
    return max(min_rounds(workload), round(seconds / ROUND_S[name]))


def run_rounds(workload, rounds: int, trace: bool):
    """Run *rounds* rounds, each on fresh state; with *trace*, every
    other one is traced, and replays the inputs of the untraced round
    before it.

    The host probe times slices right before and after every set-up and
    between the requests of every round, and each set-up and round is
    scaled by its own slices (see ``hostspeed``). Returns ``(scaled
    set-up seconds, [(traced, RoundResult)], tracer)``.
    """
    from hostspeed import HostProbe
    from layers import Tracer
    from workloads import install_class_tracing

    probe = HostProbe()
    tracer = Tracer()
    if trace:
        install_class_tracing(tracer)
    setups, results = [], []

    def set_up(index: int):
        gc.collect()
        probe.sample(SETUP_SLICES)
        started = time.perf_counter()
        state = workload.setup(index)
        elapsed = time.perf_counter() - started
        probe.sample(SETUP_SLICES)
        setups.append(elapsed * probe.scale())
        return state

    began = time.perf_counter()
    while len(results) < rounds:
        if len(results) >= min_rounds(workload) and time.perf_counter() - began > ROUND_DEADLINE_S:
            break
        traced = trace and len(results) % 2 == 1
        state = set_up(len(results) // 2 if trace else len(results))
        try:
            if traced:
                workload.instrument(state, tracer)
                tracer.active = True
            gc.collect()
            result = workload.measure(state, tracer, probe)
        finally:
            tracer.active = False
            workload.teardown(state)
        del state  # the next set-up must not pay for collecting this one
        result.scale = probe.scale()
        results.append((traced, result))
    while not trace and len(setups) < MIN_SETUPS:
        workload.teardown(set_up(len(setups)))
    return setups, results, tracer


def end_to_end_metrics(setups, untraced) -> dict:
    """Timings over the requests of every untraced round together.

    Each time is first scaled by its round's host factor. A fleet round
    replays its own schedule, so a run's op and check times sample
    twelve schedules; a percentile over all of them is steadier than
    the median of per-round percentiles over a few hundred ops each.
    Set-up time is the median set-up, memory the process's peak.
    """
    from layers import percentile

    op_ms = [t * r.scale for r in untraced for t in r.op_ms]
    check_ms = [t * r.scale for r in untraced for t in r.check_ms]
    busy_ms = sum(sum(r.steps_ms) * r.scale for r in untraced)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(op_ms) / busy_ms * 1000.0,
        "op_p90_ms": percentile(op_ms, 90),
        "check_p50_ms": percentile(check_ms, 50),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(rounds, tracer, name: str, seed: int, trace_dir: Path) -> dict:
    from layers import counter_metrics, merge_counts, per_layer_metric_specs, span_metrics, write_trace

    spans = tracer.export()
    counters: dict = {}
    for traced, result in rounds:
        if traced:
            merge_counts(counters, result.counters)
    counters["bench.replay_seconds"] = sum(
        end - start for span, start, end, _p, _r in spans if span == "wal.recover.replay"
    )
    values = {**span_metrics(spans), **counter_metrics(counters)}
    # Each traced round replays the inputs of the untraced round before it.
    pairs = [(rounds[i][1], rounds[i + 1][1]) for i in range(0, len(rounds) - 1, 2)]
    values["trace.overhead"] = (
        sum(sum(t.steps_ms) * t.scale for _u, t in pairs)
        / sum(sum(u.steps_ms) * u.scale for u, _t in pairs)
    )
    trace_dir.mkdir(parents=True, exist_ok=True)
    write_trace(trace_dir / f"{name}.trace.json", name, seed, spans, values)
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit, _better in per_layer_metric_specs()
    }


def _digest(payload) -> str:
    data = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def pinned_digests(name: str, seed: int, smoke: bool):
    if smoke:
        return None
    pins = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    return pins.get(str(seed), {}).get(name)


def child(args) -> int:
    """Run one workload in this process and print its result as JSON."""
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = build_workload(args.workload, args.seed, args.smoke, workdir)
        setups, rounds, tracer = run_rounds(
            workload, round_count(args.workload, workload, args.seconds), bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = [r for _traced, r in rounds]
    by_variant: dict = {}
    for r in results:
        by_variant.setdefault(r.variant, set()).add(r.verdict_digest)
    digests = {
        "inputs": workload.input_digest,
        "verdicts": _digest([sorted(by_variant[v]) for v in sorted(by_variant)]),
    }
    errors = [e for r in results for e in r.errors][:10]
    if any(len(seen) != 1 for seen in by_variant.values()):
        errors.append("verdict digest differs between rounds of the same inputs")
    pinned = pinned_digests(args.workload, args.seed, args.smoke)
    # A traced run replays only half the fleet schedules (each twice), so
    # its verdict digest covers fewer inputs than the pinned one.
    checked = ("inputs",) if args.trace else ("inputs", "verdicts")
    if pinned is not None and any(pinned[k] != digests[k] for k in checked):
        errors.append(f"digests {digests} differ from pinned {pinned}")
    failed = sum(r.failed for r in results)
    if args.trace:
        metrics = per_layer_metrics(rounds, tracer, args.workload, args.seed, Path(args.trace_dir))
    else:
        metrics = end_to_end_metrics(setups, [r for traced, r in rounds if not traced])
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
        "digests": digests,
        "rounds": len(rounds),
        "errors": errors,
    }))
    return 0


def parse_args(argv, run_seconds: float):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=str(OUT))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, benchmark["run_seconds"])
    if args.child:
        return child(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--trace-dir", args.trace_dir,
        ] + (["--smoke"] if args.smoke else [])
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: {name} did not finish in {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        print(f"# {name} rounds={result['rounds']} inputs={result['digests']['inputs']} "
              f"verdicts={result['digests']['verdicts']}")
        for error in result["errors"]:
            print(f"# {name} error: {error}")
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: entry for m, entry in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
