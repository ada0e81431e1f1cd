"""Checks on the benchmark itself, at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0.2", *args],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    return done


def metric_lines(stdout: str):
    """``{(workload, metric): unit}`` from the human-readable lines."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        if line.startswith("#"):
            continue
        workload, metric, _value, unit = line.split()
        out[(workload, metric)] = unit
    return out


def digests(stdout: str):
    found = re.findall(r"^# (\S+) rounds=\d+ inputs=(\w+) verdicts=(\w+)$", stdout, re.M)
    return {workload: (inputs, verdicts) for workload, inputs, verdicts in found}


@pytest.fixture(scope="module")
def untraced():
    return bench("--seed", "2016").stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    return bench("--seed", "2016", "--trace", "1", "--trace-dir", str(trace_dir)).stdout, trace_dir


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == (
        layers.per_layer_metric_specs()
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_every_declared_metric_prints_with_its_unit(untraced, traced):
    for stdout, declared in ((untraced, "end_to_end"), (traced[0], "per_layer")):
        printed = metric_lines(stdout)
        result = json.loads(stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        for workload in run.WORKLOADS:
            for metric in BENCHMARK[declared]:
                assert printed[(workload, metric["name"])] == metric["unit"]
                entry = result["metrics"][f"{workload}.{metric['name']}"]
                assert entry["unit"] == metric["unit"]
        assert all(NAME.fullmatch(metric) for _w, metric in printed)
        assert all(UNIT.fullmatch(unit) for unit in printed.values())


def test_end_to_end_metrics_are_never_zero(untraced):
    result = json.loads(untraced.splitlines()[-1])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_digests_repeat_across_runs_and_differ_across_seeds(untraced):
    first = digests(untraced)
    assert set(first) == set(run.WORKLOADS)
    assert digests(bench("--seed", "2016").stdout) == first
    other = digests(bench("--seed", "7").stdout)
    for workload in run.WORKLOADS:
        assert other[workload][0] != first[workload][0]
        assert other[workload][1] != first[workload][1]


def test_traced_self_times_sum_to_root_spans(traced):
    _stdout, trace_dir = traced
    for workload in run.WORKLOADS:
        document = json.loads((trace_dir / f"{workload}.trace.json").read_text(encoding="utf-8"))
        spans = document["spans"]
        assert spans, workload
        selfs = layers.self_times(spans)
        assert min(selfs) > -1e-6, workload
        tree_self = {}
        for i, span in enumerate(spans):
            root = i
            while spans[root][3] is not None:
                root = spans[root][3]
            tree_self[root] = tree_self.get(root, 0.0) + selfs[i]
            assert span[4] == spans[root][4], "a span's request id is its root's"
        for root, total in tree_self.items():
            duration = spans[root][2] - spans[root][1]
            assert total == pytest.approx(duration, rel=0.01, abs=1e-9)


def test_at_most_two_load_threads(monkeypatch, tmp_path):
    """The main thread drives load, so at most one more may run beside it."""
    started = []
    peak = [1]
    real_start = threading.Thread.start

    def counting_start(thread):
        if not thread.name.startswith("shard-router"):
            # The main thread, the ones still running, and this one.
            peak[0] = max(peak[0], 2 + sum(t.is_alive() for t in started))
            started.append(thread)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for name in run.WORKLOADS:
        workload = run.build_workload(name, 2016, True, tmp_path / name)
        run.run_rounds(workload, run.min_rounds(workload), trace=False)
    assert started, "lookup_scan runs a writer thread"
    assert peak[0] <= 2
