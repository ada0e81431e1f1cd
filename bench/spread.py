"""Run-to-run spread of every end-to-end metric.

    python3 bench/spread.py [--runs 5] [--sets 1] [--workload W ...]
                            [--seed 2016] [--vary-seeds] [--seconds S]

Runs ``bench/run.py`` ``--runs`` times per workload, ``--sets`` times
over, and prints per metric and set: median, min, max, the quartile
spread ``(q3 - q1) / median`` (quartiles as ``statistics.quantiles(n=4)``
gives them), the range spread ``(max - min) / median``, the bound
``BENCHMARK.json`` fixes and the bound the spread suggests,
``max(3 x quartile spread, 5%)``, capped at 25%. A metric whose quartile
spread reaches a third of its bound is marked ``WIDE``. With two sets or
more, the last column is how much worse each set's median is than the
first set's, marked ``MOVED`` beyond the bound.

By default every run uses ``--seed``, so the spread is the noise of the
measurement alone. With ``--vary-seeds`` run ``i`` of a set uses seed
``--seed + i``, so the spread also holds the difference between inputs;
a bound must cover both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def suggested_bound(iqr: float) -> float:
    return min(0.25, max(0.05, 3.0 * iqr))


def collect(name: str, args) -> list:
    runs = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(args.seconds)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            raise SystemExit(f"{name} seed {seed}: run failed")
        runs.append({m: e["value"] for m, e in result["metrics"].items()})
        print(f"# {name} seed {seed} done", file=sys.stderr)
    return runs


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--vary-seeds", action="store_true")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    specs = {m["name"]: m for m in benchmark["end_to_end"]}

    sets = [{name: collect(name, args) for name in workloads} for _ in range(args.sets)]

    print(f"{'workload':16} {'metric':14} {'set':>3} {'median':>12} {'min':>12} {'max':>12} "
          f"{'iqr':>7} {'range':>7} {'bound':>6} {'suggest':>7} {'worse':>7}")
    for name in workloads:
        for metric in sets[0][name][0]:
            bound = specs[metric]["bound"]
            first = None
            for k, runs in enumerate(sets):
                series = [v[metric] for v in runs[name]]
                median = statistics.median(series)
                q1, _q2, q3 = statistics.quantiles(series, n=4)
                iqr = (q3 - q1) / median
                rng = (max(series) - min(series)) / median
                flag = "  WIDE" if metric != "setup_s" and iqr >= bound / 3 else ""
                if first is None:
                    first, worse = median, ""
                else:
                    change = median / first - 1.0
                    change = change if specs[metric]["better"] == "lower" else -change
                    worse = f"{change:+7.3f}" + ("  MOVED" if change > bound else "")
                print(f"{name:16} {metric:14} {k:3d} {median:12.6g} {min(series):12.6g} "
                      f"{max(series):12.6g} {iqr:7.3f} {rng:7.3f} {bound:6.3f} "
                      f"{suggested_bound(iqr):7.3f} {worse:>7}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
