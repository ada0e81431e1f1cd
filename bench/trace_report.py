"""Per-layer self-time table from a ``bench/run.py --trace 1`` file.

    python3 bench/trace_report.py bench/out/fleet_mixed.trace.json

One row per span: calls per op, self milliseconds per op, self share
and inclusive share of all root time, inclusive p50/p99, and the
end-to-end metric the layer should move. A span's inclusive time counts
only its outermost calls, so a layer that re-enters itself is not
counted twice. The self times of every span sum to the root spans'
total, which the last line checks.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from layers import SPANS, percentile, self_times


def report(document: dict) -> str:
    spans = document["spans"]
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    incl_ms = defaultdict(float)
    durations = defaultdict(list)
    root_ms = 0.0
    for (name, start, end, parent, _req), own in zip(spans, selfs):
        calls[name] += 1
        self_ms[name] += own * 1000.0
        durations[name].append((end - start) * 1000.0)
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            incl_ms[name] += (end - start) * 1000.0
        if parent is None:
            root_ms += (end - start) * 1000.0
    ops = calls.get("op", 0) or 1
    share = (lambda ms: ms / root_ms) if root_ms else (lambda ms: 0.0)
    lines = [
        f"{document['workload']} seed {document['seed']}: {len(spans)} spans, "
        f"{calls.get('op', 0)} ops",
        f"{'span':22} {'calls/op':>9} {'self ms/op':>11} {'self share':>10} "
        f"{'incl share':>10} {'p50 ms':>9} {'p99 ms':>9}  should move",
    ]
    for name in sorted(calls, key=lambda n: -self_ms[n]):
        moves = " on ".join(SPANS[name][1:]) if name in SPANS else ""
        lines.append(
            f"{name:22} {calls[name] / ops:9.3f} {self_ms[name] / ops:11.4f} "
            f"{share(self_ms[name]):10.4f} {share(incl_ms[name]):10.4f} "
            f"{percentile(durations[name], 50):9.4f} "
            f"{percentile(durations[name], 99):9.4f}  {moves}"
        )
    lines.append(
        f"self times sum to {sum(self_ms.values()):.3f} ms; roots total {root_ms:.3f} ms"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            print(report(json.load(handle)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
