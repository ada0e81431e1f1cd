"""Figure 13 — response time vs size of the hashes database.

Paper shape: the 95th-percentile disclosure-decision latency grows
sub-linearly as the fingerprint database grows from 1M to 10M hashes,
staying below ~200 ms, thanks to index data structures. We sweep the
database across loaded e-books and assert sub-linear growth.
"""

from repro.eval import figure13_scalability
from repro.eval.reporting import format_series, format_snapshot
from repro.fingerprint.config import PAPER_CONFIG


def test_figure13_scalability(benchmark, report, large_ebook_corpus):
    registry_snapshot = {}
    series = benchmark.pedantic(
        figure13_scalability,
        args=(large_ebook_corpus,),
        kwargs=dict(
            config=PAPER_CONFIG,
            steps=5,
            samples_per_step=15,
            snapshot_out=registry_snapshot,
        ),
        iterations=1,
        rounds=1,
    )
    from repro.eval.charts import series_plot

    points = [(float(n), ms) for n, ms in series]
    report(
        format_series(
            {"p95 response time": points},
            title="Figure 13: Response time vs number of distinct hashes",
            x_label="distinct hashes",
            y_label="p95 ms",
        )
        + "\n"
        + series_plot(
            {"p95 ms": points},
            width=50,
            height=8,
            title="(shape: flat/sub-linear as the database grows)",
            y_label="ms",
        )
        + "\n"
        + format_snapshot(
            registry_snapshot,
            title="Registry snapshot after run (counters, then per-stage "
            "latency histograms):",
        )
    )
    # The engine threads its metrics scope into the fingerprinter, so
    # the registry breakdown includes the per-ingest-stage histograms.
    assert any(
        name.endswith("fingerprint.normalize") for name in registry_snapshot
    ), sorted(registry_snapshot)
    hashes = [n for n, _ in series]
    times = [ms for _, ms in series]
    assert hashes == sorted(hashes)
    db_growth = hashes[-1] / hashes[0]
    time_growth = times[-1] / max(times[0], 0.01)
    # Sub-linear: latency grows far slower than the database.
    assert time_growth < db_growth, (time_growth, db_growth)
