"""Multi-client load driver for the shared lookup service (paper §5, §6.2).

Eight client threads hammer one shared :class:`LookupServer` — the
deployment shape of Figure 1, where every browser plug-in instance
queries the same per-enterprise hash database — while a seeded
:class:`FaultInjector` degrades a fraction of requests (latency, drops,
5xx). The paper's §6.2 requirement is that a slow or dead lookup never
wedges the editor: every request must resolve, either served within the
timeout budget or explicitly degraded after bounded retries.

Reported: the client-observed latency CDF next to the client counters
and the shared registry's snapshot delta (server, injected faults,
engines, lock, cache), so contention and fault handling are visible
alongside the timings.
"""

import random
import threading
import time

from repro.eval.reporting import format_cdf_summary, format_counters, format_snapshot
from repro.fingerprint.config import PAPER_CONFIG
from repro.obs import diff_snapshots
from repro.plugin.lookup import PolicyLookup
from repro.plugin.server import FailureMode, LookupClient, LookupServer
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.util.faults import FaultInjector
from repro.util.stats import percentile

from conftest import SEED, scaled

LIBRARY = "https://library.example.com"
DOCS = "https://docs.example.com"
N_CLIENTS = 8


def _build_server(ebooks) -> LookupServer:
    policies = PolicyStore()
    policies.register_service(
        LIBRARY, privilege=Label.of("lib"), confidentiality=Label.of("lib")
    )
    policies.register_service(DOCS)
    model = TextDisclosureModel(policies, PAPER_CONFIG)
    for book in ebooks:
        doc_id = f"{LIBRARY}|{book.book_id}"
        model.observe(
            LIBRARY,
            doc_id,
            [(f"{doc_id}#p{i}", text) for i, text in enumerate(book.paragraphs)],
        )
    faults = FaultInjector(
        seed=SEED,
        drop_rate=0.05,
        error_rate=0.05,
        latency_rate=0.15,
        latency_range=(0.0, 0.04),
        scope=model.registry.scope("faults."),
    )
    return LookupServer(PolicyLookup(model), faults=faults)


def _drive(server, ebooks, requests_per_client):
    """Run N_CLIENTS concurrent clients; returns (latencies_ms, stats)."""
    latencies = [[] for _ in range(N_CLIENTS)]
    outcomes = []
    clients = [None] * N_CLIENTS
    errors = []
    barrier = threading.Barrier(N_CLIENTS)

    def run_client(cid):
        rng = random.Random(f"{SEED}:client:{cid}")
        # Half the fleet fails open, half fails closed, like a mixed
        # enterprise rollout; both must resolve every request.
        client = LookupClient(
            server,
            timeout=0.03,
            max_retries=2,
            backoff=0.005,
            failure_mode=(
                FailureMode.FAIL_CLOSED if cid % 2 else FailureMode.FAIL_OPEN
            ),
        )
        clients[cid] = client
        try:
            barrier.wait(timeout=60)
            for i in range(requests_per_client):
                book = ebooks[rng.randrange(len(ebooks))]
                paragraph = book.paragraphs[rng.randrange(len(book.paragraphs))]
                if rng.random() < 0.5:
                    text = paragraph  # overlapping upload: disclosure hit
                else:
                    words = paragraph.split()
                    rng.shuffle(words)  # same vocabulary, fresh fingerprint
                    text = " ".join(words)
                doc_id = f"{DOCS}|c{cid}-d{i}"
                start = time.perf_counter()
                outcome = client.lookup(DOCS, doc_id, [(f"{doc_id}#p0", text)])
                latencies[cid].append((time.perf_counter() - start) * 1000.0)
                outcomes.append(outcome)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((cid, exc))
            barrier.abort()

    threads = [
        threading.Thread(target=run_client, args=(cid,)) for cid in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads), "client wedged"

    aggregated = {}
    for client in clients:
        for key, value in client.metrics.snapshot().items():
            aggregated[key] = aggregated.get(key, 0) + value
    return latencies, outcomes, aggregated


def test_concurrent_lookup_service(benchmark, report, ebook_corpus):
    requests_per_client = scaled(30, minimum=10)
    server = _build_server(ebook_corpus)
    snapshot_before = server.registry.snapshot()

    latencies, outcomes, client_stats = benchmark.pedantic(
        _drive,
        args=(server, ebook_corpus, requests_per_client),
        iterations=1,
        rounds=1,
    )

    all_ms = [ms for per_client in latencies for ms in per_client]
    total = N_CLIENTS * requests_per_client
    delta = diff_snapshots(snapshot_before, server.registry.snapshot())
    lines = [
        f"Concurrent lookup service: {N_CLIENTS} clients x "
        f"{requests_per_client} requests against one shared engine",
        format_cdf_summary(
            "client-observed latency", all_ms, thresholds_ms=(1.0, 5.0, 30.0, 200.0)
        ),
        f"  median={percentile(all_ms, 50):.3f} ms  "
        f"p95={percentile(all_ms, 95):.3f} ms  p99={percentile(all_ms, 99):.3f} ms",
        format_counters(client_stats, title="Aggregated client counters:"),
        format_snapshot(
            delta,
            title="Shared-registry snapshot delta over the run "
            "(server + faults + engines + lock + decision cache):",
        ),
    ]
    report("\n".join(lines))

    # §6.2: nothing hangs — every request resolved, served or degraded.
    assert len(all_ms) == total
    assert client_stats["requests"] == total
    assert all(outcome.decision is not None for outcome in outcomes)
    assert (
        client_stats["degraded"]
        == client_stats["fail_open_allowed"] + client_stats["fail_closed_blocked"]
    )
    # Requests either reached the engine or were explicitly faulted.
    assert delta["server.served"] + client_stats["degraded"] >= total
    # Pure query load: clients never took the write lock.
    assert delta["lock.write_acquisitions"] == 0
    # The retry budget absorbed transient faults: with 10% hard-fault
    # rate and 2 retries, the vast majority of requests still resolve
    # to a real decision.
    assert client_stats["degraded"] <= total * 0.2
