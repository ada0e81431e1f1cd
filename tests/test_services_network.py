"""Tests for the simulated network and its fault-injecting wrapper."""

import pytest

from repro.browser.http import HttpRequest
from repro.errors import NetworkError
from repro.obs import MetricsRegistry
from repro.services import FaultyNetwork, Network, WikiService
from repro.util.faults import Fault, FaultInjector


class TestNetwork:
    def test_register_and_route(self):
        network = Network()
        wiki = WikiService()
        network.register(wiki)
        assert network.service_at(wiki.origin) is wiki

    def test_duplicate_origin_rejected(self):
        network = Network()
        network.register(WikiService())
        with pytest.raises(NetworkError):
            network.register(WikiService())

    def test_unknown_origin_502(self):
        network = Network()
        response = network.deliver(HttpRequest("GET", "https://ghost.example/x"))
        assert response.status == 502

    def test_unknown_service_lookup_raises(self):
        with pytest.raises(NetworkError):
            Network().service_at("https://nope.example")

    def test_request_log_records_delivered(self):
        network = Network()
        wiki = WikiService()
        network.register(wiki)
        network.deliver(
            HttpRequest(
                "POST",
                wiki.url("/wiki/save"),
                form_data={"page": "P", "body": "content"},
            )
        )
        assert len(network.request_log) == 1
        assert network.requests_to(wiki.origin)[0].method == "POST"

    def test_render_page_not_logged(self):
        network = Network()
        wiki = WikiService()
        network.register(wiki)
        network.render_page(wiki.page_url("Home"))
        assert network.request_log == []

    def test_services_listing(self):
        network = Network()
        wiki = WikiService()
        network.register(wiki)
        assert network.services() == [wiki.origin]

    def test_network_backref_set(self):
        network = Network()
        wiki = WikiService()
        network.register(wiki)
        assert wiki.network is network


def _save_request(wiki):
    return HttpRequest(
        "POST", wiki.url("/wiki/save"), form_data={"page": "P", "body": "content"}
    )


def _faulty(*faults):
    """A faulty network over a wiki; it and its injector share one
    registry, as a load driver's would."""
    network = Network()
    wiki = WikiService()
    network.register(wiki)
    registry = MetricsRegistry()
    injector = FaultInjector(
        schedule=list(faults), scope=registry.scope("faults.")
    )
    return FaultyNetwork(network, injector, scope=registry.scope("network.")), wiki


class TestFaultyNetwork:
    def test_healthy_delivery_passes_through(self):
        faulty, wiki = _faulty()
        response = faulty.deliver(_save_request(wiki))
        assert response.status == 200
        assert len(faulty.wrapped.request_log) == 1
        assert faulty.metrics.snapshot()["delivered"] == 1

    def test_drop_raises_and_never_reaches_backend(self):
        faulty, wiki = _faulty(Fault.drop())
        with pytest.raises(NetworkError, match="dropped"):
            faulty.deliver(_save_request(wiki))
        # The backend never ran: nothing in the wrapped request log.
        assert faulty.wrapped.request_log == []
        assert faulty.metrics.snapshot()["dropped"] == 1
        assert faulty.metrics.snapshot()["delivered"] == 0

    def test_error_synthesised_at_edge(self):
        faulty, wiki = _faulty(Fault.error(503))
        response = faulty.deliver(_save_request(wiki))
        assert response.status == 503
        assert "injected fault" in response.body
        assert faulty.wrapped.request_log == []
        assert faulty.metrics.snapshot()["errored"] == 1

    def test_latency_recorded_then_delivered(self):
        slept = []
        network = Network()
        wiki = WikiService()
        network.register(wiki)
        faulty = FaultyNetwork(
            network,
            FaultInjector(schedule=[Fault.slow(0.25)]),
            sleep=slept.append,
        )
        response = faulty.deliver(_save_request(wiki))
        assert response.status == 200
        assert faulty.latencies == [0.25]
        assert slept == [0.25]
        assert faulty.metrics.snapshot()["delayed"] == 1
        assert faulty.metrics.snapshot()["delivered"] == 1

    def test_schedule_exhausts_to_healthy(self):
        faulty, wiki = _faulty(Fault.drop(), Fault.error(500))
        with pytest.raises(NetworkError):
            faulty.deliver(_save_request(wiki))
        assert faulty.deliver(_save_request(wiki)).status == 500
        # Past the schedule, everything is healthy again.
        assert faulty.deliver(_save_request(wiki)).status == 200
        snapshot = faulty.metrics.registry.snapshot()
        assert snapshot["faults.injected_drop"] == 1
        assert snapshot["faults.injected_error"] == 1
        assert snapshot["faults.injected_none"] == 1
        assert snapshot["network.dropped"] == 1
        assert snapshot["network.errored"] == 1
        assert snapshot["network.delivered"] == 1

    def test_delegates_like_a_network(self):
        faulty, wiki = _faulty()
        assert faulty.service_at(wiki.origin) is wiki
        assert faulty.services() == [wiki.origin]
        document, service = faulty.render_page(wiki.page_url("Home"))
        assert service is wiki
        assert faulty.request_log == []

    def test_seeded_rates_are_reproducible(self):
        def run(seed):
            network = Network()
            wiki = WikiService()
            network.register(wiki)
            faulty = FaultyNetwork(
                network, FaultInjector(seed=seed, drop_rate=0.3, error_rate=0.2)
            )
            outcomes = []
            for _ in range(40):
                try:
                    outcomes.append(faulty.deliver(_save_request(wiki)).status)
                except NetworkError:
                    outcomes.append("drop")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)
