"""The simulated network: routes requests and page loads to services.

:class:`FaultyNetwork` wraps a healthy :class:`Network` with seeded
fault injection (latency, drops, 5xx) so integration tests and the
concurrent load driver can exercise the degradation paths of §6.2 —
a dropped or slow upload must surface as a client-visible failure, not
a silent hang.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.browser.dom import Document
from repro.browser.http import HttpRequest, HttpResponse
from repro.errors import NetworkError
from repro.obs.registry import MetricsRegistry, MetricsScope
from repro.util.faults import FaultInjector


class Network:
    """Origin-keyed service registry with a request log.

    The log records every request that actually *reached* a backend —
    requests vetoed by an interceptor raise before delivery and never
    appear, which is what the integration tests assert on.
    """

    def __init__(self) -> None:
        self._services: Dict[str, "CloudService"] = {}
        self.request_log: List[Tuple[HttpRequest, HttpResponse]] = []
        # Network-level interceptors (e.g. a DLP firewall, §2.2): they
        # run on every outgoing request *after* it leaves the browser
        # and may veto it by raising RequestBlocked.
        self._interceptors: List = []

    def add_interceptor(self, interceptor) -> None:
        """Install a callable invoked with every outgoing request.

        This models middleboxes that sit between the client and the
        cloud (application-level firewalls); unlike the in-browser
        plug-in they only ever see the wire format.
        """
        self._interceptors.append(interceptor)

    def register(self, service) -> None:
        if service.origin in self._services:
            raise NetworkError(f"origin already registered: {service.origin!r}")
        self._services[service.origin] = service
        service.network = self

    def service_at(self, origin: str):
        service = self._services.get(origin)
        if service is None:
            raise NetworkError(f"no service at origin {origin!r}")
        return service

    def services(self) -> List[str]:
        return sorted(self._services)

    def deliver(self, request: HttpRequest) -> HttpResponse:
        """Deliver a request to the origin's service backend."""
        for interceptor in self._interceptors:
            interceptor(request)
        service = self._services.get(request.origin)
        if service is None:
            response = HttpResponse(status=502, body=f"unknown origin {request.origin}")
        else:
            response = service.handle_request(request)
        self.request_log.append((request, response))
        return response

    def render_page(self, url: str) -> Tuple[Document, Optional[object]]:
        """Render the page at *url*; page loads are not logged as uploads."""
        request = HttpRequest(method="GET", url=url)
        service = self._services.get(request.origin)
        if service is None:
            raise NetworkError(f"no service at origin {request.origin!r}")
        return service.render(url), service

    def requests_to(self, origin: str) -> List[HttpRequest]:
        return [req for req, _resp in self.request_log if req.origin == origin]


class FaultyNetwork:
    """A :class:`Network` proxy that injects deterministic faults.

    Each delivery consults the injector *before* the wrapped network:

    * ``drop`` — the request is lost; the caller sees a
      :class:`NetworkError` and the backend never runs (nothing is
      appended to the wrapped request log).
    * ``error`` — the caller gets an HTTP 5xx response synthesised at
      the "edge"; the backend never runs.
    * ``latency`` — the injected delay is recorded in
      :attr:`latencies` (and optionally slept via *sleep*), then the
      request is delivered normally.

    Everything else (service registry, page rendering, request log)
    delegates to the wrapped network, so a ``FaultyNetwork`` can stand
    in anywhere a ``Network`` is expected.
    """

    def __init__(
        self,
        network: Network,
        faults: FaultInjector,
        *,
        sleep=None,
        scope: Optional[MetricsScope] = None,
    ) -> None:
        self._network = network
        self._faults = faults
        self._sleep = sleep
        #: Injected latencies in delivery order, for exact assertions.
        self.latencies: List[float] = []
        # Delivery counters in a registry scope (private ``network.``
        # prefix unless the load driver passes a shared one); the
        # injector counts its decisions in its own scope.
        if scope is None:
            scope = MetricsRegistry().scope("network.")
        self.metrics = scope
        self._counters = {
            name: scope.counter(name)
            for name in ("delivered", "dropped", "errored", "delayed")
        }

    @property
    def wrapped(self) -> Network:
        return self._network

    def deliver(self, request: HttpRequest) -> HttpResponse:
        fault = self._faults.next_fault()
        if fault.kind == "drop":
            self._counters["dropped"].inc()
            raise NetworkError(f"request to {request.url!r} dropped (injected fault)")
        if fault.kind == "error":
            self._counters["errored"].inc()
            return HttpResponse(
                status=fault.status, body=f"injected fault: HTTP {fault.status}"
            )
        if fault.kind == "latency":
            self._counters["delayed"].inc()
            self.latencies.append(fault.latency)
            if self._sleep is not None:
                self._sleep(fault.latency)
        self._counters["delivered"].inc()
        return self._network.deliver(request)

    def __getattr__(self, name: str):
        # register / service_at / render_page / request_log / ...
        return getattr(self._network, name)
