"""Minimal HTTP request/response model over the MPTCP transport.

DASH is plain HTTP GETs; what the rest of the system needs from HTTP is
(1) request/response framing over the simulated connection and (2) the
Content-Length header, which is where MP-DASH learns each chunk's size in
deployments whose manifests omit sizes (§5.1).

Responses are modeled as one :class:`~repro.mptcp.connection.Transfer` of
``Content-Length`` bytes; header overhead is negligible next to video
payloads and is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..mptcp.connection import MptcpConnection, Transfer
from ..obs.events import new_http_request_sent, new_http_response_received


@dataclass(frozen=True)
class HttpRequest:
    """A GET for one resource."""

    path: str
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class HttpResponse:
    """Response metadata plus the transfer that carried the body."""

    request: HttpRequest
    status: int
    headers: Dict[str, str]
    transfer: Optional[Transfer] = None

    @property
    def content_length(self) -> int:
        return int(self.headers.get("Content-Length", "0"))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class HttpClient:
    """Issues GETs for a resource resolver over one MPTCP connection."""

    def __init__(self, connection: MptcpConnection,
                 resolver: Callable[[str], Optional[float]],
                 fetcher: Optional[Callable[..., Transfer]] = None):
        """``resolver`` maps a request path to the body size in bytes, or
        None for a 404.  ``fetcher`` overrides how body transfers are
        issued (default: directly on the connection); a TCP-splitting
        proxy's ``fetch`` slots in here to put an unmodified origin server
        behind the multipath leg."""
        self.connection = connection
        self._resolver = resolver
        self._fetcher = (fetcher if fetcher is not None
                         else connection.start_transfer)
        self.requests_sent = 0

    def get(self, path: str,
            on_complete: Callable[[HttpResponse], None],
            before_transfer: Optional[Callable[[HttpResponse], None]] = None
            ) -> HttpResponse:
        """GET ``path``; ``on_complete`` fires when the body has arrived.

        ``before_transfer`` runs after the response size is known but before
        the body transfer is issued — the window where the MP-DASH adapter
        reads Content-Length and arms the scheduler for exactly that many
        bytes.
        """
        self.requests_sent += 1
        request_id = self.requests_sent
        bus = self.connection.bus
        sim = self.connection.sim
        request = HttpRequest(path)
        bus.publish(new_http_request_sent(sim.now, path, request_id))
        size = self._resolver(path)
        if size is None:
            response = HttpResponse(request, 404, {"Content-Length": "0"})
            bus.publish(new_http_response_received(sim.now, path, 404, 0,
                                                   request_id))
            on_complete(response)
            return response
        body_bytes = int(round(size))
        response = HttpResponse(
            request, 200, {"Content-Length": str(body_bytes)})
        if before_transfer is not None:
            before_transfer(response)

        def _done(_transfer: Transfer) -> None:
            bus.publish(new_http_response_received(
                sim.now, path, 200, body_bytes, request_id))
            on_complete(response)

        response.transfer = self._fetcher(body_bytes, tag=path,
                                          on_complete=_done)
        return response
