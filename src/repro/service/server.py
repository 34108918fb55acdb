"""HTTP front for the campaign service (stdlib ``http.server``).

Same zero-dependency pattern as :class:`~repro.obs.live.
ObservabilityServer`, extended with the submission API:

====== ============================ =====================================
Method Path                         Meaning
====== ============================ =====================================
POST   ``/campaigns``               submit a campaign (JSON body)
GET    ``/campaigns``               list campaigns (summaries)
GET    ``/campaigns/{id}``          one campaign, incl. live status
GET    ``/campaigns/{id}/front``    its Pareto front (final or live)
POST   ``/campaigns/{id}/cancel``   stop at the next generation boundary
GET    ``/status``                  multi-campaign service snapshot
GET    ``/metrics``                 Prometheus text (per-campaign labels)
GET    ``/healthz``                 liveness probe
====== ============================ =====================================

Request handling only reads service state or enqueues (submission and
cancellation are cheap, non-blocking registry operations) — campaign
execution stays on the service's one owner thread.

SIGTERM/SIGINT are wired to a *graceful* drain:
:meth:`CampaignServer.install_signal_handlers` flips an event that
:meth:`serve_until_shutdown` turns into ``service.shutdown()`` — every
running campaign stops at its next generation boundary with its
journal flushed and fsynced, and is marked resumable.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import _json_safe

from repro.service.service import CampaignService

#: refuse submission bodies beyond this (a config is a few hundred bytes)
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    plane: "CampaignServer"  # injected by the server factory

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        return None  # keep server stdout clean

    # ------------------------------------------------------------------
    def _send_json(self, doc: Any, code: int = 200) -> None:
        body = json.dumps(_json_safe(doc), allow_nan=False).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, body: str, content_type: str, code: int = 200
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _error(self, message: str, code: int) -> None:
        self._send_json({"error": message}, code=code)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(f"body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"body is not valid JSON: {exc}") from exc

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        service = self.plane.service
        try:
            if path == "/metrics":
                self._send_text(
                    self.plane.registry.to_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/status":
                self._send_json(service.snapshot())
            elif path == "/campaigns":
                self._send_json(
                    {"campaigns": [c.summary() for c in service.list()]}
                )
            elif path.startswith("/campaigns/"):
                parts = path.split("/")[2:]
                if len(parts) == 1:
                    self._send_json(service.get(parts[0]).detail())
                elif len(parts) == 2 and parts[1] == "front":
                    self._send_json(service.front(parts[0]))
                else:
                    self._error("not found", 404)
            elif path in ("/", "/healthz"):
                self._send_text("ok\n", "text/plain; charset=utf-8")
            else:
                self._error("not found", 404)
        except ServiceError as exc:
            self._error(str(exc), 404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        service = self.plane.service
        try:
            if path == "/campaigns":
                spec = self._read_body()
                try:
                    campaign = service.submit(spec)
                except ServiceError as exc:
                    self._error(str(exc), 400)
                    return
                self._send_json(campaign.summary(), code=201)
            elif path.startswith("/campaigns/") and path.endswith(
                "/cancel"
            ):
                campaign_id = path.split("/")[2]
                try:
                    campaign = service.cancel(campaign_id)
                except ServiceError as exc:
                    self._error(str(exc), 404)
                    return
                self._send_json(campaign.summary())
            else:
                self._error("not found", 404)
        except ServiceError as exc:
            self._error(str(exc), 400)
        except (BrokenPipeError, ConnectionResetError):
            pass


class CampaignServer:
    """Serve a :class:`CampaignService` over HTTP.

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`port`/:attr:`url`.  The HTTP loop runs on a daemon thread;
    the intended main-thread pattern is::

        server = CampaignServer(service, port=8080).start()
        server.install_signal_handlers()   # SIGTERM/SIGINT -> drain
        server.serve_until_shutdown()      # blocks; graceful on signal
    """

    def __init__(
        self,
        service: CampaignService,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.registry = registry if registry is not None else get_registry()
        handler = type("_BoundHandler", (_Handler,), {"plane": self})
        self._httpd = ThreadingHTTPServer((host, int(port)), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "CampaignServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-campaign-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Signal-safe: ask :meth:`serve_until_shutdown` to drain."""
        self._shutdown_requested.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _handler(signum: int, frame: Any) -> None:
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def serve_until_shutdown(
        self, poll: float = 0.2, timeout: float = 60.0
    ) -> None:
        """Block until a shutdown is requested, then drain and close:
        campaigns stop at generation boundaries (journals fsynced,
        states marked resumable), the fleet stops, the socket closes."""
        while not self._shutdown_requested.wait(timeout=poll):
            pass
        self.service.shutdown(timeout=timeout)
        self.close()

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "CampaignServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
