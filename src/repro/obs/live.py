"""Live campaign observability: the /metrics + /status HTTP plane.

`repro.obs` answered questions *after* a campaign — trace files and
registry snapshots are read once the run is over.  A 12-hour,
100-node campaign (§2.2.5) needs answers *while it runs*: is the
front still moving, are workers alive, what is the evaluation rate?
This module is that plane, in three zero-dependency pieces:

* :class:`CampaignStatus` — a thread-safe snapshot the drivers publish
  into (per generation / steady-state step) and anything may read; a
  process-wide instance is installed like the tracer
  (:func:`set_status` / :func:`use_status`), with a no-op
  :class:`NullCampaignStatus` as the default so publication sites cost
  one attribute check when nobody is watching.
* :class:`ConvergenceTelemetry` — per-generation convergence as
  first-class telemetry: the nondominated front of the selected
  population, its exact 2-D hypervolume against a campaign-fixed
  reference point (:func:`repro.mo.metrics.hypervolume_2d`), front
  size, and spread, published both as registry gauges
  (``campaign_hypervolume`` & co. for ``/metrics`` scrapes) and into
  the status snapshot (the ``/status`` hypervolume series).  Every
  value is sanitized to finite floats — a degenerate front (single
  point, duplicates, all-MAXINT) must never poison the strict-JSON
  endpoint with NaN/Inf.
* :class:`ObservabilityServer` — a stdlib ``http.server`` endpoint
  (``repro-hpo run --serve-metrics PORT``) serving ``/metrics`` (the
  :class:`~repro.obs.metrics.MetricsRegistry` Prometheus text export),
  ``/status`` (the strict-JSON campaign snapshot, including a live
  straggler summary computed from the tracer's in-memory records via
  :func:`repro.obs.report.straggler_summary`), and ``/healthz``.

The ``/status`` payload is deliberately the shape a future multi-tenant
campaign service would stream per campaign: everything in it is plain
JSON derived from state the drivers already maintain.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import _json_safe

#: campaign-fixed hypervolume reference point (energy, force) — the
#: same corner :func:`repro.analysis.convergence.hypervolume_progress`
#: measures against, so live and post-hoc curves are comparable.
#: Three-objective campaigns (runtime promoted to an objective) extend
#: it via :func:`repro.mo.metrics.default_reference`.
DEFAULT_REFERENCE_POINT: tuple[float, float] = (0.02, 0.2)


def _finite(value: Any, default: float = 0.0) -> float:
    """Coerce to a finite float (NaN/Inf → ``default``) — the strict
    JSON endpoint and the gauges never see a non-finite number."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        return default
    return out if math.isfinite(out) else default


class NullCampaignStatus:
    """The default: nobody is watching, every publication is a no-op."""

    enabled = False
    campaign_id: Optional[str] = None

    def update(self, **fields: Any) -> None:
        return None

    def begin_run(self, run_index: int, **fields: Any) -> None:
        return None

    def publish_generation(self, **fields: Any) -> None:
        return None

    def publish_engine(self, stats: Any, **extra: Any) -> None:
        return None

    def worker_update(self, name: str, **fields: Any) -> None:
        return None

    def fleet_update(self, **fields: Any) -> None:
        return None

    def mark_done(self) -> None:
        return None

    def snapshot(self) -> dict[str, Any]:
        return {}


class CampaignStatus:
    """Thread-safe live snapshot of one running campaign.

    Drivers publish coarse-grained state transitions (a generation
    committed, a steady-state annealing window closed, an engine stats
    delta, a pool worker changed state); :meth:`snapshot` renders the
    current picture as a plain strict-JSON-safe dict — the ``/status``
    payload.
    """

    enabled = True

    def __init__(
        self,
        campaign_id: Optional[str] = None,
        mode: Optional[str] = None,
        **meta: Any,
    ) -> None:
        self._lock = threading.Lock()
        self._started_mono = time.monotonic()
        self._data: dict[str, Any] = {
            "campaign": campaign_id,
            "mode": mode,
            "state": "running",
            "started_ts": time.time(),
            "run": None,
            "generation": None,
            **meta,
        }
        self._engine: dict[str, Any] = {}
        self._workers: dict[str, dict[str, Any]] = {}
        self._fleet: dict[str, Any] = {}
        self._hypervolume: list[dict[str, Any]] = []
        self._front: list[list[float]] = []

    @property
    def campaign_id(self) -> Optional[str]:
        """The id this campaign publishes under (labels its gauges)."""
        with self._lock:
            value = self._data.get("campaign")
        return None if value is None else str(value)

    # ------------------------------------------------------------------
    # publication (driver side)
    # ------------------------------------------------------------------
    def update(self, **fields: Any) -> None:
        with self._lock:
            self._data.update(fields)

    def begin_run(self, run_index: int, **fields: Any) -> None:
        with self._lock:
            self._data["run"] = int(run_index)
            self._data["generation"] = None
            self._data.update(fields)

    def publish_generation(
        self,
        generation: int,
        hypervolume: float,
        front: Optional[Any] = None,
        front_size: int = 0,
        spread: Optional[float] = None,
        **fields: Any,
    ) -> None:
        """One generation (or steady-state annealing window) committed."""
        points: list[list[float]] = []
        if front is not None:
            points = [
                [_finite(v) for v in row] for row in np.atleast_2d(front)
            ][:256]
        with self._lock:
            self._data["generation"] = int(generation)
            self._data.update(fields)
            self._front = points
            self._hypervolume.append(
                {
                    "run": self._data.get("run"),
                    "generation": int(generation),
                    "hypervolume": _finite(hypervolume),
                    "front_size": int(front_size),
                    "spread": (
                        None if spread is None else _finite(spread)
                    ),
                }
            )

    def publish_engine(self, stats: Any, **extra: Any) -> None:
        """Latest :class:`~repro.engine.core.EngineStats` view (an
        object with ``as_dict`` or a plain mapping), plus engine-side
        extras (batch counts, per-campaign throughput)."""
        as_dict = getattr(stats, "as_dict", None)
        data = dict(as_dict() if as_dict is not None else stats)
        data.update(extra)
        with self._lock:
            self._engine = data

    def worker_update(self, name: str, **fields: Any) -> None:
        with self._lock:
            entry = self._workers.setdefault(str(name), {})
            entry.update(fields)
            entry["updated_ts"] = time.time()

    def fleet_update(self, **fields: Any) -> None:
        """Latest :meth:`~repro.engine.pool.ProcessPoolBackend.
        fleet_snapshot` view — size, bounds, requeues, speculation."""
        with self._lock:
            self._fleet.update(fields)
            self._fleet["updated_ts"] = time.time()

    def mark_done(self) -> None:
        with self._lock:
            self._data["state"] = "done"
            self._data["finished_ts"] = time.time()

    # ------------------------------------------------------------------
    # consumption (server side)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Point-in-time strict-JSON-safe view of the campaign."""
        with self._lock:
            data = dict(self._data)
            engine = dict(self._engine)
            workers = {k: dict(v) for k, v in self._workers.items()}
            fleet = dict(self._fleet)
            hypervolume = list(self._hypervolume)
            front = [list(p) for p in self._front]
        elapsed = max(time.monotonic() - self._started_mono, 1e-9)
        completed = _finite(engine.get("completed", 0.0))
        data["elapsed_s"] = round(elapsed, 3)
        data["evals_per_sec"] = round(completed / elapsed, 3)
        if completed > 0:
            data["cache_hit_rate"] = round(
                _finite(engine.get("cache_hits", 0.0)) / completed, 4
            )
            data["dedup_rate"] = round(
                _finite(engine.get("dedup_hits", 0.0)) / completed, 4
            )
        else:
            data["cache_hit_rate"] = 0.0
            data["dedup_rate"] = 0.0
        data["engine"] = engine
        data["workers"] = workers
        if fleet:
            data["fleet"] = fleet
        data["hypervolume_series"] = hypervolume
        data["front"] = front
        return _json_safe(data)


#: process-wide default: nobody is watching
NULL_STATUS = NullCampaignStatus()

_global_status: NullCampaignStatus | CampaignStatus = NULL_STATUS
_global_lock = threading.Lock()


def get_status() -> NullCampaignStatus | CampaignStatus:
    """The process-wide campaign status (:data:`NULL_STATUS` unless
    installed).  Campaigns sharing a process (the service) are handed
    their own instead: each campaign's engine and telemetry bind one
    when its loop is built."""
    return _global_status


def set_status(
    status: Optional[NullCampaignStatus | CampaignStatus],
) -> NullCampaignStatus | CampaignStatus:
    """Install ``status`` globally (``None`` restores the null one);
    returns the previous status."""
    global _global_status
    with _global_lock:
        previous = _global_status
        _global_status = status if status is not None else NULL_STATUS
        return previous


@contextmanager
def use_status(
    status: NullCampaignStatus | CampaignStatus,
) -> Iterator[NullCampaignStatus | CampaignStatus]:
    """Scoped :func:`set_status` — restores the previous on exit."""
    previous = set_status(status)
    try:
        yield status
    finally:
        set_status(previous)


class ConvergenceTelemetry:
    """Per-generation convergence telemetry for any driver.

    One instance per run, with a campaign-fixed ``reference`` point so
    the hypervolume series is comparable across generations and runs.
    The reference may have any number of objectives; when the observed
    fronts have a different dimensionality (e.g. a three-objective
    campaign constructed with the historical 2-D default), the
    campaign-fixed :func:`repro.mo.metrics.default_reference` corner
    for that dimensionality is used instead — so every driver reports
    the N-D hypervolume without per-driver wiring.
    :meth:`observe_generation` computes the nondominated front of the
    viable individuals and publishes:

    * gauges — ``campaign_hypervolume``, ``campaign_front_size``,
      ``campaign_front_spread``, ``campaign_generation``;
    * the status snapshot — the front points and the hypervolume
      series entry.

    All outputs are finite by construction (degenerate fronts yield
    hypervolume 0.0 and spread ``None``), so the tracer's strict-JSON
    ``_json_safe`` never has to null a convergence value.
    """

    def __init__(
        self,
        reference: tuple[float, ...] = DEFAULT_REFERENCE_POINT,
        registry: Optional[MetricsRegistry] = None,
        status: Any = None,
        campaign_id: Optional[str] = None,
    ) -> None:
        self.reference = tuple(float(r) for r in reference)
        registry = registry if registry is not None else get_registry()
        self.status = status if status is not None else get_status()
        if campaign_id is None:
            campaign_id = getattr(self.status, "campaign_id", None)
        # a known campaign labels its series so concurrent campaigns in
        # one process (the service) each get their own gauge instead of
        # clobbering a shared one; anonymous runs keep the bare series
        labels = (
            {"campaign_id": str(campaign_id)}
            if campaign_id is not None
            else None
        )
        self._g_hv = registry.gauge("campaign_hypervolume", labels=labels)
        self._g_front = registry.gauge("campaign_front_size", labels=labels)
        self._g_spread = registry.gauge(
            "campaign_front_spread", labels=labels
        )
        self._g_generation = registry.gauge(
            "campaign_generation", labels=labels
        )

    def observe_generation(
        self,
        generation: int,
        individuals: Any,
        **fields: Any,
    ) -> dict[str, Any]:
        """Publish one generation's convergence state; returns it."""
        from repro.mo.dominance import non_dominated_mask
        from repro.mo.metrics import (
            default_reference,
            hypervolume,
            spread as spread_nd,
        )
        from repro.mo.pareto import viable_fitness_rows

        F = viable_fitness_rows(individuals)
        hv = 0.0
        spread: Optional[float] = None
        front = np.empty((0, 2))
        if len(F):
            front = F[non_dominated_mask(F)]
            reference = self.reference
            if len(reference) != F.shape[1]:
                reference = default_reference(F.shape[1])
            hv = _finite(hypervolume(front, reference))
            raw_spread = spread_nd(front)
            if math.isfinite(raw_spread):
                spread = float(raw_spread)
        self._g_hv.set(hv)
        self._g_front.set(len(front))
        self._g_spread.set(spread if spread is not None else 0.0)
        self._g_generation.set(int(generation))
        summary = {
            "generation": int(generation),
            "hypervolume": hv,
            "front_size": int(len(front)),
            "spread": spread,
        }
        if self.status.enabled:
            self.status.publish_generation(
                generation=int(generation),
                hypervolume=hv,
                front=front,
                front_size=len(front),
                spread=spread,
                **fields,
            )
        return summary


class _Handler:
    """Request handler bound to an :class:`ObservabilityServer` (mixed
    into ``BaseHTTPRequestHandler`` when a server is built, so importing
    this module does not import ``http.server``)."""

    server_version = "repro-obs/1"
    plane: "ObservabilityServer"  # injected by the server factory

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        return None  # keep campaign stdout clean

    def _send(
        self, body: str, content_type: str, code: int = 200
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._send(
                    self.plane.registry.to_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/status":
                self._send(
                    self.plane.status_json(), "application/json"
                )
            elif path in ("/", "/healthz"):
                self._send("ok\n", "text/plain; charset=utf-8")
            else:
                self._send("not found\n", "text/plain", code=404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # scraper went away mid-response


class ObservabilityServer:
    """Serve ``/metrics`` and ``/status`` for one process's campaigns.

    Runs a ``ThreadingHTTPServer`` on a daemon thread; request handling
    only *reads* (registry snapshot, status snapshot, tracer records),
    so it never blocks the campaign.  ``port=0`` binds an ephemeral
    port — read it back from :attr:`port`.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
        status: Any = None,
        tracer: Any = None,
        stragglers_top: int = 5,
    ) -> None:
        self.registry = (
            registry if registry is not None else get_registry()
        )
        self.status = status if status is not None else get_status()
        self.tracer = tracer
        self.stragglers_top = int(stragglers_top)
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        handler = type(
            "_BoundHandler",
            (_Handler, BaseHTTPRequestHandler),
            {"plane": self},
        )
        self._httpd = ThreadingHTTPServer((host, int(port)), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def status_json(self) -> str:
        """The strict-JSON ``/status`` body: the campaign snapshot plus
        a live straggler summary from the tracer's in-memory records."""
        payload = self.status.snapshot()
        payload.setdefault("state", "unknown")
        records = getattr(self.tracer, "records", None) or []
        if records:
            from repro.obs.report import straggler_summary

            summary = straggler_summary(
                records, top=self.stragglers_top
            )
            # strip the raw numpy arrays; keep the scalar ledger + list
            payload["stragglers"] = {
                k: v
                for k, v in summary.items()
                if not isinstance(v, np.ndarray)
            }
        return json.dumps(_json_safe(payload), allow_nan=False)

    # ------------------------------------------------------------------
    def start(self) -> "ObservabilityServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-obs-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
