"""The multi-tenant campaign service.

:class:`CampaignService` is the long-running core the HTTP server
fronts: it accepts campaign submissions, runs up to ``max_active`` of
them concurrently — each on its own thread, all sharing **one**
execution backend through the :class:`~repro.service.fair_share.
FairShareScheduler` — and persists enough state that a killed server
resumes every interrupted campaign bit-identically on restart.

Per campaign:

* a :class:`~repro.obs.live.CampaignStatus` installed *thread-locally*
  (:func:`~repro.obs.live.use_thread_status`), so the existing
  drivers/engine/telemetry publish into that campaign's snapshot and
  label their gauges with its id — concurrent campaigns no longer
  clobber each other's metrics;
* a :class:`~repro.store.journal.CampaignJournal` in the campaign's
  own directory (write-ahead, fsync per append);
* a lane (:class:`~repro.service.fair_share.CampaignQueue`) into the
  shared fleet, governed by the submitting tenant's weight/quota;
* the **shared** content-addressed evaluation cache: identical
  (phenome, fingerprint) evaluations requested by different campaigns
  — or different tenants — execute once, ever.

Cancellation and shutdown both ride the per-generation callback, which
the drivers invoke *after* the generation is journaled: in-flight
evaluations of the current generation drain naturally, the journal
gains no torn tail, and the campaign stops at a clean resume point.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Optional

from repro.engine.backends import as_backend
from repro.exceptions import (
    CampaignCancelled,
    ServiceError,
    ServiceShutdown,
)
from repro.obs.live import CampaignStatus, use_thread_status
from repro.store.cache import EvaluationCache
from repro.store.journal import CampaignJournal, journal_path
from repro.store.resume import problem_factory_from_spec, resume_campaign

from repro.service.fair_share import FairShareScheduler
from repro.service.registry import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RESUMABLE_STATES,
    RUNNING,
    CampaignRegistry,
    ManagedCampaign,
)


def _front_doc(result: Any) -> dict[str, Any]:
    """The persisted Pareto front: genomes + fitness, sorted so two
    runs of the same campaign produce byte-identical documents."""
    members = []
    for ind in result.aggregate_pareto_front():
        genome = getattr(ind, "genome", None)
        members.append(
            {
                "genome": (
                    [float(g) for g in genome]
                    if genome is not None
                    else None
                ),
                "fitness": [float(f) for f in ind.fitness],
            }
        )
    members.sort(key=lambda m: (m["fitness"], m["genome"] or []))
    return {"front": members, "n_trainings": result.n_trainings}


class CampaignService:
    """Run many tenants' campaigns over one shared worker fleet."""

    def __init__(
        self,
        root: str | Path,
        backend: Any = None,
        max_active: int = 4,
        total_slots: Optional[int] = None,
        cache: Optional[EvaluationCache] = None,
        cache_failures: bool = False,
        problem_factory_builder: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_active < 1:
            raise ServiceError("max_active must be >= 1")
        self.max_active = int(max_active)
        #: cross-campaign shared cache — the whole point: tenants share
        #: finished work, not just workers
        self.cache = (
            cache
            if cache is not None
            else EvaluationCache(
                self.root / "cache", cache_failures=cache_failures
            )
        )
        self._owns_backend = getattr(backend, "is_execution_backend", False)
        self.backend = as_backend(backend)
        self.scheduler = FairShareScheduler(
            self.backend, total_slots=total_slots
        )
        self.scheduler.start()
        self.registry = CampaignRegistry(self.root)
        self._build_problem_factory = (
            problem_factory_builder
            if problem_factory_builder is not None
            else problem_factory_from_spec
        )
        self._slots = threading.Semaphore(self.max_active)
        self._shutdown = threading.Event()
        self._threads: dict[str, threading.Thread] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(self, spec: Any) -> ManagedCampaign:
        """Accept one campaign submission and start it (subject to the
        ``max_active`` gate); returns the managed record immediately."""
        if self._shutdown.is_set():
            raise ServiceError("service is shutting down")
        if isinstance(spec, dict):
            from repro.service.tenancy import tenant_from_spec

            # reject conflicting tenant quotas at submit time (HTTP
            # 400), not as a failed campaign minutes later — and admit
            # the tenant now: its campaign registers only once its
            # runner thread gets going
            self.scheduler.admit_tenant(tenant_from_spec(spec.get("tenant")))
        campaign = self.registry.create(spec)
        self._start_runner(campaign)
        return campaign

    def cancel(self, campaign_id: str) -> ManagedCampaign:
        """Stop a campaign at its next generation boundary (immediately
        if it has not started)."""
        campaign = self.registry.get(campaign_id)
        campaign.cancel_event.set()
        if campaign.state == QUEUED:
            self.registry.set_state(campaign, CANCELLED)
        return campaign

    def get(self, campaign_id: str) -> ManagedCampaign:
        return self.registry.get(campaign_id)

    def list(self) -> list[ManagedCampaign]:
        return self.registry.list()

    def front(self, campaign_id: str) -> dict[str, Any]:
        """The campaign's Pareto front: the persisted final front once
        done, else the live nondominated front from its status."""
        campaign = self.registry.get(campaign_id)
        path = campaign.directory / "front.json"
        if path.exists():
            doc = json.loads(path.read_text())
            doc["state"] = campaign.state
            return doc
        status = campaign.status
        snapshot = status.snapshot() if status is not None else {}
        return {
            "state": campaign.state,
            "front": [
                {"genome": None, "fitness": point}
                for point in snapshot.get("front") or []
            ],
        }

    # ------------------------------------------------------------------
    # restart recovery
    # ------------------------------------------------------------------
    def recover(self) -> list[ManagedCampaign]:
        """Pick up every resumable campaign persisted under the root.

        ``interrupted``/``running`` campaigns continue from their
        journals (bit-identical to never having stopped); ``queued``
        ones that never journaled anything start fresh — the same path
        either way (see :meth:`_run_campaign`).
        """
        recovered = []
        for campaign in self.registry.load_persisted():
            if campaign.state not in RESUMABLE_STATES:
                continue
            self._start_runner(campaign)
            recovered.append(campaign)
        return recovered

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 60.0) -> None:
        """Graceful drain: running campaigns stop at their next
        generation boundary (journals flushed+fsynced by construction)
        and are marked ``interrupted``; then the fleet is stopped."""
        self._shutdown.set()
        with self._lock:
            threads = list(self._threads.values())
        for thread in threads:
            thread.join(timeout=timeout)
        self.scheduler.stop(drain=True, timeout=timeout)
        if self._owns_backend:
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every runner thread has finished; True if all
        did within ``timeout`` (per-thread)."""
        with self._lock:
            threads = list(self._threads.values())
        ok = True
        for thread in threads:
            thread.join(timeout=timeout)
            ok = ok and not thread.is_alive()
        return ok

    # ------------------------------------------------------------------
    # status plane
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The multi-campaign ``/status`` body.  The ``service`` key is
        the discriminator ``repro-hpo monitor`` switches its rendering
        on."""
        campaigns = []
        for campaign in self.registry.list():
            doc = campaign.summary()
            status = campaign.status
            if status is not None:
                live = status.snapshot()
                doc["generation"] = live.get("generation")
                doc["run"] = live.get("run")
                doc["cache_hit_rate"] = live.get("cache_hit_rate", 0.0)
                doc["evals_per_sec"] = live.get("evals_per_sec", 0.0)
                series = live.get("hypervolume_series") or []
                if series:
                    doc["hypervolume"] = series[-1].get("hypervolume")
                doc["front_size"] = len(live.get("front") or [])
            campaigns.append(doc)
        service: dict[str, Any] = {
            "campaigns": campaigns,
            "scheduler": self.scheduler.snapshot(),
            # stats are this process's view; "entries" counts the
            # disk store, which pool workers insert into directly
            "cache": {**self.cache.stats(), "entries": len(self.cache)},
            "max_active": self.max_active,
        }
        fleet = getattr(self.scheduler.backend, "fleet_snapshot", None)
        if callable(fleet) and fleet():
            service["fleet"] = fleet()
        return {
            "state": (
                "shutting-down" if self._shutdown.is_set() else "serving"
            ),
            "service": service,
        }

    # ------------------------------------------------------------------
    # the campaign runner
    # ------------------------------------------------------------------
    def _start_runner(self, campaign: ManagedCampaign) -> None:
        thread = threading.Thread(
            target=self._run_campaign,
            args=(campaign,),
            name=f"repro-campaign-{campaign.id}",
            daemon=True,
        )
        with self._lock:
            self._threads[campaign.id] = thread
        thread.start()

    def _acquire_slot(self, campaign: ManagedCampaign) -> bool:
        """Wait for an active-campaign slot; False when the wait ends
        in cancellation or shutdown instead."""
        while not self._slots.acquire(timeout=0.05):
            if campaign.cancel_event.is_set():
                self.registry.set_state(campaign, CANCELLED)
                return False
            if self._shutdown.is_set():
                # still queued: stays QUEUED on disk, runs on restart
                return False
        return True

    def _run_campaign(self, campaign: ManagedCampaign) -> None:
        """Run ``campaign`` to completion, cancellation or shutdown.

        One path for every campaign: a fresh one is a journal holding
        only its ``campaign_begin`` record, so a submitted campaign runs
        exactly as a recovered one does — through
        :func:`~repro.store.resume.resume_campaign`.
        """
        if not self._acquire_slot(campaign):
            return
        try:
            if campaign.cancel_event.is_set():
                self.registry.set_state(campaign, CANCELLED)
                return
            if self._shutdown.is_set():
                return
            self.registry.set_state(campaign, RUNNING)
            status = CampaignStatus(
                campaign_id=campaign.id,
                mode=campaign.config.mode,
                tenant=campaign.tenant.name,
                name=campaign.name,
            )
            campaign.status = status

            def callback(run_index: int, record: Any) -> None:
                # fires after the generation is journaled (write-ahead
                # order), so raising here is a clean resume point
                if campaign.cancel_event.is_set():
                    raise CampaignCancelled(
                        f"campaign {campaign.id} cancelled"
                    )
                if self._shutdown.is_set():
                    raise ServiceShutdown(
                        f"campaign {campaign.id} interrupted by shutdown"
                    )

            queue = None
            try:
                queue = self.scheduler.register(
                    campaign.id, campaign.tenant
                )
                with use_thread_status(status):
                    jpath = journal_path(campaign.directory)
                    if not jpath.exists():
                        with CampaignJournal(
                            jpath, problem_spec=campaign.problem_spec
                        ) as journal:
                            journal.begin_campaign(campaign.config)
                    result = resume_campaign(
                        campaign.directory,
                        problem_factory=self._build_problem_factory(
                            campaign.problem_spec
                        ),
                        client=queue,
                        cache=self.cache,
                        callback=callback,
                    )
                    self._finish(campaign, result)
                    status.mark_done()
            except CampaignCancelled:
                self.registry.set_state(campaign, CANCELLED)
            except ServiceShutdown:
                self.registry.set_state(campaign, INTERRUPTED)
            except Exception as exc:  # noqa: BLE001 - isolate campaigns
                self.registry.set_state(
                    campaign, FAILED, error=f"{type(exc).__name__}: {exc}"
                )
            finally:
                if queue is not None:
                    self.scheduler.unregister(queue)
        finally:
            self._slots.release()
            with self._lock:
                self._threads.pop(campaign.id, None)

    def _finish(self, campaign: ManagedCampaign, result: Any) -> None:
        from repro.io import save_campaign
        from repro.service.registry import _atomic_write_json

        _atomic_write_json(
            campaign.directory / "front.json", _front_doc(result)
        )
        save_campaign(result, campaign.directory)
        self.registry.set_state(campaign, DONE)
