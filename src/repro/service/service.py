"""The multi-tenant campaign service.

:class:`CampaignService` is the long-running core the HTTP server
fronts: it accepts campaign submissions, runs up to ``max_active`` of
them at once — all stepped on its **one** owner thread, which is
therefore the only caller of the **one** shared execution backend —
and persists enough state that a killed server resumes every
interrupted campaign bit-identically on restart.

Per campaign:

* a :class:`~repro.obs.live.CampaignStatus` its loop is built with, so
  its engine and telemetry publish into that campaign's snapshot and
  label their gauges with its id — concurrent campaigns never clobber
  each other's metrics;
* a :class:`~repro.store.journal.CampaignJournal` in the campaign's
  own directory (write-ahead, fsync per append);
* a lane (:class:`~repro.service.fair_share.CampaignQueue`) into the
  shared fleet, whose tasks carry the submitting tenant's
  weight/priority/quota to the backend's queue;
* the **shared** content-addressed evaluation cache: identical
  (phenome, fingerprint) evaluations requested by different campaigns
  — or different tenants — execute once, ever.

The owner thread admits queued campaigns up to ``max_active``, calls
``step(0)`` on each admitted campaign's loop (it polls, never blocks),
and when no campaign moved waits :data:`POLL_INTERVAL` or until a
submit, cancel or shutdown wakes it.  Cancellation and shutdown both
ride the per-generation callback, which the drivers invoke *after* the
generation is journaled: the journal gains no torn tail, and the
campaign stops at a clean resume point.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Optional

from repro.engine.backends import as_backend
from repro.exceptions import (
    CampaignCancelled,
    ServiceError,
    ServiceShutdown,
)
from repro.obs.live import CampaignStatus
from repro.store.cache import EvaluationCache
from repro.store.journal import CampaignJournal, journal_path
from repro.store.resume import problem_factory_from_spec, resume_loop

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


#: how long the owner thread waits when no campaign moved
POLL_INTERVAL = 0.002


class CampaignService:
    """Run many tenants' campaigns over one shared worker fleet."""

    def __init__(
        self,
        root: str | Path,
        backend: Any = None,
        max_active: int = 4,
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
        self.scheduler = FairShareScheduler(self.backend)
        self.registry = CampaignRegistry(self.root)
        self._build_problem_factory = (
            problem_factory_builder
            if problem_factory_builder is not None
            else problem_factory_from_spec
        )
        #: submitted or recovered, not yet admitted (appended by any
        #: thread, taken by the owner: a deque's ends are thread-safe)
        self._queued: deque[ManagedCampaign] = deque()
        #: admitted: campaign id → (campaign, its loop once started);
        #: the owner thread's alone
        self._active: dict[str, tuple[ManagedCampaign, Any]] = {}
        self._wake = threading.Event()
        self._shutdown = threading.Event()
        self._owner = threading.Thread(
            target=self._serve, name="repro-service", daemon=True
        )
        self._owner.start()

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(self, spec: Any) -> ManagedCampaign:
        """Accept one campaign submission and queue it to run (subject
        to the ``max_active`` gate); returns the managed record
        immediately."""
        if self._shutdown.is_set():
            raise ServiceError("service is shutting down")
        if isinstance(spec, dict):
            from repro.service.tenancy import tenant_from_spec

            # reject conflicting tenant quotas at submit time (HTTP
            # 400), not as a failed campaign minutes later — and admit
            # the tenant now: its lane opens only once it is admitted
            self.scheduler.admit_tenant(tenant_from_spec(spec.get("tenant")))
        campaign = self.registry.create(spec)
        self._enqueue(campaign)
        return campaign

    def cancel(self, campaign_id: str) -> ManagedCampaign:
        """Stop a campaign at its next generation boundary (immediately
        if it has not started)."""
        campaign = self.registry.get(campaign_id)
        campaign.cancel_event.set()
        if campaign.state == QUEUED:
            self.registry.set_state(campaign, CANCELLED)
        self._wake.set()
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
        either way (see :meth:`_start`).
        """
        recovered = []
        for campaign in self.registry.load_persisted():
            if campaign.state not in RESUMABLE_STATES:
                continue
            self._enqueue(campaign)
            recovered.append(campaign)
        return recovered

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 60.0) -> None:
        """Graceful drain: running campaigns stop at their next
        generation boundary (journals flushed+fsynced by construction)
        and are marked ``interrupted``, queued ones stay queued on
        disk; then the fleet is stopped."""
        self._shutdown.set()
        self._wake.set()
        self._owner.join(timeout=timeout)
        if self._owns_backend:
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until no campaign is queued or running; True if that
        happened within ``timeout`` seconds in all."""
        deadline = None if timeout is None else time.monotonic() + timeout
        # the owner admits a campaign before it leaves the queue, so a
        # campaign is always in one or the other until it is over
        while self._queued or self._active:
            if not self._owner.is_alive() or (
                deadline is not None and time.monotonic() >= deadline
            ):
                return False
            time.sleep(0.005)
        return True

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
        fleet = getattr(self.backend, "fleet_snapshot", None)
        if callable(fleet) and fleet():
            service["fleet"] = fleet()
        return {
            "state": (
                "shutting-down" if self._shutdown.is_set() else "serving"
            ),
            "service": service,
        }

    # ------------------------------------------------------------------
    # the owner thread
    # ------------------------------------------------------------------
    def _enqueue(self, campaign: ManagedCampaign) -> None:
        self._queued.append(campaign)
        self._wake.set()

    def _serve(self) -> None:
        """Admit, step every admitted campaign once, and wait when none
        moved — until shutdown has stopped every running campaign."""
        while True:
            self._admit()
            moved = False
            for campaign_id in list(self._active):
                moved |= self._step(campaign_id)
            if self._shutdown.is_set() and not self._active:
                break
            if not moved:
                self._wake.wait(POLL_INTERVAL if self._active else None)
                self._wake.clear()
        # what never got a slot stays queued on disk: it runs on restart
        self._queued.clear()

    def _admit(self) -> None:
        while (
            self._queued
            and len(self._active) < self.max_active
            and not self._shutdown.is_set()
        ):
            campaign = self._queued[0]
            if campaign.cancel_event.is_set():
                self.registry.set_state(campaign, CANCELLED)
            else:
                self._active[campaign.id] = (campaign, None)
                self._step(campaign.id)  # starts it
            self._queued.popleft()

    def _step(self, campaign_id: str) -> bool:
        """Start or step one campaign's loop; retire the campaign once
        it is over — done, cancelled, interrupted or failed, each
        isolated from the rest.  Whether it moved."""
        campaign, loop = self._active[campaign_id]
        try:
            if loop is None:
                loop = self._start(campaign)
                self._active[campaign_id] = (campaign, loop)
                moved = True
            else:
                moved = loop.step(0)
            if not loop.done:
                return moved
            self._finish(campaign, loop.result)
            campaign.status.mark_done()
        except CampaignCancelled:
            self.registry.set_state(campaign, CANCELLED)
        except ServiceShutdown:
            self.registry.set_state(campaign, INTERRUPTED)
        except Exception as exc:  # noqa: BLE001 - isolate campaigns
            self.registry.set_state(
                campaign, FAILED, error=f"{type(exc).__name__}: {exc}"
            )
        self.scheduler.unregister(campaign_id)
        del self._active[campaign_id]
        return True

    def _start(self, campaign: ManagedCampaign) -> Any:
        """``campaign``'s loop, over its own lane and status.

        One path for every campaign: a fresh one is a journal holding
        only its ``campaign_begin`` record, so a submitted campaign runs
        exactly as a recovered one does — through
        :func:`~repro.store.resume.resume_loop`.
        """
        self.registry.set_state(campaign, RUNNING)
        status = campaign.status = CampaignStatus(
            campaign_id=campaign.id,
            mode=campaign.config.mode,
            tenant=campaign.tenant.name,
            name=campaign.name,
        )

        def callback(run_index: int, record: Any) -> None:
            # fires after the generation is journaled (write-ahead
            # order), so raising here is a clean resume point
            if campaign.cancel_event.is_set():
                raise CampaignCancelled(f"campaign {campaign.id} cancelled")
            if self._shutdown.is_set():
                raise ServiceShutdown(
                    f"campaign {campaign.id} interrupted by shutdown"
                )

        lane = self.scheduler.register(campaign.id, campaign.tenant)
        jpath = journal_path(campaign.directory)
        if not jpath.exists():
            with CampaignJournal(
                jpath, problem_spec=campaign.problem_spec
            ) as journal:
                journal.begin_campaign(campaign.config)
        return resume_loop(
            campaign.directory,
            problem_factory=self._build_problem_factory(
                campaign.problem_spec
            ),
            client=lane,
            cache=self.cache,
            callback=callback,
            status=status,
        )

    def _finish(self, campaign: ManagedCampaign, result: Any) -> None:
        from repro.io import save_campaign
        from repro.service.registry import _atomic_write_json

        _atomic_write_json(
            campaign.directory / "front.json", _front_doc(result)
        )
        save_campaign(result, campaign.directory)
        self.registry.set_state(campaign, DONE)
