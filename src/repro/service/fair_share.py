"""Many campaigns over one worker fleet: the service's side of fair share.

The execution backends are single-owner by design (the pool's books
change only in its drain; the inline backend's wave runs in whichever
poll comes first), so the service steps every campaign on its one
owner thread, the backend's only caller.  Each campaign's engine
submits through its own :class:`CampaignQueue`, which hands every
evaluation straight to the backend as a task of one tagged with its
campaign and tenant (:class:`~repro.engine.policy.Tag`).  The process
pool's policy orders the tenants' work (DESIGN.md §9); the inline
backend runs each wave with at most a tenant's cap of its evaluations.
:class:`FairShareScheduler` admits the tenants and keeps the books the
``/status`` plane shows.

Campaign results are unaffected by any of this: evaluations are pure
functions of the phenome (and problem fingerprint), so interleaving
changes only *when* work runs, never *what* it returns.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.backends import SlotFuture, as_backend
from repro.engine.policy import Tag
from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry, get_registry

from repro.service.tenancy import Tenant


class _Tasks:
    """The future of a chunk a lane handed over as one task per
    evaluation: one slot per task, in order."""

    __slots__ = ("futures",)

    def __init__(self, futures: list[Any]) -> None:
        self.futures = futures

    def done(self) -> bool:
        for future in self.futures:
            try:
                if not future.done():
                    return False
            except Exception:  # noqa: BLE001 - the poll's wave failed
                # and resolved each of its tasks to the exception, slot
                # by slot: it lands on the evaluations it hit, as on a
                # pool, instead of failing whichever campaign polled
                pass
        return True

    def result(self, timeout: Optional[float] = None) -> list[Any]:
        return [slot for f in self.futures for slot in f.result(timeout)]


class CampaignQueue:
    """One campaign's lane into the shared backend.

    Implements the engine's ``ExecutionBackend`` protocol, so a
    campaign built with ``client=queue`` runs unchanged: each
    evaluation goes straight to the backend as a task of its own under
    this lane's :attr:`tag`, so tenant quotas count evaluations, not
    chunks.
    """

    is_execution_backend = True

    def __init__(
        self, scheduler: "FairShareScheduler", campaign_id: str, tenant: Tenant
    ) -> None:
        self.scheduler = scheduler
        self.campaign_id = str(campaign_id)
        self.tenant = tenant
        self.tag = Tag(
            tenant.name, self.campaign_id, tenant.weight, tenant.priority,
            tenant.max_in_flight,
        )

    # -- ExecutionBackend protocol -------------------------------------
    def submit(self, individual: Any) -> SlotFuture:
        return SlotFuture(self.submit_batch([individual]))

    def submit_batch(self, individuals: Any) -> _Tasks:
        backend = self.scheduler.backend
        futures = [
            backend.submit_batch([individual], tag=self.tag)
            for individual in individuals
        ]
        self.scheduler._c_dispatched.inc(len(futures))
        return _Tasks(futures)

    def on_cache_hit(self, individual: Any) -> None:
        # for backend-side accounting (pool cache counters)
        self.scheduler.backend.on_cache_hit(individual)


class FairShareScheduler:
    """Admit tenants, open each campaign's lane into one backend, and
    show the tenants' books on ``/status``.

    Lanes are opened and closed by the service's owner thread; tenants
    are admitted at submit time, from whichever thread submits.
    """

    def __init__(
        self, backend: Any = None, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.backend = as_backend(backend)
        registry = metrics if metrics is not None else get_registry()
        self._c_dispatched = registry.counter("service_dispatched_total")
        self._tenants: dict[str, Tenant] = {}
        self._queues: list[CampaignQueue] = []

    def admit_tenant(self, tenant: Tenant) -> None:
        """Admit a new tenant; reject a tenant name re-used with
        *different* knobs, so the quota a tenant was admitted with is
        not silently rewritten.  The service calls it at submit time (a
        bad submission gets an HTTP 400 instead of a failed campaign);
        ``dict.setdefault`` is atomic, so of two concurrent submissions
        with conflicting knobs exactly one is admitted."""
        known = self._tenants.setdefault(tenant.name, tenant)
        if known != tenant:
            raise ServiceError(
                f"tenant {tenant.name!r} already registered with "
                f"{known.as_doc()}, refusing conflicting "
                f"{tenant.as_doc()}"
            )

    def register(self, campaign_id: str, tenant: Tenant) -> CampaignQueue:
        """Open a submission lane for one campaign under ``tenant``."""
        self.admit_tenant(tenant)
        queue = CampaignQueue(self, campaign_id, tenant)
        self._queues.append(queue)
        return queue

    def unregister(self, campaign_id: str) -> None:
        """Close a campaign's lane: what it handed over keeps running,
        and nothing reads it back."""
        self._queues = [
            q for q in self._queues if q.campaign_id != str(campaign_id)
        ]

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time state for the ``/status`` plane: per tenant,
        its knobs, its open campaigns and the fair-share books the
        backend keeps (``in_flight``, ``peak_in_flight``,
        ``dispatched``, and a pool's ``vtime``); ``in_flight``, the
        tenants' evaluations on workers (each campaign's own counts are
        its status's ``engine``)."""
        books = getattr(self.backend, "share_snapshot", None)
        books = books() if callable(books) else {}
        queues = list(self._queues)
        tenants = {
            name: {
                **tenant.as_doc(),
                **books.get(name, {}),
                "campaigns": [
                    q.campaign_id for q in queues if q.tenant.name == name
                ],
            }
            for name, tenant in sorted(dict(self._tenants).items())
        }
        return {
            "in_flight": sum(
                book.get("in_flight", 0) for book in books.values()
            ),
            "tenants": tenants,
        }
