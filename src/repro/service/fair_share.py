"""Many campaigns over one worker fleet: the service's side of fair share.

The execution backends are single-owner by design (the pool's books
change only in its drain; the inline backend's wave runs in whichever
poll comes first), so N concurrent campaigns mean one *owner* thread,
the :class:`FairShareScheduler`, calling the backend, with every
campaign submitting into its own :class:`CampaignQueue`.

The owner keeps no queue of its own: it hands each evaluation to the
backend as it arrives, as a task of one tagged with its campaign and
tenant (:class:`~repro.engine.policy.Tag`).  The process pool's policy
orders the tenants' work (DESIGN.md §9); the inline backend runs each
wave with at most a tenant's cap of its evaluations.

Campaign results are unaffected by any of this: evaluations are pure
functions of the phenome (and problem fingerprint), so interleaving
changes only *when* work runs, never *what* it returns.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Optional

from repro.engine.backends import AggregateFuture, as_backend
from repro.engine.policy import Tag
from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry, get_registry

from repro.service.tenancy import Tenant

#: how often the owner thread polls the backend while work is in flight
POLL_INTERVAL = 0.002


class ServiceFuture:
    """Future handed to a campaign's engine for one queued evaluation.

    Resolution comes from the owner thread; the waiting side blocks on
    an event, never on the backend — campaign threads must not touch
    the backend at all.
    """

    __slots__ = ("_event", "_result", "_exception")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._exception: Optional[BaseException] = None

    def _resolve(
        self, result: Any = None, exception: Optional[BaseException] = None
    ) -> None:
        self._result = result
        self._exception = exception
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError(f"evaluation unresolved after {timeout}s")
        if self._exception is not None:
            raise self._exception
        return self._result


class CampaignQueue:
    """One campaign's submission lane into the shared fleet.

    Implements the engine's ``ExecutionBackend`` protocol, so a
    campaign built with ``client=queue`` runs unchanged — ``submit``
    enqueues and returns a :class:`ServiceFuture` (``submit_batch``
    one per individual); the owner thread hands each to the backend
    under this lane's :attr:`tag`.
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
        #: (individual, ServiceFuture) not yet handed to the backend —
        #: guarded by the scheduler's lock, like all accounting below
        self.pending: deque[tuple[Any, ServiceFuture]] = deque()
        #: handed to the backend, unresolved
        self.in_flight = 0
        self.submitted = 0
        self.completed = 0
        self.cache_hits = 0
        self.closed = False

    # -- ExecutionBackend protocol -------------------------------------
    def submit(self, individual: Any) -> ServiceFuture:
        return self.scheduler._enqueue(self, [individual])[0]

    def submit_batch(self, individuals: Any) -> AggregateFuture:
        """One backend task per individual, so tenant quotas count
        evaluations, not chunks; enqueued at once, so the owner hands
        the chunk over whole."""
        return AggregateFuture(self.scheduler._enqueue(self, individuals))

    def on_cache_hit(self, individual: Any) -> None:
        self.scheduler._note_cache_hit(self)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        with self.scheduler._cond:  # re-entrant: snapshot() holds it
            return {
                "pending": len(self.pending),
                "in_flight": self.in_flight,
                "submitted": self.submitted,
                "completed": self.completed,
                "cache_hits": self.cache_hits,
            }


class FairShareScheduler:
    """Admit tenants and hand many campaign queues' work to one backend.

    The scheduler is the backend's *only* caller: ``start()`` runs the
    owner thread, which alternates handing queued evaluations to the
    backend and draining finished ones; tests drive the same logic
    deterministically by leaving it unstarted and calling :meth:`tick`
    by hand.  The backend's futures read ``resolved`` without driving
    it, as the pool's and the inline backend's do.
    """

    def __init__(
        self, backend: Any = None, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.backend = as_backend(backend)
        self._registry = metrics if metrics is not None else get_registry()
        self._c_dispatched = self._registry.counter("service_dispatched_total")
        self._g_total_inflight = self._registry.gauge("service_in_flight")
        self._cond = threading.Condition()
        self._tenants: dict[str, Tenant] = {}
        self._queues: list[CampaignQueue] = []
        #: (lane, its future, the backend's future), handed and unresolved
        self._inflight: list[tuple[CampaignQueue, ServiceFuture, Any]] = []
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._stopped = False

    # ------------------------------------------------------------------
    # campaign lifecycle
    # ------------------------------------------------------------------
    def admit_tenant(self, tenant: Tenant) -> None:
        """Admit a new tenant; reject a tenant name re-used with
        *different* knobs, so the quota a tenant was admitted with is
        not silently rewritten.  The service calls it at submit time (a
        bad submission gets an HTTP 400 instead of a failed campaign);
        under one hold of the lock, so of two concurrent submissions
        with conflicting knobs exactly one is admitted."""
        with self._cond:
            known = self._tenants.setdefault(tenant.name, tenant)
            if known != tenant:
                raise ServiceError(
                    f"tenant {tenant.name!r} already registered with "
                    f"{known.as_doc()}, refusing conflicting "
                    f"{tenant.as_doc()}"
                )

    def register(self, campaign_id: str, tenant: Tenant) -> CampaignQueue:
        """Open a submission lane for one campaign under ``tenant``."""
        with self._cond:
            if self._stopped:
                raise ServiceError("scheduler is stopped")
            self.admit_tenant(tenant)
            queue = CampaignQueue(self, campaign_id, tenant)
            self._queues.append(queue)
            return queue

    def unregister(self, queue: CampaignQueue) -> None:
        """Close a campaign's lane; anything not yet handed over fails.

        Handed work keeps draining (its accounting is decremented on
        completion as usual), and a finished campaign has none pending.
        """
        with self._cond:
            queue.closed = True
            if queue in self._queues:
                self._queues.remove(queue)
            pending = list(queue.pending)
            queue.pending.clear()
            self._sample_queue(queue)
        message = f"campaign {queue.campaign_id} unregistered with work still queued"
        for _, future in pending:
            future._resolve(exception=ServiceError(message))

    # ------------------------------------------------------------------
    # queue side (campaign threads)
    # ------------------------------------------------------------------
    def _enqueue(
        self, queue: CampaignQueue, individuals: Any
    ) -> list[ServiceFuture]:
        with self._cond:
            if self._stopped or queue.closed:
                raise ServiceError(f"campaign {queue.campaign_id}: queue is closed")
            futures = []
            for individual in individuals:
                futures.append(ServiceFuture())
                queue.pending.append((individual, futures[-1]))
            queue.submitted += len(futures)
            self._sample_queue(queue)
            self._cond.notify_all()
        return futures

    def _note_cache_hit(self, queue: CampaignQueue) -> None:
        with self._cond:
            queue.cache_hits += 1
        # forward for backend-side accounting (pool cache counters)
        self.backend.on_cache_hit(None)

    def _has_pending(self) -> bool:
        return any(q.pending for q in self._queues)

    # ------------------------------------------------------------------
    # owner side (one thread only)
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Hand every queued evaluation to the backend, then drain what
        finished; returns evaluations handed over.

        Must only ever run on one thread at a time — the owner thread
        when started, or the test driving it manually.
        """
        handed = self._hand_off()
        self._drain()
        return handed

    def _hand_off(self) -> int:
        with self._cond:
            work = []
            for queue in self._queues:
                work += [(queue, *entry) for entry in queue.pending]
                queue.in_flight += len(queue.pending)
                queue.pending.clear()
                self._sample_queue(queue)
        # the backend calls run unlocked, like the polls in _drain
        # (where the inline backend evaluates): campaign threads must be
        # able to keep enqueueing meanwhile
        handed = []
        for queue, individual, future in work:
            try:
                backend_future = self.backend.submit_batch(
                    [individual], tag=queue.tag
                )
            except BaseException as exc:  # noqa: BLE001 - engine's policy
                future._resolve(exception=exc)
                self._finished(queue)
                continue
            handed.append((queue, future, backend_future))
        with self._cond:
            self._inflight += handed
            self._g_total_inflight.set(len(self._inflight))
        self._c_dispatched.inc(len(handed))
        return len(handed)

    def _finished(self, queue: CampaignQueue) -> None:
        """Count one evaluation off its lane, once its future resolved:
        a scheduler found idle has resolved every future."""
        with self._cond:
            queue.in_flight -= 1
            queue.completed += 1
            self._sample_queue(queue)
            self._cond.notify_all()

    def _drain(self) -> None:
        # done() drives the backend (the pool's drain, the inline wave —
        # which may raise) until a drive leaves its own future unresolved;
        # the futures after it are read as that left them (``resolved``),
        # so a tick's drives follow what finished, not how much is out.
        # Safe here because this is the backend's only calling thread,
        # and the only one that changes the in-flight list
        running, finished = [], []
        driven = False
        for entry in self._inflight:
            queue, future, backend_future = entry
            try:
                if not (
                    backend_future.resolved if driven else backend_future.done()
                ):
                    driven = True
                    running.append(entry)
                    continue
                (slot,) = backend_future.result(timeout=0)
                failed = isinstance(slot, BaseException)
                outcome = (None, slot) if failed else (slot, None)
            except BaseException as exc:  # noqa: BLE001 - engine's policy
                outcome = None, exc
            finished.append((queue, future, outcome))
        if not finished:
            return
        for queue, future, outcome in finished:
            future._resolve(*outcome)
            self._finished(queue)
        with self._cond:
            self._inflight = running
            self._g_total_inflight.set(len(running))
            self._cond.notify_all()

    def _sample_queue(self, queue: CampaignQueue) -> None:
        """The lane's labeled gauges: one series per campaign."""
        labels = {"campaign_id": queue.campaign_id}
        self._registry.gauge("service_queue_depth", labels=labels).set(
            len(queue.pending)
        )
        self._registry.gauge(
            "service_campaign_in_flight", labels=labels
        ).set(queue.in_flight)

    # ------------------------------------------------------------------
    # owner thread
    # ------------------------------------------------------------------
    def start(self) -> "FairShareScheduler":
        with self._cond:
            if self._stopped:
                raise ServiceError("scheduler is stopped")
            if self._thread is not None:
                return self
            self._thread = threading.Thread(
                target=self._loop, name="repro-fair-share", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stopping.is_set():
            self.tick()
            with self._cond:
                if not self._has_pending() and not self._stopping.is_set():
                    # an enqueue (or stop) wakes it; work in flight is
                    # polled at a gentle rate instead of spinning
                    self._cond.wait(POLL_INTERVAL if self._inflight else 0.1)
        self.tick()  # final drain so stop() observes a settled state

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop handing work over; with ``drain`` (default), first wait
        for queued + in-flight work to finish."""
        if drain and self._thread is not None:
            self.wait_idle(timeout=timeout)
        self._stopping.set()
        with self._cond:
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        with self._cond:
            self._stopped = True

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no work is pending or in flight (True) or the
        timeout elapses (False).  Requires a started scheduler."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            # a lane counts what is being handed over, before _inflight
            while self._inflight or any(
                q.pending or q.in_flight for q in self._queues
            ):
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining if remaining else 0.1)
        return True

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Point-in-time state for the ``/status`` plane: per tenant,
        its knobs, its campaigns and the fair-share books the backend
        keeps (``in_flight``, ``peak_in_flight``, ``dispatched``, and a
        pool's ``vtime``); per campaign lane, its counts."""
        books = getattr(self.backend, "share_snapshot", None)
        books = books() if callable(books) else {}
        with self._cond:
            tenants = {
                name: {
                    **tenant.as_doc(),
                    **books.get(name, {}),
                    "campaigns": [
                        q.campaign_id
                        for q in self._queues
                        if q.tenant.name == name
                    ],
                }
                for name, tenant in sorted(self._tenants.items())
            }
            queues = {
                q.campaign_id: {"tenant": q.tenant.name, **q.stats()}
                for q in self._queues
            }
            return {
                "in_flight": len(self._inflight),
                "tenants": tenants,
                "queues": queues,
            }
