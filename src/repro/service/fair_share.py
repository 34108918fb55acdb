"""Fair-share scheduling of many campaigns over one worker fleet.

The execution backends are single-owner by design: the process pool's
parent-side bookkeeping is single-threaded (all state transitions
happen inside ``_drain`` on the driver thread), and the inline backend
queues chunks that the first poll of any of them evaluates.  Running N
concurrent campaigns therefore cannot mean N threads poking one
backend — it means one *dispatcher* owning the backend exclusively,
with every campaign submitting into its own :class:`CampaignQueue`
and the :class:`FairShareScheduler`
deciding, slot by slot, whose task runs next.

The policy is stride scheduling over tenants, with two hard fences:

1. **Strict priority.**  Among tenants with queued work and quota
   headroom, only the lowest ``priority`` class is eligible.
2. **Quota.**  A tenant's concurrently executing evaluations (summed
   over all its campaigns) never exceed its ``max_in_flight``; the
   whole fleet never exceeds ``total_slots``.

Within the eligible set the tenant with the smallest virtual time
wins, and its virtual time advances by ``1 / weight`` per dispatched
task — so over time, dispatch opportunities are proportional to
weights.  Ties break by tenant name, and a tenant's own campaigns are
served round-robin, making the whole dispatch order deterministic for
a given arrival order (the property the bit-identical-front tests pin
down).

Campaign results are unaffected by any of this: evaluations are pure
functions of the phenome (and problem fingerprint), so interleaving
changes only *when* work runs, never *what* it returns.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional

from repro.engine.backends import AggregateFuture, as_backend
from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry, get_registry

from repro.service.tenancy import Tenant


def worker_capacity(backend: Any, default: int = 4) -> int:
    """The concurrency ``backend`` can reach: a fleet-policy pool's
    ceiling (it grows toward it while work waits in its queue), else
    its ``n_workers``, else ``default``."""
    snapshot = getattr(backend, "fleet_snapshot", None)
    ceiling = snapshot().get("max_workers") if callable(snapshot) else None
    return int(ceiling or getattr(backend, "n_workers", None) or default)


class ServiceFuture:
    """Future handed to a campaign's engine for one queued evaluation.

    Resolution comes from the dispatcher thread; the waiting side
    blocks on an event, never on the backend — campaign threads must
    not touch the backend at all.
    """

    __slots__ = ("_event", "_result", "_exception")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._exception: Optional[BaseException] = None

    def _resolve(
        self,
        result: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self._result = result
        self._exception = exception
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"evaluation unresolved after {timeout}s"
            )
        if self._exception is not None:
            raise self._exception
        return self._result


class CampaignQueue:
    """One campaign's submission lane into the shared fleet.

    Implements the engine's ``ExecutionBackend`` protocol, so a
    campaign built with ``client=queue`` runs unchanged — ``submit``
    enqueues and returns a :class:`ServiceFuture` (``submit_batch``
    one per individual); the scheduler
    executes it on the real backend when this campaign's turn comes.
    """

    is_execution_backend = True

    def __init__(
        self, scheduler: "FairShareScheduler", campaign_id: str, tenant: Tenant
    ) -> None:
        self.scheduler = scheduler
        self.campaign_id = str(campaign_id)
        self.tenant = tenant
        #: FIFO of (individual, ServiceFuture) — guarded by the
        #: scheduler's lock, like all queue accounting below
        self.pending: deque[tuple[Any, ServiceFuture]] = deque()
        self.in_flight = 0
        self.submitted = 0
        self.completed = 0
        self.cache_hits = 0
        self.closed = False

    # -- ExecutionBackend protocol -------------------------------------
    def submit(self, individual: Any) -> ServiceFuture:
        return self.scheduler._enqueue(self, individual)

    def submit_batch(self, individuals: Any) -> AggregateFuture:
        """One lane entry per individual, so tenant quotas count
        evaluations, not chunks."""
        return AggregateFuture([self.submit(ind) for ind in individuals])

    def on_cache_hit(self, individual: Any) -> None:
        self.scheduler._note_cache_hit(self)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        with self.scheduler._cond:
            return {
                "pending": len(self.pending),
                "in_flight": self.in_flight,
                "submitted": self.submitted,
                "completed": self.completed,
                "cache_hits": self.cache_hits,
            }


class _TenantAccount:
    """Scheduler-side ledger for one tenant."""

    __slots__ = (
        "tenant",
        "vtime",
        "in_flight",
        "peak_in_flight",
        "dispatched",
        "queues",
        "rr",
    )

    def __init__(self, tenant: Tenant) -> None:
        self.tenant = tenant
        self.vtime = 0.0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.dispatched = 0
        self.queues: list[CampaignQueue] = []
        self.rr = 0  # round-robin cursor over this tenant's queues

    def has_pending(self) -> bool:
        return any(q.pending for q in self.queues)

    def next_queue(self) -> CampaignQueue:
        """The round-robin pick among this tenant's queues with work."""
        n = len(self.queues)
        for offset in range(n):
            queue = self.queues[(self.rr + offset) % n]
            if queue.pending:
                self.rr = (self.rr + offset + 1) % n
                return queue
        raise ServiceError("next_queue called with nothing pending")


class _InFlightTask:
    __slots__ = ("queue", "account", "service_future", "backend_future")

    def __init__(
        self,
        queue: CampaignQueue,
        account: _TenantAccount,
        service_future: ServiceFuture,
        backend_future: Any,
    ) -> None:
        self.queue = queue
        self.account = account
        self.service_future = service_future
        self.backend_future = backend_future


class FairShareScheduler:
    """Multiplex many campaign queues onto one execution backend.

    The scheduler is the backend's *only* caller: ``start()`` runs a
    dispatcher thread that alternates draining finished backend
    futures and dispatching the next fair-share picks; tests drive the
    same logic deterministically by leaving it unstarted and calling
    :meth:`tick` by hand.

    ``total_slots`` bounds fleet-wide concurrency and defaults to
    :func:`worker_capacity` — the backend's worker count, a fleet-policy
    pool's ceiling (inline backends get ``default_slots``).
    """

    def __init__(
        self,
        backend: Any = None,
        total_slots: Optional[int] = None,
        poll_interval: float = 0.002,
        metrics: Optional[MetricsRegistry] = None,
        default_slots: int = 4,
    ) -> None:
        self.backend = as_backend(backend)
        self.total_slots = (
            int(total_slots)
            if total_slots is not None
            else worker_capacity(self.backend, default_slots)
        )
        if self.total_slots < 1:
            raise ServiceError("total_slots must be >= 1")
        self.poll_interval = float(poll_interval)
        self._registry = metrics if metrics is not None else get_registry()
        self._c_dispatched = self._registry.counter(
            "service_dispatched_total"
        )
        self._g_total_inflight = self._registry.gauge("service_in_flight")
        self._cond = threading.Condition()
        self._accounts: dict[str, _TenantAccount] = {}
        self._inflight: list[_InFlightTask] = []
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._stopped = False

    # ------------------------------------------------------------------
    # campaign lifecycle
    # ------------------------------------------------------------------
    def validate_tenant(self, tenant: Tenant) -> None:
        """Reject a tenant name re-used with *different* knobs: the
        quota a tenant was admitted with must not be silently rewritten
        by a later submission.  Raises at submit time, so a bad
        submission gets an HTTP 400 instead of a failed campaign."""
        with self._cond:
            account = self._accounts.get(tenant.name)
            if account is not None and account.tenant != tenant:
                raise ServiceError(
                    f"tenant {tenant.name!r} already registered with "
                    f"{account.tenant.as_doc()}, refusing conflicting "
                    f"{tenant.as_doc()}"
                )

    def admit_tenant(self, tenant: Tenant) -> None:
        """:meth:`validate_tenant`, and open the tenant's account if it
        has none, under one hold of the lock — so of two concurrent
        submissions with conflicting knobs exactly one is admitted,
        however late their campaigns :meth:`register`."""
        with self._cond:
            self.validate_tenant(tenant)
            self._accounts.setdefault(tenant.name, _TenantAccount(tenant))

    def register(self, campaign_id: str, tenant: Tenant) -> CampaignQueue:
        """Open a submission lane for one campaign under ``tenant``."""
        with self._cond:
            if self._stopped:
                raise ServiceError("scheduler is stopped")
            self.admit_tenant(tenant)
            account = self._accounts[tenant.name]
            queue = CampaignQueue(self, campaign_id, account.tenant)
            account.queues.append(queue)
            return queue

    def unregister(self, queue: CampaignQueue) -> None:
        """Close a campaign's lane; anything still pending fails.

        In-flight work keeps draining (its accounting is decremented on
        completion as usual) — only undispatched submissions are failed,
        and a finished campaign has none.
        """
        with self._cond:
            queue.closed = True
            account = self._accounts.get(queue.tenant.name)
            if account is not None and queue in account.queues:
                account.queues.remove(queue)
                account.rr = 0
            pending = list(queue.pending)
            queue.pending.clear()
            self._sample_queue(queue)
        for _, future in pending:
            future._resolve(
                exception=ServiceError(
                    f"campaign {queue.campaign_id} unregistered with "
                    "work still queued"
                )
            )

    # ------------------------------------------------------------------
    # queue side (campaign threads)
    # ------------------------------------------------------------------
    def _enqueue(
        self, queue: CampaignQueue, individual: Any
    ) -> ServiceFuture:
        future = ServiceFuture()
        with self._cond:
            if self._stopped or queue.closed:
                raise ServiceError(
                    f"campaign {queue.campaign_id}: queue is closed"
                )
            queue.pending.append((individual, future))
            queue.submitted += 1
            self._sample_queue(queue)
            self._cond.notify_all()
        return future

    def _note_cache_hit(self, queue: CampaignQueue) -> None:
        with self._cond:
            queue.cache_hits += 1
        # forward for backend-side accounting (pool cache counters)
        self.backend.on_cache_hit(None)

    # ------------------------------------------------------------------
    # dispatcher side (one thread only)
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """One drain + dispatch round; returns tasks dispatched.

        Must only ever run on one thread at a time — the dispatcher
        thread when started, or the test driving it manually.
        """
        self._drain()
        return self._dispatch()

    def _drain(self) -> None:
        with self._cond:
            inflight = list(self._inflight)
        finished: list[tuple[_InFlightTask, Any, Optional[BaseException]]] = []
        for task in inflight:
            result: Any = None
            exception: Optional[BaseException] = None
            # done() drives the backend's own bookkeeping (the pool's
            # drain, the inline wave — which may raise); safe here
            # because this is the backend's only calling thread
            try:
                if not task.backend_future.done():
                    continue
                result = task.backend_future.result(timeout=0)
            except BaseException as exc:  # noqa: BLE001 - engine's policy
                exception = exc
            finished.append((task, result, exception))
        if not finished:
            return
        with self._cond:
            for task, _, _ in finished:
                self._inflight.remove(task)
                task.account.in_flight -= 1
                task.queue.in_flight -= 1
                task.queue.completed += 1
                self._sample_queue(task.queue)
                self._sample_tenant(task.account)
            self._g_total_inflight.set(len(self._inflight))
            self._cond.notify_all()
        for task, result, exception in finished:
            task.service_future._resolve(result=result, exception=exception)

    def _pick(self) -> Optional[tuple[CampaignQueue, _TenantAccount]]:
        """The fair-share choice, under the lock; None when nothing is
        eligible (empty queues, quotas saturated, or fleet full)."""
        # not capped at a pool's live size: work past it waits in the
        # pool's queue, the backlog a fleet-policy pool grows on
        if len(self._inflight) >= self.total_slots:
            return None
        eligible = [
            account
            for account in self._accounts.values()
            if account.has_pending()
            and account.in_flight < account.tenant.max_in_flight
        ]
        if not eligible:
            return None
        top = min(a.tenant.priority for a in eligible)
        account = min(
            (a for a in eligible if a.tenant.priority == top),
            key=lambda a: (a.vtime, a.tenant.name),
        )
        return account.next_queue(), account

    def _dispatch(self) -> int:
        dispatched = 0
        while True:
            with self._cond:
                picked = self._pick()
                if picked is None:
                    break
                queue, account = picked
                individual, future = queue.pending.popleft()
                account.vtime += 1.0 / account.tenant.weight
                account.in_flight += 1
                account.peak_in_flight = max(
                    account.peak_in_flight, account.in_flight
                )
                account.dispatched += 1
                queue.in_flight += 1
                self._sample_queue(queue)
                self._sample_tenant(account)
            # the backend call runs unlocked, like the polls in
            # _drain (where the inline backend evaluates): campaign
            # threads must be able to keep enqueueing meanwhile
            try:
                backend_future = self.backend.submit(individual)
            except BaseException as exc:  # noqa: BLE001 - engine's policy
                with self._cond:
                    account.in_flight -= 1
                    queue.in_flight -= 1
                    queue.completed += 1
                    self._sample_queue(queue)
                    self._sample_tenant(account)
                future._resolve(exception=exc)
                continue
            task = _InFlightTask(queue, account, future, backend_future)
            with self._cond:
                self._inflight.append(task)
                self._g_total_inflight.set(len(self._inflight))
            self._c_dispatched.inc()
            dispatched += 1
        return dispatched

    # ------------------------------------------------------------------
    # metrics (labeled per campaign / per tenant — satellite fix for
    # the process-global gauges clobbering each other)
    # ------------------------------------------------------------------
    def _sample_queue(self, queue: CampaignQueue) -> None:
        labels = {"campaign_id": queue.campaign_id}
        self._registry.gauge("service_queue_depth", labels=labels).set(
            len(queue.pending)
        )
        self._registry.gauge(
            "service_campaign_in_flight", labels=labels
        ).set(queue.in_flight)

    def _sample_tenant(self, account: _TenantAccount) -> None:
        self._registry.gauge(
            "service_tenant_in_flight",
            labels={"tenant": account.tenant.name},
        ).set(account.in_flight)

    # ------------------------------------------------------------------
    # dispatcher thread
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
                busy = self._inflight or any(
                    a.has_pending() for a in self._accounts.values()
                )
                if not busy:
                    # idle: sleep until an enqueue (or stop) wakes us
                    self._cond.wait(timeout=0.1)
            if busy:
                # work in flight: poll the backend at a gentle rate
                # instead of spinning through tick()
                self._stopping.wait(self.poll_interval)
        self.tick()  # final drain so stop() observes a settled state

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop dispatching; with ``drain`` (default), first wait for
        queued + in-flight work to finish."""
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
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._inflight or any(
                a.has_pending() for a in self._accounts.values()
            ):
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining if remaining else 0.1)
        return True

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Point-in-time scheduler state for the ``/status`` plane."""
        with self._cond:
            tenants = {
                name: {
                    **account.tenant.as_doc(),
                    "vtime": round(account.vtime, 6),
                    "in_flight": account.in_flight,
                    "peak_in_flight": account.peak_in_flight,
                    "dispatched": account.dispatched,
                    "campaigns": [q.campaign_id for q in account.queues],
                }
                for name, account in sorted(self._accounts.items())
            }
            queues = {
                q.campaign_id: {
                    "tenant": q.tenant.name,
                    "pending": len(q.pending),
                    "in_flight": q.in_flight,
                    "submitted": q.submitted,
                    "completed": q.completed,
                    "cache_hits": q.cache_hits,
                }
                for account in self._accounts.values()
                for q in account.queues
            }
            return {
                "total_slots": self.total_slots,
                "in_flight": len(self._inflight),
                "tenants": tenants,
                "queues": queues,
            }
