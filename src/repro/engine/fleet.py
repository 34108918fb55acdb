"""Elastic heterogeneous execution fleet.

The paper's campaigns are economical only on a large, *unreliable*
worker fleet (§2.2.5: 100 Summit nodes, spot-style churn).  This
module multiplexes heterogeneous member backends — a scalable
:class:`~repro.engine.pool.ProcessPoolBackend`, an inline reserve —
behind the engine's single ``ExecutionBackend`` protocol, adding the
three behaviours a churning fleet needs:

* **Preemption survival.**  A pool-side revocation requeues in-flight
  work to a surviving pool worker; when a member loses its *last*
  worker, the task surfaces here as
  :class:`~repro.exceptions.WorkerRevoked` and is rerouted to another
  member — same payload, same uuids, so journals stay bit-identical.
  Only when *no* member can take the work does the exception reach the
  engine and become ``MAXINT`` under the §2.2.4 policy.
* **Autoscaling.**  Sustained queue depth on an elastic member grows
  it (``scale_to``) toward ``max_workers``; sustained idleness shrinks
  it toward ``min_workers``.  A service ``--slots`` cap bounds growth.
* **Speculative re-execution.**  A task outliving the fleet's typical
  task duration (from :func:`repro.obs.report.straggler_summary` when
  tracing, else an internal ledger) is re-submitted to a second
  member; the first result wins, the loser is cancelled best-effort,
  and a late duplicate is counted and discarded — the engine resolves
  each future exactly once, so no uuid is ever journaled twice.

Everything runs on the driver thread: ``FleetFuture.done()`` drives
:meth:`ElasticBackend._pump` exactly like the pool's ``_drain``, so
the fleet adds no locking to the data plane.
"""

from __future__ import annotations

import math
import time
from typing import Any, Iterable, Optional, Sequence

from repro.engine.backends import InlineBackend, SlotFuture, as_backend
from repro.exceptions import WorkerRevoked
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import get_tracer


class _Member:
    """One fleet member: a backend plus routing bookkeeping."""

    __slots__ = ("backend", "name", "reserve", "inflight", "dispatched")

    def __init__(self, backend: Any, name: str, reserve: bool) -> None:
        self.backend = backend
        self.name = name
        #: reserve members (inline) take work only when no pooled
        #: member can — rescue and speculation, not steady-state load
        self.reserve = reserve
        self.inflight = 0
        self.dispatched = 0

    @property
    def elastic(self) -> bool:
        return callable(getattr(self.backend, "scale_to", None))

    def capacity(self) -> int:
        """Concurrent tasks this member can actually execute."""
        n = getattr(self.backend, "n_workers", None)
        return 1 if n is None else int(n)

    def queue_depth(self) -> int:
        depth = getattr(self.backend, "queue_depth", None)
        return int(depth()) if callable(depth) else 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": type(self.backend).__name__,
            "workers": self.capacity(),
            "in_flight": self.inflight,
            "dispatched": self.dispatched,
            "queue_depth": self.queue_depth(),
            "reserve": self.reserve,
            "elastic": self.elastic,
        }


class FleetFuture:
    """The engine's view of one fleet task (``FutureLike``)."""

    __slots__ = ("_fleet", "task", "_result", "_exception", "_resolved")

    def __init__(self, fleet: "ElasticBackend", task: "_FleetTask") -> None:
        self._fleet = fleet
        self.task = task
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._resolved = False

    def _resolve(
        self,
        result: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self._result = result
        self._exception = exception
        self._resolved = True

    def done(self) -> bool:
        if not self._resolved:
            self._fleet._pump()
        return self._resolved

    def result(self, timeout: Optional[float] = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._resolved:
            self._fleet._pump()
            if self._resolved:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"fleet task {self.task.task_id} unresolved "
                    f"after {timeout}s"
                )
            time.sleep(0.001)
        if self._exception is not None:
            raise self._exception
        return self._result

    def cancel(self) -> None:
        self._fleet._cancel(self.task)


class _FleetTask:
    """One unit of fleet work: a chunk (a scalar submit is a chunk of
    one)."""

    __slots__ = (
        "task_id",
        "individuals",
        "member",
        "future",
        "spec_member",
        "spec_future",
        "fleet_future",
        "submitted_at",
        "attempts",
    )

    def __init__(self, task_id: int, individuals: list[Any]) -> None:
        self.task_id = task_id
        self.individuals = individuals
        self.member: Optional[_Member] = None
        self.future: Any = None
        self.spec_member: Optional[_Member] = None
        self.spec_future: Any = None
        self.fleet_future: Optional[FleetFuture] = None
        self.submitted_at = 0.0
        self.attempts = 0

    @property
    def key(self) -> str:
        return f"fleet-task-{self.task_id}"


class ElasticBackend:
    """Multiplex heterogeneous member backends as one elastic fleet.

    Parameters
    ----------
    members:
        Backends to federate; coerced through
        :func:`~repro.engine.backends.as_backend`.  Inline backends
        become *reserve* members — rescue and speculation
        capacity — unless they are the only member.
    min_workers / max_workers:
        Autoscale bounds for elastic members (those exposing
        ``scale_to``); default to each member's initial size.
    slots_cap:
        The service ``--slots`` fleet-wide concurrency cap; growth
        never exceeds it (see :meth:`capacity`).
    speculate:
        Enable speculative re-execution of stragglers.
    straggler_factor / min_speculate_s / min_history:
        A task is a straggler once it outlives ``straggler_factor ×``
        the mean completed-task duration (never sooner than
        ``min_speculate_s``); speculation waits for ``min_history``
        completions before trusting the estimate.
    autoscale_interval:
        Seconds between autoscale observations inside the pump;
        ``None`` disables automatic ticking (tests call
        :meth:`autoscale_tick` by hand).
    sustain_ticks:
        Consecutive pressure (or idle) observations required before
        scaling — one transient spike never rescales the fleet.
    """

    is_execution_backend = True

    def __init__(
        self,
        members: Iterable[Any],
        *,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        slots_cap: Optional[int] = None,
        speculate: bool = False,
        straggler_factor: float = 3.0,
        min_speculate_s: float = 0.05,
        min_history: int = 3,
        autoscale_interval: Optional[float] = 0.25,
        sustain_ticks: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Any = None,
        owns_members: bool = False,
    ) -> None:
        coerced = [as_backend(m) for m in members]
        if not coerced:
            raise ValueError("a fleet needs at least one member backend")
        self.members: list[_Member] = []
        for i, backend in enumerate(coerced):
            reserve = isinstance(backend, InlineBackend) and len(coerced) > 1
            self.members.append(
                _Member(backend, f"member-{i}", reserve=reserve)
            )
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.slots_cap = None if slots_cap is None else int(slots_cap)
        self.speculate = bool(speculate)
        self.straggler_factor = float(straggler_factor)
        self.min_speculate_s = float(min_speculate_s)
        self.min_history = int(min_history)
        self.autoscale_interval = autoscale_interval
        self.sustain_ticks = max(1, int(sustain_ticks))
        self.tracer = tracer if tracer is not None else get_tracer()
        self._owns_members = bool(owns_members)
        registry = metrics if metrics is not None else get_registry()
        self._c_requeued = registry.counter("fleet_requeued_total")
        self._c_spec = registry.counter("fleet_speculations_total")
        self._c_spec_wins = registry.counter("fleet_speculative_wins_total")
        self._c_duplicates = registry.counter(
            "fleet_duplicate_results_total"
        )
        self._c_scale_up = registry.counter("fleet_scale_up_total")
        self._c_scale_down = registry.counter("fleet_scale_down_total")
        self._g_workers = registry.gauge("fleet_workers")
        self._g_members = registry.gauge("fleet_members")
        self._g_members.set(len(self.members))
        self._g_workers.set(self.capacity())
        self._tasks: list[_FleetTask] = []
        #: loser futures still running after their task resolved — kept
        #: so a late duplicate result is observed (and counted) rather
        #: than silently leaked
        self._lingering: list[Any] = []
        self._durations: list[float] = []
        self._next_task_id = 0
        self._pressure = 0
        self._idle = 0
        self._last_autoscale = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------
    # capacity & routing
    # ------------------------------------------------------------------
    def capacity(self) -> int:
        """Concurrent evaluations the fleet can execute right now
        (reserve members excluded — they are rescue capacity)."""
        active = [m for m in self.members if not m.reserve]
        pool = active if active else self.members
        return sum(m.capacity() for m in pool)

    @property
    def n_workers(self) -> int:
        """Alias so :func:`repro.service.fair_share.worker_capacity`
        (and anything else probing pool-shaped backends) sees the
        fleet's live size."""
        return max(1, self.capacity())

    def _route(
        self, exclude: Sequence[_Member] = ()
    ) -> Optional[_Member]:
        """Least-loaded member with live capacity; reserve members only
        when no pooled member qualifies."""
        for pool in (
            [
                m
                for m in self.members
                if not m.reserve and m not in exclude and m.capacity() > 0
            ],
            [m for m in self.members if m.reserve and m not in exclude],
        ):
            if pool:
                return min(
                    pool,
                    key=lambda m: (
                        m.inflight / max(1, m.capacity()),
                        m.inflight,
                        m.name,
                    ),
                )
        return None

    # ------------------------------------------------------------------
    # ExecutionBackend protocol
    # ------------------------------------------------------------------
    def submit(self, individual: Any) -> SlotFuture:
        return SlotFuture(self.submit_batch([individual]))

    def submit_batch(self, individuals: Iterable[Any]) -> FleetFuture:
        if self._closed:
            raise RuntimeError("ElasticBackend is closed")
        task = _FleetTask(self._next_task_id, list(individuals))
        self._next_task_id += 1
        future = FleetFuture(self, task)
        task.fleet_future = future
        member = self._route()
        if member is None:
            future._resolve(
                exception=WorkerRevoked("fleet", "no member remains")
            )
            return future
        self._dispatch(task, member)
        self._tasks.append(task)
        return future

    def batch_chunk_hint(self, n: int) -> int:
        return max(1, math.ceil(n / max(1, self.capacity())))

    def on_cache_hit(self, individual: Any) -> None:
        member = self._route()
        if member is not None:
            member.backend.on_cache_hit(individual)

    def _dispatch(self, task: _FleetTask, member: _Member) -> None:
        task.member = member
        task.future = member.backend.submit_batch(task.individuals)
        task.submitted_at = time.monotonic()
        member.inflight += 1
        member.dispatched += 1

    # ------------------------------------------------------------------
    # the pump (driver thread only, like the pool's _drain)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        still: list[_FleetTask] = []
        for task in self._tasks:
            if not self._advance(task):
                still.append(task)
        self._tasks = still
        self._reap_lingering()
        if (
            self.autoscale_interval is not None
            and time.monotonic() - self._last_autoscale
            >= self.autoscale_interval
        ):
            self.autoscale_tick()

    def _advance(self, task: _FleetTask) -> bool:
        """Advance one task; True once its fleet future resolved."""
        if task.fleet_future._resolved:
            return True
        # primary side
        if task.future is not None and task.future.done():
            try:
                result = task.future.result(timeout=0)
            except WorkerRevoked:
                task.member.inflight -= 1
                if not self._requeue(task):
                    return True
            except BaseException as exc:  # noqa: BLE001 - engine's policy
                self._settle(task, "primary", exception=exc)
                return True
            else:
                self._settle(task, "primary", result=result)
                return True
        # speculative side
        if task.spec_future is not None and task.spec_future.done():
            try:
                result = task.spec_future.result(timeout=0)
            except BaseException:  # noqa: BLE001 - spec is best-effort
                # a failed speculation never outranks the primary
                task.spec_member.inflight -= 1
                task.spec_member = None
                task.spec_future = None
            else:
                self._settle(task, "spec", result=result)
                return True
        self._maybe_speculate(task)
        return False

    def _requeue(self, task: _FleetTask) -> bool:
        """Reroute a revoked task to another member; False when no
        member can take it (the fleet future then fails → MAXINT)."""
        member = self._route(exclude=(task.member,))
        if member is None:
            self._settle(
                task,
                "primary",
                exception=WorkerRevoked(
                    task.member.name if task.member else "fleet",
                    "no member remains to re-execute revoked task",
                ),
                already_off_books=True,
            )
            return False
        task.attempts += 1
        self._c_requeued.inc()
        if getattr(self.tracer, "enabled", False):
            self.tracer.event(
                "fleet.requeued",
                task=task.key,
                from_member=task.member.name if task.member else None,
                to_member=member.name,
                attempt=task.attempts,
            )
        self._dispatch(task, member)
        self._publish()
        return True

    def _maybe_speculate(self, task: _FleetTask) -> None:
        if (
            not self.speculate
            or task.spec_future is not None
            or task.future is None
        ):
            return
        threshold = self.speculation_threshold()
        if threshold is None:
            return
        if time.monotonic() - task.submitted_at < threshold:
            return
        member = self._route(exclude=(task.member,))
        if member is None:
            return
        task.spec_member = member
        member.inflight += 1
        member.dispatched += 1
        self._c_spec.inc()
        if getattr(self.tracer, "enabled", False):
            self.tracer.event(
                "fleet.speculate",
                task=task.key,
                member=member.name,
                threshold=round(threshold, 6),
            )
        task.spec_future = member.backend.submit_batch(task.individuals)

    def speculation_threshold(self) -> Optional[float]:
        """Seconds after which an in-flight task counts as a straggler,
        or ``None`` while there is too little history to judge.

        Prefers the live :func:`~repro.obs.report.straggler_summary`
        over the tracer's records (the telemetry the monitor already
        shows); falls back to the fleet's own completed-duration
        ledger on untraced runs.
        """
        mean: Optional[float] = None
        records = getattr(self.tracer, "records", None)
        if records:
            try:
                from repro.obs.report import straggler_summary

                summary = straggler_summary(records, top=1)
                if int(summary.get("n_tasks", 0)) >= self.min_history:
                    mean = float(summary["mean_task_s"])
            except Exception:  # noqa: BLE001 - telemetry is best-effort
                mean = None
        if mean is None:
            if len(self._durations) < self.min_history:
                return None
            mean = sum(self._durations) / len(self._durations)
        return max(self.min_speculate_s, self.straggler_factor * mean)

    def _settle(
        self,
        task: _FleetTask,
        winner: str,
        result: Any = None,
        exception: Optional[BaseException] = None,
        already_off_books: bool = False,
    ) -> None:
        """First result wins: resolve the fleet future, cancel the
        loser, and keep the loser's future observable so a late
        duplicate is counted and discarded."""
        if winner == "spec":
            win_member, lose_member = task.spec_member, task.member
            lose_future = task.future
            self._c_spec_wins.inc()
            if getattr(self.tracer, "enabled", False):
                self.tracer.event(
                    "fleet.speculative_win",
                    task=task.key,
                    member=win_member.name if win_member else None,
                )
        else:
            win_member, lose_member = task.member, task.spec_member
            lose_future = task.spec_future
        if win_member is not None and not already_off_books:
            win_member.inflight -= 1
        if exception is None:
            self._durations.append(
                max(0.0, time.monotonic() - task.submitted_at)
            )
            if len(self._durations) > 256:
                del self._durations[:-256]
        if lose_future is not None:
            cancel = getattr(lose_future, "cancel", None)
            if cancel is not None:
                cancel()
            # the loser's slot frees now (its member may still be
            # burning a worker briefly, but a cancelled task must not
            # count against routing forever — nothing pumps once the
            # last fleet future resolves)
            if lose_member is not None:
                lose_member.inflight -= 1
            self._lingering.append(lose_future)
        task.fleet_future._resolve(result=result, exception=exception)
        self._publish()

    def _reap_lingering(self) -> None:
        still: list[Any] = []
        for future in self._lingering:
            if not future.done():
                still.append(future)
                continue
            try:
                future.result(timeout=0)
            except BaseException:  # noqa: BLE001 - cancelled loser
                pass
            else:
                # the loser actually finished: a duplicate result,
                # discarded here — it never reaches the engine, so the
                # journal sees each uuid exactly once
                self._c_duplicates.inc()
        self._lingering = still

    def _cancel(self, task: _FleetTask) -> None:
        for future in (task.future, task.spec_future):
            cancel = getattr(future, "cancel", None)
            if cancel is not None:
                cancel()

    # ------------------------------------------------------------------
    # autoscaling
    # ------------------------------------------------------------------
    def autoscale_tick(self) -> None:
        """One autoscale observation (rate-limited inside the pump;
        callable directly for deterministic tests).

        Sustained queue depth on an elastic member scales it up toward
        the effective maximum (``max_workers`` ∧ ``slots_cap``);
        sustained idleness scales it down one worker at a time toward
        ``min_workers``.
        """
        self._last_autoscale = time.monotonic()
        elastic = [m for m in self.members if m.elastic]
        if not elastic:
            return
        depth = sum(m.queue_depth() for m in elastic)
        busy = sum(m.inflight for m in self.members)
        if depth > 0:
            self._pressure += 1
            self._idle = 0
        elif busy == 0:
            self._idle += 1
            self._pressure = 0
        else:
            self._pressure = 0
            self._idle = 0
        if self._pressure >= self.sustain_ticks:
            self._pressure = 0
            for member in elastic:
                current = member.capacity()
                target = min(
                    self._effective_max(member),
                    current + max(1, member.queue_depth()),
                )
                if target > current:
                    member.backend.scale_to(target)
                    self._c_scale_up.inc()
                    self.tracer.event(
                        "fleet.scale_up",
                        member=member.name,
                        workers=member.capacity(),
                    )
            self._publish()
        elif self._idle >= self.sustain_ticks:
            self._idle = 0
            for member in elastic:
                current = member.capacity()
                floor = self._effective_min(member)
                if current > floor:
                    member.backend.scale_to(current - 1)
                    self._c_scale_down.inc()
                    self.tracer.event(
                        "fleet.scale_down",
                        member=member.name,
                        workers=member.capacity(),
                    )
            self._publish()
        self._g_workers.set(self.capacity())

    def _effective_max(self, member: _Member) -> int:
        cap = (
            member.capacity()
            if self.max_workers is None
            else int(self.max_workers)
        )
        if self.slots_cap is not None:
            # the service slot cap bounds the whole fleet; give this
            # member what the others are not already using
            others = sum(
                m.capacity()
                for m in self.members
                if m is not member and not m.reserve
            )
            cap = min(cap, max(1, self.slots_cap - others))
        return max(1, cap)

    def _effective_min(self, member: _Member) -> int:
        if self.min_workers is None:
            return 1
        return max(1, int(self.min_workers))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def fleet_snapshot(self) -> dict[str, Any]:
        """Strict-JSON fleet state for ``/status`` and the monitor."""
        return {
            "workers": self.capacity(),
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "slots_cap": self.slots_cap,
            "speculate": self.speculate,
            "in_flight": sum(m.inflight for m in self.members),
            "queue_depth": sum(m.queue_depth() for m in self.members),
            "requeued": int(self._c_requeued.value),
            "speculations": int(self._c_spec.value),
            "speculative_wins": int(self._c_spec_wins.value),
            "duplicates_discarded": int(self._c_duplicates.value),
            "scale_ups": int(self._c_scale_up.value),
            "scale_downs": int(self._c_scale_down.value),
            "members": [m.snapshot() for m in self.members],
        }

    def _publish(self) -> None:
        from repro.obs.live import get_status

        status = get_status()
        if status.enabled:
            status.fleet_update(**self.fleet_snapshot())
        self._g_workers.set(self.capacity())

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Fail anything unresolved; close members only when owned."""
        if self._closed:
            return
        self._closed = True
        for task in self._tasks:
            if not task.fleet_future._resolved:
                self._cancel(task)
                task.fleet_future._resolve(
                    exception=WorkerRevoked("fleet", "fleet closed")
                )
        self._tasks.clear()
        self._lingering.clear()
        if self._owns_members:
            for member in self.members:
                close = getattr(member.backend, "close", None)
                if close is not None:
                    try:
                        close()
                    except Exception:  # noqa: BLE001 - best effort
                        pass

    def __enter__(self) -> "ElasticBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
