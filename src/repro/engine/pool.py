"""Process-parallel execution backend.

The paper evaluates one generation as 100 concurrent trainings on 100
Summit nodes (§2.2.5); the :class:`~repro.engine.backends.InlineBackend`
evaluates them one after another in the driver's process.  This module
is the in-between that makes a single-machine campaign scale with
cores: a :class:`ProcessPoolBackend` implementing the same
``ExecutionBackend`` protocol on top of a ``multiprocessing`` worker
pool.

Design constraints, in order:

* **Forked from a warm server, isolated like spawn.**  Workers are
  started with the ``forkserver`` method where the platform has it
  (``spawn`` elsewhere): a server process, started once per process and
  preloaded with :data:`WORKER_PRELOAD`, forks each worker, so a start
  or a respawn costs a fork instead of a fresh interpreter importing
  NumPy and ``repro``.  Neither method copies the parent's memory or
  threads, so everything a task needs crosses the process boundary by
  pickling — in one wire format: the shared ``(problem, decoder,
  class)`` segment once per worker, then ``(segment, genome, uuid)``
  items per chunk (a scalar submit is a chunk of one).  Problems carry
  locks and caches; the ones shipped with this package implement
  ``__getstate__`` so they pickle cleanly.
* **A dead worker's task is re-run elsewhere, a few times.**  The
  paper let Dask reassign the task of a worker that died (§2.2.5).  A
  worker that dies mid-task (OOM, segfault, injected chaos) is replaced
  by a fresh process, and the task it held goes back to the front of
  the queue, like a revoked worker's.  A task that has lost
  :data:`DEATH_RETRIES` runs already fails instead, with a
  :class:`~repro.exceptions.WorkerFailure` naming its attempts, which
  the engine's §2.2.4 policy turns into a ``MAXINT`` fitness.  An
  exception raised *inside* a worker is the evaluation's own outcome
  and is not retried: bad hyperparameters fail on any node.
* **Per-task deadline.**  The engine's soft timeout cannot stop a
  worker that is stuck inside an evaluation; ``deadline`` is the hard
  backend-side limit — an overrunning worker is killed, its task fails
  with :class:`~repro.exceptions.TrainingTimeoutError`, and a
  replacement worker is spawned (the paper's 2-hour cap, enforced with
  SIGKILL).
* **Chaos passthrough.**  The pool consults the process-wide
  :mod:`repro.injection` injector once per submission
  (``submit_delay``) and at dispatch time with ``(worker_name,
  task_index)`` semantics: ``worker_delay`` makes the worker sleep
  before evaluating (slow worker) and ``should_fail`` makes it die
  mid-evaluation (node failure) — both deterministic for scripted
  plans.
* **No shared locks with workers.**  Each worker owns a private duplex
  pipe; a SIGKILL'd worker can never strand a lock another worker (or
  the parent) needs.
* **The fleet is a policy, not a layer.**  ``--backend fleet`` is this
  pool with its fleet policy on (``max_workers`` / ``speculate``,
  DESIGN.md §9): autoscale against queue depth, a
  speculative copy of a straggling chunk on an idle worker, and the
  backlog run in-process once revocation has taken the last worker.

The parent side is single-threaded: all bookkeeping happens inside
:meth:`ProcessPoolBackend._drain`, which the engine's poll loop drives
through ``future.done()``.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import weakref
import zlib
from collections import deque
from typing import Any, Iterable, Optional

from repro.engine.backends import SlotFuture, evaluate_individuals_batch
from repro.exceptions import (
    EvaluationError,
    TrainingTimeoutError,
    WorkerFailure,
    WorkerRevoked,
)
from repro.injection import FaultInjector, get_injector
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import get_tracer

#: how long close() waits for a worker to exit gracefully
_JOIN_TIMEOUT = 5.0

#: runs a task may lose to dead or revoked workers and still be re-run
#: (Dask's ``allowed-failures``); a death past it is the task's failure
DEATH_RETRIES = 2

#: the fleet policy's tuning (DESIGN.md §9).  A chunk is a straggler
#: once it has run STRAGGLER_FACTOR × the pool's mean dispatch→reply
#: time over its last STRAGGLER_WINDOW replies (a worker's first reply
#: after its spawn, which pays the boot, is left out), never sooner
#: than MIN_SPECULATE_S, and only after MIN_HISTORY replies; autoscale
#: observes the queue every AUTOSCALE_INTERVAL seconds and rescales
#: after SUSTAIN_TICKS like observations in a row
STRAGGLER_FACTOR = 3.0
STRAGGLER_WINDOW = 256
MIN_SPECULATE_S = 0.05
MIN_HISTORY = 3
AUTOSCALE_INTERVAL = 0.25
SUSTAIN_TICKS = 2

#: what the forkserver imports before it forks a worker: NumPy and every
#: ``repro`` module a worker loads to serve this package's problems,
#: measured in a spawn-started worker after one real 20-atom evaluation
#: and one surrogate batch, each through the store's ``CachedProblem``
#: (DESIGN.md §8)
WORKER_PRELOAD = (
    "numpy",
    "repro.engine.pool",
    "repro.hpo.evaluator",
    "repro.hpo.landscape",
    "repro.store",
)


#: this process's exit hook that stops the forkserver (set once)
_server_stop: Any = None


def _preload_server(ctx: Any) -> None:
    """Name :data:`WORKER_PRELOAD` for the forkserver — process-wide,
    and read only when the server first starts — and stop the server
    when this process exits, so that it does not outlive the process.
    A negative priority runs the stop after multiprocessing has joined
    every child (a live worker would keep the server up) and before it
    removes the directory that holds the server's socket."""
    global _server_stop
    ctx.set_forkserver_preload(list(WORKER_PRELOAD))
    if _server_stop is None:
        from multiprocessing import forkserver, util

        _server_stop = util.Finalize(
            None, forkserver._forkserver._stop, exitpriority=-1
        )


def _shippable(exc: BaseException) -> BaseException:
    """``exc`` when the parent can rebuild it from its pickle, else an
    :class:`EvaluationError` carrying its repr — tested by round trip,
    so nothing a worker sends can raise out of the parent's
    ``conn.recv()``."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any failure means "ship the repr"
        return EvaluationError(f"{type(exc).__name__}: {exc}")


def _segment_collected(pool_ref: Any, ident: tuple[int, int, type]) -> None:
    """A segment's problem or decoder was collected: its pool, if it
    is still alive, forgets the segment."""
    pool = pool_ref()
    if pool is not None:
        pool._forget_segment(ident)


def _individuals(
    items: Iterable[tuple[str, Any, Any]], segments: dict[str, Any]
) -> list[Any]:
    """The individuals of one chunk's ``(segment key, genome, uuid)``
    items, rebuilt over their segments' ``(problem, decoder, class)``
    triples, uuids included."""
    individuals = []
    for key, genome, uuid in items:
        problem, decoder, cls = segments[key]
        ind = cls(genome, decoder=decoder, problem=problem)
        ind.uuid = uuid
        individuals.append(ind)
    return individuals


def _pool_worker_main(
    conn: Any, worker_name: str = "pool-?"
) -> None:  # pragma: no cover - subprocess
    """One worker: recv chunk → evaluate → send slots, until "stop".

    Runs with no injector installed — chaos decisions are made (and
    counted) once, in the parent, at dispatch time; a forked worker
    must not fire the plan a second time.

    When the parent's tracer is enabled, each chunk is recorded
    worker-side as a plain ``worker.task`` span dict (tagged with the
    worker and task key, like thread-worker spans) and shipped back
    with the result over the same duplex pipe; the parent merges it
    into its trace via :meth:`repro.obs.trace.Tracer.ingest`.
    ``time.monotonic()`` is CLOCK_MONOTONIC, shared across processes
    on one host, so worker span timestamps line up with the parent's.
    """
    from repro.injection import set_injector

    set_injector(None)
    #: shared segments: problem/decoder/class shipped once per worker,
    #: keyed by the parent's segment key — chunk payloads then carry
    #: only (segment key, genome, uuid) items
    segments: dict[str, tuple[Any, Any, Any]] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        if msg[0] == "segment":
            segments[msg[1]] = pickle.loads(msg[2])
            continue
        if msg[0] == "drop":
            segments.pop(msg[1], None)
            continue
        _, task_id, payload, delay, die, trace, attempt = msg
        if delay:
            time.sleep(delay)
        if die:
            # injected node failure: die mid-evaluation, before any
            # result (or partial state) escapes this process
            os._exit(1)
        ts = time.time()
        mono = time.monotonic()
        error: str | None = None
        n_items = 0
        try:
            individuals = _individuals(pickle.loads(payload), segments)
            n_items = len(individuals)
            slots = [
                _shippable(slot) if isinstance(slot, BaseException) else slot
                for slot in evaluate_individuals_batch(individuals)
            ]
            reply = ("batchdone", task_id, slots)
        except BaseException as exc:  # noqa: BLE001 - chunk-fatal
            error = type(exc).__name__
            reply = ("raised", task_id, _shippable(exc))
        records: list[dict[str, Any]] = []
        if trace:
            tags: dict[str, Any] = {
                "worker": worker_name,
                "task": f"pool-task-{task_id}",
                "pid": os.getpid(),
                "n": n_items,
            }
            if attempt:
                # re-execution after a lost run: the invariant
                # checker keys requeued-elsewhere off this tag
                tags["attempt"] = attempt
            if error is not None:
                tags["error"] = error
            records.append(
                {
                    "type": "span",
                    "name": "worker.task",
                    "id": 0,  # reassigned by Tracer.ingest
                    "parent": None,
                    "ts": ts,
                    "mono": mono,
                    "dur": time.monotonic() - mono,
                    "status": "err" if error is not None else "ok",
                    "thread": worker_name,
                    "tags": tags,
                }
            )
        try:
            conn.send(reply + (records,))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class ProcessFuture:
    """Future for one pooled chunk (the engine's ``FutureLike``): one
    outcome slot per submitted individual."""

    __slots__ = ("_backend", "task_id", "_result", "_exception", "_resolved")

    def __init__(self, backend: "ProcessPoolBackend", task_id: int) -> None:
        self._backend = backend
        self.task_id = task_id
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
            self._backend._drain()
        return self._resolved

    def result(self, timeout: Optional[float] = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._resolved:
            self._backend._drain()
            if self._resolved:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"pool task {self.task_id} unresolved after {timeout}s"
                )
            time.sleep(0.001)
        if self._exception is not None:
            raise self._exception
        return self._result

    def cancel(self) -> None:
        """Best-effort cancellation: an undispatched task is abandoned
        (removed from the queue); a dispatched one keeps running but
        its eventual result is discarded on receipt."""
        if not self._resolved:
            self._backend._cancel_task(self.task_id)


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = (
        "index",
        "name",
        "process",
        "conn",
        "busy_task",
        "dispatched_at",
        "tasks_dispatched",
        "respawns",
        "segments",
        "pending_revoke",
        "fresh",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.name = f"pool-{index}"
        self.process: Any = None
        self.conn: Any = None
        self.busy_task: Optional[int] = None
        self.dispatched_at = 0.0
        #: this worker's own task ordinal — the ``task_index`` the
        #: chaos injector's per-worker windows match against
        self.tasks_dispatched = 0
        #: how many successors were spawned under this name
        self.respawns = 0
        #: segment keys this worker process holds (a respawned
        #: successor starts empty and gets them re-shipped; a collected
        #: problem's key is dropped at the worker's next idle dispatch)
        self.segments: set[str] = set()
        #: the next death is a spot-style preemption: requeue the task
        #: and retire the worker instead of respawning it
        self.pending_revoke = False
        #: no reply since this process was spawned: the first one pays
        #: the boot and segment unpickling, and stays out of the
        #: straggler mean
        self.fresh = True


class _Fleet:
    """The fleet policy's bounds, switches and running state on one
    pool (applied inside :meth:`ProcessPoolBackend._drain`)."""

    def __init__(
        self,
        registry: MetricsRegistry,
        floor: int,
        ceiling: int,
        speculate: bool,
    ) -> None:
        self.floor = floor
        self.ceiling = ceiling
        self.speculate = speculate
        #: the last STRAGGLER_WINDOW dispatch→reply seconds of resolving
        #: replies: the straggler threshold's mean
        self.window: deque[float] = deque(maxlen=STRAGGLER_WINDOW)
        #: task id → the worker running its speculative copy, until the
        #: slower copy replies or dies (None once a failed copy's reply
        #: was dropped: the chunk is not copied again)
        self.copies: dict[int, Optional[str]] = {}
        #: consecutive autoscale observations with a backlog / idle
        self.pressure = 0
        self.idle = 0
        self.last_tick = time.monotonic()
        self.c_spec = registry.counter("fleet_speculations_total")
        self.c_wins = registry.counter("fleet_speculative_wins_total")
        self.c_dups = registry.counter("fleet_duplicate_results_total")
        self.c_up = registry.counter("fleet_scale_up_total")
        self.c_down = registry.counter("fleet_scale_down_total")


class ProcessPoolBackend:
    """Fan evaluations out over a pool of worker *processes*.

    Parameters
    ----------
    workers:
        Pool size (default: ``os.cpu_count()``, at least 2).  The
        paper's analogue is one Dask worker per Summit node.
    deadline:
        Hard per-task wall-clock limit in seconds; an overrunning
        worker is SIGKILLed and the task fails with
        :class:`TrainingTimeoutError` (→ ``MAXINT`` under the engine's
        failure policy).  ``None`` disables backend-side enforcement.
    start_method:
        ``"forkserver"`` (the default where the platform has it, with
        the server preloaded with :data:`WORKER_PRELOAD`), ``"spawn"``
        (the default elsewhere), or ``"fork"``.
    fault_injector:
        Chaos seam; defaults to the process-wide injector of
        :mod:`repro.injection`, so ``use_injector(plan.injector())``
        scopes drive pool faults.
    max_workers / speculate:
        The fleet policy (DESIGN.md §9), on when either is given:
        autoscale between ``workers`` and ``max_workers``; with
        ``speculate``, a copy of a straggling chunk on an idle worker,
        first reply wins; and the last resort: the backlog runs in
        this process once revocation has taken the last worker
        (without the policy, that backlog fails with
        :class:`WorkerRevoked`).
    """

    is_execution_backend = True

    def __init__(
        self,
        workers: Optional[int] = None,
        deadline: Optional[float] = None,
        start_method: Optional[str] = None,
        fault_injector: Optional[FaultInjector] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Any = None,
        max_workers: Optional[int] = None,
        speculate: bool = False,
    ) -> None:
        import multiprocessing as mp

        if workers is None:
            workers = max(2, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError("need at least one pool worker")
        self.deadline = deadline
        if start_method is None:
            start_method = (
                "forkserver"
                if "forkserver" in mp.get_all_start_methods()
                else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        if start_method == "forkserver":
            _preload_server(self._ctx)
        self._injector = (
            fault_injector if fault_injector is not None else get_injector()
        )
        self.tracer = tracer if tracer is not None else get_tracer()
        registry = metrics if metrics is not None else get_registry()
        self._registry = registry
        self._c_dispatched = registry.counter("pool_tasks_dispatched_total")
        self._c_deaths = registry.counter("pool_worker_deaths_total")
        self._c_respawns = registry.counter("pool_worker_respawns_total")
        self._c_deadline = registry.counter("pool_deadline_kills_total")
        self._c_cache = registry.counter("pool_cache_hits_total")
        self._c_revoked = registry.counter("pool_workers_revoked_total")
        self._c_requeued = registry.counter("pool_tasks_requeued_total")
        self._g_workers = registry.gauge("pool_workers")
        self._g_workers.set(int(workers))
        #: sampled on every submit/dispatch/drain transition
        self._g_queue = registry.gauge("pool_queue_depth")
        self._g_busy = registry.gauge("pool_busy_workers")
        #: FIFO of task ids; the spec lives in :attr:`_tasks` so a
        #: revoked task can be requeued verbatim (same payload, same
        #: uuids) with only its attempt counter bumped
        self._queue: list[int] = []
        #: task_id → [payload, {segment key: (problem, decoder,
        #: class)}, attempt]; kept until the task's future resolves (or
        #: is cancelled), so in-flight work survives the worker that
        #: held it — and so do its segments, which a requeue re-ships
        #: and the last resort rebuilds individuals over
        self._tasks: dict[int, list[Any]] = {}
        #: segment registry: identity of (problem, decoder, class) →
        #: (key, strongly held objects, finalizers).  It holds a problem
        #: only while its caller does: when the problem or the decoder
        #: is collected — after which its ``id`` could be recycled for a
        #: different one — the entry and the payload go, and every
        #: worker drops the segment.  An object that cannot be weakly
        #: referenced is held for the pool's life instead.
        self._segments: dict[
            tuple[int, int, type], tuple[str, tuple[Any, ...], list[Any]]
        ] = {}
        #: key → pickled payload, for dispatch-time (re-)shipping
        self._segment_payloads: dict[str, bytes] = {}
        self._next_segment = 0
        self._futures: dict[int, ProcessFuture] = {}
        self._next_task_id = 0
        self._closed = False
        self._workers = [_WorkerHandle(i) for i in range(int(workers))]
        #: worker indices are never reused — a revoked worker's name
        #: must stay dead so requeued-elsewhere is checkable from the
        #: trace alone
        self._next_worker_index = int(workers)
        #: the fleet policy, or None: a plain pool pays one attribute
        #: test per drain for it
        self._fleet: Optional[_Fleet] = None
        for handle in self._workers:
            self._spawn(handle)
            self._publish_worker(handle, "idle")
        self._sample_gauges()
        if max_workers is not None or speculate:
            self._fleet = _Fleet(
                registry, int(workers), int(max_workers or workers), speculate
            )

    @property
    def n_workers(self) -> int:
        """Current pool size — dynamic under scaling and revocation."""
        return len(self._workers)

    # ------------------------------------------------------------------
    # live-plane helpers
    # ------------------------------------------------------------------
    def _sample_gauges(self) -> None:
        """Refresh the queue-depth / busy-workers gauges (called on
        every submit/dispatch/drain transition)."""
        self._g_queue.set(len(self._queue))
        self._g_busy.set(
            sum(1 for h in self._workers if h.busy_task is not None)
        )

    def _publish_worker(
        self,
        handle: _WorkerHandle,
        state: str,
        task: Optional[int] = None,
    ) -> None:
        """Per-worker liveness for the ``/status`` endpoint (no-op
        unless a live :class:`~repro.obs.live.CampaignStatus` is
        installed)."""
        from repro.obs.live import get_status

        status = get_status()
        if status.enabled:
            status.worker_update(
                handle.name,
                state=state,
                task=None if task is None else f"pool-task-{task}",
                tasks_dispatched=handle.tasks_dispatched,
                respawns=handle.respawns,
                pid=getattr(handle.process, "pid", None),
            )

    def fleet_snapshot(self) -> dict[str, Any]:
        """Strict-JSON fleet-policy state for ``/status`` and the
        monitor; empty when the policy is off."""
        fleet = self._fleet
        if fleet is None:
            return {}
        return {
            "workers": self.n_workers,
            "min_workers": fleet.floor,
            "max_workers": fleet.ceiling,
            "speculate": fleet.speculate,
            "in_flight": len(self._futures),
            "queue_depth": len(self._queue),
            "requeued": int(self._c_requeued.value),
            "speculations": int(fleet.c_spec.value),
            "speculative_wins": int(fleet.c_wins.value),
            "duplicates_discarded": int(fleet.c_dups.value),
            "scale_ups": int(fleet.c_up.value),
            "scale_downs": int(fleet.c_down.value),
        }

    # ------------------------------------------------------------------
    # ExecutionBackend protocol
    # ------------------------------------------------------------------
    def submit(self, individual: Any) -> SlotFuture:
        return SlotFuture(self.submit_batch([individual]))

    def batch_chunk_hint(self, n: int) -> int:
        """Spread a batch of ``n`` evaluations across the whole pool:
        ``ceil(n / workers)`` per chunk keeps every worker busy while a
        worker crash can only take down one chunk's worth."""
        return max(1, math.ceil(n / max(1, self.n_workers)))

    def _segment_key(self, individual: Any) -> str:
        """Register (once) the individual's shared ``(problem, decoder,
        class)`` triple and return its segment key."""
        problem = individual.problem
        decoder = individual.decoder
        cls = type(individual)
        ident = (id(problem), id(decoder), cls)
        entry = self._segments.get(ident)
        if entry is None:
            try:
                payload = pickle.dumps(
                    (problem, decoder, cls),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception as exc:
                raise TypeError(
                    "problem and decoder must pickle to cross the "
                    f"process boundary: {exc}"
                ) from exc
            # a human-readable tag from the problem's cache fingerprint
            # (when it has one) makes segment traffic debuggable
            tag = "anon"
            fingerprint = getattr(problem, "cache_fingerprint", None)
            if callable(fingerprint):
                try:
                    import json

                    tag = format(
                        zlib.crc32(
                            json.dumps(
                                fingerprint(), sort_keys=True, default=str
                            ).encode()
                        ),
                        "08x",
                    )
                except Exception:
                    tag = "anon"
            key = f"seg{self._next_segment}-{tag}"
            self._next_segment += 1
            held: list[Any] = []
            finalizers: list[Any] = []
            for obj in (problem, decoder):
                try:
                    finalizer = weakref.finalize(
                        obj, _segment_collected, weakref.ref(self), ident
                    )
                except TypeError:  # not weakly referenceable
                    held.append(obj)
                    continue
                finalizer.atexit = False
                finalizers.append(finalizer)
            entry = (key, tuple(held), finalizers)
            self._segments[ident] = entry
            self._segment_payloads[key] = payload
        return entry[0]

    def _forget_segment(self, ident: tuple[int, int, type]) -> None:
        """Drop one segment from the registry; workers drop it at their
        next idle dispatch (:meth:`_dispatch_idle`).  Called from a
        finalizer, so possibly on any thread: it only pops (the
        segments of a queued or running task cannot be collected)."""
        entry = self._segments.pop(ident, None)
        if entry is not None:
            for finalizer in entry[2]:
                finalizer.detach()
            self._segment_payloads.pop(entry[0], None)

    def submit_batch(self, individuals: Iterable[Any]) -> ProcessFuture:
        """Submit one chunk of individuals as a single pool task.

        Each individual's ``(problem, decoder, class)`` triple is
        shipped **once per worker** as a shared segment (re-shipped
        automatically to respawned successors) and the task payload
        carries only ``(segment key, genome, uuid)`` items.  The future
        resolves to a list of per-slot outcomes — ``(fitness,
        metadata)`` tuples or exception instances — in submission
        order; a chunk whose worker dies is re-run, and only past
        :data:`DEATH_RETRIES` lost runs does ``result()`` raise
        :class:`WorkerFailure`, failing only this chunk.
        """
        if self._closed:
            raise RuntimeError("ProcessPoolBackend is closed")
        items = []
        segments: dict[str, tuple[Any, Any, type]] = {}
        for ind in individuals:
            key = self._segment_key(ind)
            segments.setdefault(key, (ind.problem, ind.decoder, type(ind)))
            items.append((key, ind.genome, ind.uuid))
        payload = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        task_id = self._next_task_id
        self._next_task_id += 1
        if self._injector is not None:
            # chaos: a stalled submission (slow scheduler / network)
            delay = self._injector.submit_delay(f"pool-task-{task_id}")
            if delay > 0.0:
                self.tracer.event(
                    "task.submit_delayed",
                    task=f"pool-task-{task_id}",
                    seconds=delay,
                )
                time.sleep(delay)
        if getattr(self.tracer, "enabled", False):
            # the submit instant the report joins worker spans against
            # (queue wait = span start - this event)
            self.tracer.event(
                "task.submit",
                task=f"pool-task-{task_id}",
                n=len(items),
            )
        future = ProcessFuture(self, task_id)
        self._futures[task_id] = future
        self._tasks[task_id] = [payload, segments, 0]
        if not (self._workers or self._fleet):
            # every worker was revoked away and no last resort will run
            # the queue: fail fast (→ MAXINT via the engine's policy)
            self._fail_task(
                task_id, WorkerRevoked("pool", "no surviving worker")
            )
            return future
        self._queue.append(task_id)
        self._dispatch_idle()
        self._sample_gauges()
        return future

    def on_cache_hit(self, individual: Any) -> None:
        self._c_cache.inc()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, handle.name),
            name=f"repro-{handle.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker owns the other end now
        handle.process = process
        handle.conn = parent_conn
        handle.busy_task = None
        handle.pending_revoke = False
        handle.fresh = True
        handle.segments.clear()  # a fresh process holds no segments

    def _fail_task(self, task_id: int, exc: BaseException) -> None:
        self._tasks.pop(task_id, None)
        future = self._futures.pop(task_id, None)
        if future is not None:
            if getattr(self.tracer, "enabled", False):
                self.tracer.event(
                    "task.err",
                    task=f"pool-task-{task_id}",
                    error=type(exc).__name__,
                )
            future._resolve(exception=exc)

    def _cancel_task(self, task_id: int) -> None:
        """Abandon one task (speculation loser / engine timeout): an
        undispatched task leaves the queue; a dispatched one runs to
        completion but its result is discarded on receipt (the future
        is already gone from :attr:`_futures`)."""
        future = self._futures.pop(task_id, None)
        if future is None:
            return
        self._tasks.pop(task_id, None)
        if task_id in self._queue:
            self._queue.remove(task_id)
        if getattr(self.tracer, "enabled", False):
            self.tracer.event(
                "task.abandoned", task=f"pool-task-{task_id}"
            )
        future._resolve(
            exception=WorkerFailure("pool", "task cancelled")
        )
        self._sample_gauges()

    def _replace(self, handle: _WorkerHandle) -> None:
        """Bury one worker (dead or killed) and spawn its successor
        under the same name — per-worker task ordinals keep counting."""
        try:
            handle.conn.close()
        except Exception:  # noqa: BLE001 - already broken
            pass
        if handle.process.is_alive():  # deadline kill
            handle.process.kill()
        handle.process.join(_JOIN_TIMEOUT)
        self._c_deaths.inc()
        self._spawn(handle)
        handle.respawns += 1
        self._c_respawns.inc()
        self.tracer.event(
            "pool.worker_respawn",
            worker=handle.name,
            respawns=handle.respawns,
        )
        self._publish_worker(handle, "idle")

    def _requeue(
        self, task_id: int, handle: _WorkerHandle, ran: bool
    ) -> None:
        """Put a task its worker lost back at the front of the queue —
        it is the oldest work outstanding and must not starve — with the
        same payload and uuids.  ``ran`` says the worker took the task
        before it went (a death or revocation mid-task), which counts
        one attempt; a worker found dead before dispatch never ran it.
        The event names the lost process, so the invariant checker can
        tell a re-run elsewhere from one in the process that died."""
        spec = self._tasks[task_id]
        if ran:
            spec[2] += 1
        self._c_requeued.inc()
        self.tracer.event(
            "task.requeued",
            task=f"pool-task-{task_id}",
            from_worker=handle.name,
            from_pid=handle.process.pid,
            attempt=spec[2],
        )
        self._queue.insert(0, task_id)

    def _running(self, task_id: int) -> bool:
        """Whether a worker still runs ``task_id``: a speculated chunk's
        other copy, when one is lost."""
        return any(h.busy_task == task_id for h in self._workers)

    def _bury_revoked(self, handle: _WorkerHandle) -> None:
        """Spot preemption landed: requeue the in-flight task (same
        payload, same uuids, attempt+1) unless its other copy still
        runs, and retire the worker — no respawn, capacity shrinks.
        When the last worker goes, the fleet policy's last resort runs
        queued and in-flight work in this process; without it that
        work fails with :class:`WorkerRevoked` (→ MAXINT under the
        engine's policy)."""
        task_id = handle.busy_task
        handle.busy_task = None
        self._c_revoked.inc()
        self.tracer.event(
            "pool.worker_revoked",
            worker=handle.name,
            task=None if task_id is None else f"pool-task-{task_id}",
        )
        self._publish_worker(handle, "revoked", task=task_id)
        try:
            handle.conn.close()
        except Exception:  # noqa: BLE001 - already broken
            pass
        handle.process.join(_JOIN_TIMEOUT)
        self._workers.remove(handle)
        self._g_workers.set(self.n_workers)
        last_resort = self._fleet is not None
        if last_resort:
            self._fleet.copies.pop(task_id, None)
        if (
            task_id is not None
            and task_id in self._futures
            and not self._running(task_id)
        ):
            if self._workers or last_resort:
                self._requeue(task_id, handle, ran=True)
            else:
                self._fail_task(
                    task_id,
                    WorkerRevoked(
                        handle.name,
                        "revoked with no surviving pool worker",
                    ),
                )
        if not self._workers and last_resort:
            self.tracer.event(
                "fleet.last_resort",
                worker=handle.name,
                queued=len(self._queue),
            )
        elif not self._workers:
            # nothing left to run the backlog either
            for queued_id in list(self._queue):
                self._fail_task(
                    queued_id,
                    WorkerRevoked(
                        handle.name,
                        "revoked with no surviving pool worker",
                    ),
                )
            self._queue.clear()

    def revoke_worker(self, name: Optional[str] = None) -> Optional[str]:
        """Programmatic spot-style preemption (chaos plans fire the
        same path via the ``revoke_worker`` fault kind).

        Kills the named worker — by default the first busy one, else
        the first worker — and processes the revocation immediately:
        its in-flight task is requeued to a survivor, the worker is
        retired without replacement.  Returns the revoked worker's
        name, or ``None`` when the pool is empty.
        """
        if self._closed or not self._workers:
            return None
        handle = None
        if name is not None:
            handle = next(
                (h for h in self._workers if h.name == name), None
            )
        else:
            handle = next(
                (h for h in self._workers if h.busy_task is not None),
                self._workers[0],
            )
        if handle is None:
            return None
        handle.pending_revoke = True
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(_JOIN_TIMEOUT)
        self._drain()
        return handle.name

    # ------------------------------------------------------------------
    # elastic scaling
    # ------------------------------------------------------------------
    def scale_to(self, n: int) -> int:
        """Grow or shrink the pool toward ``n`` workers; returns the
        resulting size.

        Growth spawns fresh workers under never-reused indices (a
        revoked worker's name stays dead, keeping requeued-elsewhere
        checkable from the trace).  Shrinking retires **idle** workers
        only — a busy worker finishes its task first and a later call
        retires it — so scaling down never loses work.
        """
        if self._closed:
            raise RuntimeError("ProcessPoolBackend is closed")
        n = max(0, int(n))
        while len(self._workers) < n:
            handle = _WorkerHandle(self._next_worker_index)
            self._next_worker_index += 1
            self._spawn(handle)
            self._workers.append(handle)
            self.tracer.event("pool.scale_up", worker=handle.name)
            self._publish_worker(handle, "idle")
        if len(self._workers) > n:
            for handle in reversed(list(self._workers)):
                if len(self._workers) <= n:
                    break
                if handle.busy_task is not None:
                    continue
                self._retire(handle)
        self._g_workers.set(self.n_workers)
        self._dispatch_idle()
        self._sample_gauges()
        return self.n_workers

    def _retire(self, handle: _WorkerHandle) -> None:
        """Stop one idle worker gracefully (scale-down path)."""
        try:
            handle.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        handle.process.join(_JOIN_TIMEOUT)
        if handle.process.is_alive():  # pragma: no cover - stuck worker
            handle.process.kill()
            handle.process.join(_JOIN_TIMEOUT)
        try:
            handle.conn.close()
        except Exception:  # noqa: BLE001 - already broken
            pass
        self._workers.remove(handle)
        self.tracer.event("pool.scale_down", worker=handle.name)
        self._publish_worker(handle, "retired")

    def queue_depth(self) -> int:
        """Undispatched tasks (the autoscaler's pressure signal)."""
        return len(self._queue)

    def idle_workers(self) -> int:
        return sum(1 for h in self._workers if h.busy_task is None)

    def _dispatch_idle(self) -> None:
        """Hand queued tasks to idle workers, lowest index first (the
        deterministic order scripted chaos plans rely on), after telling
        each idle worker to drop the segments of collected problems."""
        for handle in self._workers:
            if handle.busy_task is not None:
                continue
            for key in handle.segments.difference(self._segment_payloads):
                handle.segments.discard(key)
                try:
                    handle.conn.send(("drop", key))
                except (BrokenPipeError, OSError):
                    pass  # a dead worker holds nothing; it is replaced
            if not self._queue:
                continue
            task_id = self._queue.pop(0)
            if not self._send(handle, task_id):
                # the worker died idle: the task never ran, so it goes
                # back unspent and the successor takes it on the next
                # drain
                self._requeue(task_id, handle, ran=False)
                self._replace(handle)

    def _send(self, handle: _WorkerHandle, task_id: int) -> bool:
        """Dispatch one task to one idle worker, shipping the segments
        it lacks first; False when the worker turns out dead.  The
        chaos injector is consulted here, per dispatch."""
        payload, segments, attempt = self._tasks[task_id]
        delay = 0.0
        die = False
        revoke = False
        if self._injector is not None:
            delay = self._injector.worker_delay(
                handle.name, handle.tasks_dispatched
            )
            die = self._injector.should_fail(
                handle.name, handle.tasks_dispatched
            )
            revoke = self._injector.should_revoke(
                handle.name, handle.tasks_dispatched
            )
        trace = bool(getattr(self.tracer, "enabled", False))
        if trace:
            task_key = f"pool-task-{task_id}"
            if delay > 0.0:
                # chaos firing: injected straggler, decided here
                self.tracer.event(
                    "worker.slow",
                    worker=handle.name,
                    task=task_key,
                    seconds=delay,
                )
            if die and not revoke:
                # chaos firing: this dispatch will kill the worker
                self.tracer.event(
                    "worker.fault",
                    worker=handle.name,
                    task=task_key,
                )
        handle.tasks_dispatched += 1
        self._c_dispatched.inc()
        if revoke:
            # spot preemption: the worker dies mid-task like a
            # plain death, but _drain requeues the task and retires
            # the worker instead of failing and respawning
            handle.pending_revoke = True
            die = True
        try:
            for key in segments:
                if key in handle.segments:
                    continue
                # ship the shared (problem, decoder, class) triple
                # once per worker process; the pipe is FIFO, so the
                # segment always lands before the task that needs it
                handle.conn.send(
                    ("segment", key, self._segment_payloads[key])
                )
                handle.segments.add(key)
            handle.conn.send(
                ("batch", task_id, payload, delay, die, trace, attempt)
            )
        except (BrokenPipeError, OSError):
            return False
        handle.busy_task = task_id
        handle.dispatched_at = time.monotonic()
        self._publish_worker(handle, "busy", task=task_id)
        return True

    def _drain(self) -> None:
        """Collect finished work, bury dead workers, enforce deadlines,
        and refill idle workers.  Called from the engine's poll loop via
        ``future.done()`` — always on the driver thread."""
        now = time.monotonic()
        for handle in list(self._workers):
            # 1. everything the worker managed to send, up to the end
            #    of its pipe, which a worker's exit closes
            hung_up = False
            while True:
                try:
                    if not handle.conn.poll():
                        break
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    hung_up = True
                    break
                kind, task_id = msg[0], msg[1]
                # last element is the worker-side trace record list;
                # merge it into the parent stream with fresh span ids
                records = msg[-1]
                if records and getattr(self.tracer, "enabled", False):
                    for rec in records:
                        self.tracer.ingest(rec)
                if handle.busy_task == task_id:
                    handle.busy_task = None
                    self._publish_worker(handle, "idle")
                fleet = self._fleet
                if fleet is not None:
                    fresh, handle.fresh = handle.fresh, False
                    if task_id not in self._futures:
                        if fleet.copies.pop(task_id, None) is not None:
                            fleet.c_dups.inc()  # a speculated chunk's loser
                    elif task_id in fleet.copies:
                        if not self._running(task_id):
                            del fleet.copies[task_id]  # no other copy runs
                        elif kind == "raised":
                            # a failed copy never outranks the other one,
                            # still running: its reply is dropped, and
                            # the chunk is not copied again
                            fleet.copies[task_id] = None
                            continue
                        elif fleet.copies[task_id] == handle.name:
                            fleet.c_wins.inc()
                    if not fresh and task_id in self._futures:
                        # the first reply feeds the straggler mean
                        fleet.window.append(now - handle.dispatched_at)
                future = self._futures.pop(task_id, None)
                if future is None:
                    # task already failed (deadline), was cancelled, or
                    # is the slower copy of a speculated chunk: discard
                    # the late result — its fate was sealed, and its
                    # terminal trace event already emitted, when the
                    # future resolved
                    continue
                self._settle(task_id, future, kind, msg[2])
            # 2. death: a busy worker that is gone is replaced and its
            #    task re-run, until the task has lost DEATH_RETRIES runs
            #    (→ WorkerFailure → MAXINT in the engine); a revoked
            #    worker is retired instead.  Only a worker whose pipe
            #    hung up is asked: under forkserver ``is_alive`` builds a
            #    selector per call, and this loop runs ~2 000 times a
            #    second
            if hung_up and not handle.process.is_alive():
                if handle.pending_revoke and not self._closed:
                    self._bury_revoked(handle)
                    continue
                task_id = handle.busy_task
                if task_id is not None:
                    exitcode = handle.process.exitcode
                    self.tracer.event(
                        "pool.worker_death",
                        worker=handle.name,
                        task=task_id,
                        exitcode=exitcode,
                    )
                    self._publish_worker(handle, "dead", task=task_id)
                    handle.busy_task = None
                    if self._fleet:
                        self._fleet.copies.pop(task_id, None)
                    # a cancelled task has nobody waiting for a re-run,
                    # and a speculated one may still have its other copy
                    if task_id in self._futures and not self._running(
                        task_id
                    ):
                        lost = self._tasks[task_id][2]
                        if lost < DEATH_RETRIES:
                            self._requeue(task_id, handle, ran=True)
                        else:
                            self._fail_task(
                                task_id,
                                WorkerFailure(
                                    handle.name,
                                    "died mid-evaluation (exitcode "
                                    f"{exitcode}); the task lost all "
                                    f"{lost + 1} attempts",
                                ),
                            )
                if not self._closed:
                    self._replace(handle)
            # 3. deadline: kill an overrunning worker, fail its task
            elif (
                self.deadline is not None
                and handle.busy_task is not None
                and now - handle.dispatched_at > self.deadline
            ):
                elapsed = now - handle.dispatched_at
                self.tracer.event(
                    "pool.deadline_kill",
                    worker=handle.name,
                    task=handle.busy_task,
                    elapsed=elapsed,
                )
                self._c_deadline.inc()
                self._fail_task(
                    handle.busy_task,
                    TrainingTimeoutError(elapsed, self.deadline),
                )
                handle.busy_task = None
                self._replace(handle)
        self._dispatch_idle()
        if self._fleet is not None:
            self._steer(now)
        self._sample_gauges()

    def _settle(
        self, task_id: int, future: ProcessFuture, kind: str, value: Any
    ) -> None:
        """Resolve a task with its outcome: ``"batchdone"`` per-slot
        outcomes — ``(fitness, metadata)`` tuples or exception
        instances, in submission order — or the exception a
        ``"raised"`` chunk raised, re-raised by ``result()``."""
        self._tasks.pop(task_id, None)
        if getattr(self.tracer, "enabled", False):
            self.tracer.event(
                "task.done" if kind != "raised" else "task.err",
                task=f"pool-task-{task_id}",
            )
        if kind == "batchdone":
            future._resolve(result=value)
        else:
            future._resolve(exception=value)

    # ------------------------------------------------------------------
    # the fleet policy (DESIGN.md §9), applied from _drain
    # ------------------------------------------------------------------
    def _steer(self, now: float) -> None:
        """One step of the fleet policy: the last resort when no
        worker is left, speculation, and the autoscale tick."""
        fleet = self._fleet
        if self._queue and not self._workers:
            self._last_resort()
        if fleet.speculate and len(fleet.window) >= MIN_HISTORY:
            self._speculate(now)
        if now - fleet.last_tick >= AUTOSCALE_INTERVAL:
            self._autoscale(now)

    def _last_resort(self) -> None:
        """Revocation took the last worker: run the backlog in this
        process — the same chunks with the same uuids, on individuals
        rebuilt from the specs the pool holds."""
        task_ids, self._queue = self._queue, []
        for task_id in task_ids:
            payload, segments, _ = self._tasks[task_id]
            future = self._futures.pop(task_id)
            try:
                slots = evaluate_individuals_batch(
                    _individuals(pickle.loads(payload), segments)
                )
            except Exception as exc:  # noqa: BLE001 - chunk-fatal
                self._settle(task_id, future, "raised", exc)
            else:
                self._settle(task_id, future, "batchdone", slots)

    def _speculate(self, now: float) -> None:
        """Copy each straggling chunk to an idle worker — never into
        the queue behind other work; the first reply resolves it."""
        idle = [h for h in self._workers if h.busy_task is None]
        if not idle:
            return
        fleet = self._fleet
        threshold = None
        for handle in list(self._workers):
            task_id = handle.busy_task
            if (
                not idle
                or task_id is None
                or task_id in fleet.copies
                or task_id not in self._futures
                or now - handle.dispatched_at <= MIN_SPECULATE_S
            ):
                continue
            if threshold is None:  # the window is summed only here
                threshold = max(
                    MIN_SPECULATE_S,
                    STRAGGLER_FACTOR * sum(fleet.window) / len(fleet.window),
                )
            if now - handle.dispatched_at <= threshold:
                continue
            spare = idle.pop(0)
            if not self._send(spare, task_id):
                self._replace(spare)  # died idle; the straggler runs on
                continue
            fleet.copies[task_id] = spare.name
            fleet.c_spec.inc()
            self.tracer.event(
                "fleet.speculate",
                task=f"pool-task-{task_id}",
                worker=spare.name,
                threshold=round(threshold, 6),
            )

    def _autoscale(self, now: float) -> None:
        """One autoscale observation.  A backlog seen
        :data:`SUSTAIN_TICKS` times in a row grows the pool toward the
        ceiling; as long an idle pool shrinks by one worker toward the
        floor.  One transient spike never rescales."""
        fleet = self._fleet
        fleet.last_tick = now
        depth = self.queue_depth()
        if depth:
            fleet.pressure, fleet.idle = fleet.pressure + 1, 0
        elif not self._futures:
            fleet.pressure, fleet.idle = 0, fleet.idle + 1
        else:
            fleet.pressure = fleet.idle = 0
        n = self.n_workers
        if fleet.pressure >= SUSTAIN_TICKS:
            fleet.pressure = 0
            if min(fleet.ceiling, n + depth) > n:
                self.scale_to(min(fleet.ceiling, n + depth))
                fleet.c_up.inc()
                self.tracer.event("fleet.scale_up", workers=self.n_workers)
        elif fleet.idle >= SUSTAIN_TICKS:
            fleet.idle = 0
            if n > fleet.floor:
                self.scale_to(n - 1)
                fleet.c_down.inc()
                self.tracer.event(
                    "fleet.scale_down", workers=self.n_workers
                )
        from repro.obs.live import get_status

        status = get_status()
        if status.enabled:
            status.fleet_update(**self.fleet_snapshot())

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Graceful shutdown: stop workers, fail anything unresolved.

        Safe to call twice.  Queued-but-undispatched and in-flight
        tasks fail with :class:`WorkerFailure` — under the engine they
        become ``MAXINT``, they do not hang."""
        if self._closed:
            return
        self._closed = True
        for task_id in list(self._queue):
            self._fail_task(
                task_id, WorkerFailure("pool", "closed before dispatch")
            )
        self._queue.clear()
        for handle in self._workers:
            if handle.busy_task is not None:
                self._fail_task(
                    handle.busy_task,
                    WorkerFailure(handle.name, "pool closed mid-task"),
                )
                handle.busy_task = None
                # it would finish the task before it read a "stop"
                handle.process.kill()
                continue
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers:
            handle.process.join(_JOIN_TIMEOUT)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.join(_JOIN_TIMEOUT)
            try:
                handle.conn.close()
            except Exception:  # noqa: BLE001 - already broken
                pass
        for ident in list(self._segments):
            self._forget_segment(ident)

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:  # noqa: BLE001 - best effort
            pass
