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
* **Scheduling is the policy's.**  Which worker takes which task, the
  re-run of a dead worker's task at the front of the queue (until it has
  lost :data:`DEATH_RETRIES` runs; then a
  :class:`~repro.exceptions.WorkerFailure` naming its attempts, which
  the engine's §2.2.4 policy turns into ``MAXINT``), the per-task
  ``deadline`` (the paper's 2-hour cap, enforced with SIGKILL) and the
  fleet policy are :class:`repro.engine.policy.Policy`, which the
  cluster simulator drives too (DESIGN.md §9).  ``_drain`` reads the
  pipes, reports what it sees (replies, deaths, revocations, the time
  on ``time.monotonic()``) and carries out the actions it gets back,
  with the trace events and counters :mod:`repro.chaos.invariants` and
  ``/metrics`` read.  An exception raised *inside* a worker is the
  evaluation's own outcome and is not retried: bad hyperparameters fail
  on any node.
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
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.engine.backends import SlotFuture, evaluate_individuals_batch
from repro.engine import policy
from repro.engine.policy import DEATH_RETRIES  # noqa: F401 - documented here
from repro.engine.policy import Tag
from repro.exceptions import EvaluationError, WorkerFailure
from repro.injection import FaultInjector, get_injector
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import get_tracer

#: how long close() waits for a worker to exit gracefully
_JOIN_TIMEOUT = 5.0

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
    #: a segment came since the last task, whose clock awaits "started"
    loaded = False
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        if msg[0] == "segment":
            segments[msg[1]] = pickle.loads(msg[2])
            loaded = True
            continue
        if msg[0] == "drop":
            segments.pop(msg[1], None)
            continue
        _, task_id, payload, delay, die, trace, attempt = msg
        if loaded:
            loaded = False
            try:
                conn.send(("started", task_id, []))
            except (BrokenPipeError, OSError):
                break
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

    @property
    def resolved(self) -> bool:
        """``done()`` without the drain."""
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


@dataclass(eq=False)
class _WorkerHandle:
    """Parent-side view of one worker process (its books are the
    policy's)."""

    name: str
    process: Any = None
    conn: Any = None
    #: this worker's own task ordinal — the ``task_index`` the chaos
    #: injector's per-worker windows match against
    tasks_dispatched: int = 0
    #: how many successors were spawned under this name
    respawns: int = 0
    #: segment keys this worker process holds (a respawned successor
    #: starts empty and gets them re-shipped; a collected problem's key
    #: is dropped while the worker is idle)
    segments: set[str] = field(default_factory=set)
    #: the next death is a spot-style preemption: the policy hears a
    #: revocation instead of a death
    pending_revoke: bool = False


class ProcessPoolBackend:
    """Fan evaluations out over a pool of worker *processes*.

    Parameters
    ----------
    workers:
        Pool size (default: ``os.cpu_count()``, at least 2).  The
        paper's analogue is one Dask worker per Summit node.
    deadline:
        Hard per-task wall-clock limit in seconds, timed from when the
        worker starts the task (loading a problem it lacks first is not
        counted); an overrunning worker is SIGKILLed and the task fails
        with :class:`TrainingTimeoutError` (→ ``MAXINT`` under the
        engine's failure policy).  ``None`` disables backend-side
        enforcement.
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
        from multiprocessing.connection import wait

        #: imported here, like ``mp``: a process with no pool loads neither
        self._wait = wait
        if workers is None:
            workers = max(2, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError("need at least one pool worker")
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
        #: sampled on every submit/dispatch/drain transition, set when
        #: the (queue depth, busy workers) sample moves
        self._g_queue = registry.gauge("pool_queue_depth")
        self._g_busy = registry.gauge("pool_busy_workers")
        self._sampled: Optional[tuple[int, int]] = None
        #: the queue, attempts, per-worker books and fleet policy
        fleet = None
        if max_workers is not None or speculate:
            fleet = policy.Fleet(
                int(workers), int(max_workers or workers), speculate
            )
        self._policy = policy.Policy(int(workers), deadline=deadline, fleet=fleet)
        #: task_id → (future, payload, {segment key: (problem, decoder,
        #: class)}); kept until the future resolves (or is cancelled), so
        #: in-flight work survives the worker that held it — and so do
        #: its segments, which a requeue re-ships and the last resort
        #: rebuilds individuals over
        self._tasks: dict[int, tuple[ProcessFuture, bytes, dict[str, Any]]] = {}
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
        self._next_task_id = 0
        self._closed = False
        #: name → handle, in the policy's worker order
        self._workers: dict[str, _WorkerHandle] = {}
        for name in self._policy.workers:
            self._workers[name] = handle = _WorkerHandle(name)
            self._spawn(handle)
            self._publish_worker(handle, "idle")
        self._sample_gauges()

    @property
    def deadline(self) -> Optional[float]:
        """The hard per-task limit in seconds (settable)."""
        return self._policy.deadline

    @deadline.setter
    def deadline(self, seconds: Optional[float]) -> None:
        self._policy.deadline = seconds

    @property
    def n_workers(self) -> int:
        """Current pool size — dynamic under scaling and revocation."""
        return len(self._workers)

    # ------------------------------------------------------------------
    # live-plane helpers
    # ------------------------------------------------------------------
    def _sample_gauges(self) -> None:
        """Refresh the queue-depth / busy-workers gauges (called on
        every submit/dispatch/drain transition) when they moved."""
        sample = (self._policy.depth(), self.n_workers - self.idle_workers())
        if sample != self._sampled:
            self._sampled = sample
            self._g_queue.set(sample[0])
            self._g_busy.set(sample[1])

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

    def _fleet_counter(self, name: str) -> Any:
        return self._registry.counter(f"fleet_{name}_total")

    def fleet_snapshot(self) -> dict[str, Any]:
        """Strict-JSON fleet-policy state for ``/status`` and the
        monitor; empty when the policy is off."""
        fleet = self._policy.fleet
        if fleet is None:
            return {}
        def count(name: str) -> int:
            return int(self._fleet_counter(name).value)

        return {
            "workers": self.n_workers,
            "min_workers": fleet.floor,
            "max_workers": fleet.ceiling,
            "speculate": fleet.speculate,
            "in_flight": len(self._tasks),
            "queue_depth": self.queue_depth(),
            "requeued": int(self._c_requeued.value),
            "speculations": count("speculations"),
            "speculative_wins": count("speculative_wins"),
            "duplicates_discarded": count("duplicate_results"),
            "scale_ups": count("scale_up"),
            "scale_downs": count("scale_down"),
        }

    def share_snapshot(self) -> dict[str, Any]:
        """Strict-JSON fair-share books per tenant, for ``/status``
        (read off the pool's thread, so over a copy)."""
        return {
            name: {
                "vtime": round(share.vtime, 6),
                "in_flight": self._policy.running(share),
                "peak_in_flight": share.peak,
                "dispatched": share.dispatched,
            }
            for name, share in list(self._policy.shares.items())
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
        """Drop one segment from the registry; workers drop it at the
        next drain that finds them idle.  Called from a finalizer, so
        possibly on any thread: it only pops (the segments of a queued
        or running task cannot be collected)."""
        entry = self._segments.pop(ident, None)
        if entry is not None:
            for finalizer in entry[2]:
                finalizer.detach()
            self._segment_payloads.pop(entry[0], None)

    def submit_batch(
        self, individuals: Iterable[Any], tag: Optional[Tag] = None
    ) -> ProcessFuture:
        """Submit one chunk of individuals as one pool task of ``tag``'s
        tenant (None: untagged, first come).

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
        self._tasks[task_id] = (future, payload, segments)
        self._apply(self._policy.submit(task_id, time.monotonic(), tag))
        self._sample_gauges()
        return future

    def on_cache_hit(self, individual: Any) -> None:
        self._c_cache.inc()

    # ------------------------------------------------------------------
    # the policy's actions
    # ------------------------------------------------------------------
    def _apply(self, actions: list[Any]) -> None:
        """Carry out the policy's actions in order; what that shows (a
        spawned worker, a worker found dead) goes back to the policy."""
        for action in actions:
            match action:
                case policy.Dispatch(name, task_id):
                    self._send(self._workers[name], task_id)
                case policy.Copy(name, task_id, threshold):
                    if self._send(self._workers[name], task_id):
                        self._fleet_counter("speculations").inc()
                        self.tracer.event(
                            "fleet.speculate",
                            task=f"pool-task-{task_id}",
                            worker=name,
                            threshold=round(threshold, 6),
                        )
                case policy.Requeue(task_id, name, attempt):
                    self._c_requeued.inc()
                    self.tracer.event(
                        "task.requeued",
                        task=f"pool-task-{task_id}",
                        from_worker=name,
                        from_pid=self._workers[name].process.pid,
                        attempt=attempt,
                    )
                case policy.Fail(task_id, error):
                    self._fail_task(task_id, error)
                case policy.Spawn(name) if name in self._workers:
                    self._replace(self._workers[name])
                    self._apply(self._policy.spawned(name, time.monotonic()))
                case policy.Spawn(name):  # scale-up
                    self._workers[name] = handle = _WorkerHandle(name)
                    self._spawn(handle)
                    self._g_workers.set(self.n_workers)
                    self.tracer.event("pool.scale_up", worker=name)
                    self._publish_worker(handle, "idle")
                    self._apply(self._policy.spawned(name, time.monotonic()))
                case policy.Kill(name, task_id, elapsed):
                    self.tracer.event(
                        "pool.deadline_kill",
                        worker=name,
                        task=task_id,
                        elapsed=elapsed,
                    )
                    self._c_deadline.inc()
                    self._replace(self._workers[name])
                case policy.Retire(name):
                    self._retire(self._workers.pop(name))
                    self._g_workers.set(self.n_workers)
                case policy.RunInProcess(task_id):
                    self._run_in_process(task_id)
                case policy.LastResort(name, queued):
                    self.tracer.event(
                        "fleet.last_resort", worker=name, queued=queued
                    )
                case policy.Autoscale(delta, workers):
                    if delta:
                        way = "up" if delta > 0 else "down"
                        self._fleet_counter(f"scale_{way}").inc()
                        self.tracer.event(f"fleet.scale_{way}", workers=workers)
                    from repro.obs.live import get_status

                    status = get_status()
                    if status.enabled:
                        status.fleet_update(**self.fleet_snapshot())

    def _run_in_process(self, task_id: int) -> None:
        """The last resort: run one queued chunk in this process — the
        same chunk with the same uuids, on individuals rebuilt from the
        spec the pool holds."""
        _, payload, segments = self._tasks[task_id]
        try:
            slots = evaluate_individuals_batch(
                _individuals(pickle.loads(payload), segments)
            )
        except Exception as exc:  # noqa: BLE001 - chunk-fatal
            self._settle(task_id, "raised", exc)
        else:
            self._settle(task_id, "batchdone", slots)

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
        handle.pending_revoke = False
        handle.segments.clear()  # a fresh process holds no segments

    def _fail_task(self, task_id: int, exc: BaseException) -> None:
        entry = self._tasks.pop(task_id, None)
        if entry is not None:
            if getattr(self.tracer, "enabled", False):
                self.tracer.event(
                    "task.err",
                    task=f"pool-task-{task_id}",
                    error=type(exc).__name__,
                )
            entry[0]._resolve(exception=exc)

    def _cancel_task(self, task_id: int) -> None:
        """Abandon one task (a chunk the engine has already failed): an
        undispatched task leaves the queue; a dispatched one runs to
        completion but its result is discarded on receipt."""
        entry = self._tasks.pop(task_id, None)
        if entry is None:
            return
        self._policy.cancel(task_id)
        if getattr(self.tracer, "enabled", False):
            self.tracer.event(
                "task.abandoned", task=f"pool-task-{task_id}"
            )
        entry[0]._resolve(
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

    def _bury(self, handle: _WorkerHandle) -> None:
        """A dead worker: a revoked one is retired — no respawn,
        capacity shrinks — and any other replaced; the policy decides
        what happens to its task."""
        name = handle.name
        task_id = self._policy.workers[name].task
        if not handle.pending_revoke:
            exitcode = handle.process.exitcode
            if task_id is not None:
                self.tracer.event(
                    "pool.worker_death",
                    worker=name,
                    task=task_id,
                    exitcode=exitcode,
                )
                self._publish_worker(handle, "dead", task=task_id)
            self._apply(self._policy.death(name, f"exitcode {exitcode}"))
            return
        self._c_revoked.inc()
        self.tracer.event(
            "pool.worker_revoked",
            worker=name,
            task=None if task_id is None else f"pool-task-{task_id}",
        )
        self._publish_worker(handle, "revoked", task=task_id)
        try:
            handle.conn.close()
        except Exception:  # noqa: BLE001 - already broken
            pass
        handle.process.join(_JOIN_TIMEOUT)
        self._apply(self._policy.revoke(name))
        del self._workers[name]
        self._g_workers.set(self.n_workers)

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
        if name is None:
            books = self._policy.workers
            name = next(
                (n for n, w in books.items() if w.task is not None),
                next(iter(books)),
            )
        handle = self._workers.get(name)
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
        self._apply(self._policy.scale_to(max(0, int(n))))
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
        self.tracer.event("pool.scale_down", worker=handle.name)
        self._publish_worker(handle, "retired")

    def queue_depth(self) -> int:
        """Undispatched tasks."""
        return self._policy.depth()

    def idle_workers(self) -> int:
        return sum(1 for w in self._policy.workers.values() if w.task is None)

    def _send(self, handle: _WorkerHandle, task_id: int) -> bool:
        """Send one task to the worker the policy gave it, shipping the
        segments it lacks first.  The chaos injector is consulted here,
        per dispatch.  A worker found dead is reported to the policy,
        which takes the task back unspent; False then."""
        _, payload, segments = self._tasks[task_id]
        attempt = self._policy.attempts[task_id]
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
            # spot preemption: the worker dies mid-task like a plain
            # death, but _drain reports a revocation instead
            handle.pending_revoke = True
            die = True
        try:
            for key in segments:
                if key in handle.segments:
                    continue
                # ship the shared (problem, decoder, class) triple
                # once per worker process; the pipe is FIFO, so the
                # segment always lands before the task that needs it,
                # whose clock waits for the worker's "started"
                handle.conn.send(
                    ("segment", key, self._segment_payloads[key])
                )
                handle.segments.add(key)
                self._policy.clock(handle.name, None)
            handle.conn.send(
                ("batch", task_id, payload, delay, die, trace, attempt)
            )
        except (BrokenPipeError, OSError):
            # the worker died idle: the task never ran
            self._apply(
                self._policy.death(handle.name, "found dead", ran=False)
            )
            return False
        self._publish_worker(handle, "busy", task=task_id)
        return True

    def _drain(self) -> None:
        """Collect finished work, report dead workers and the time to
        the policy, and carry out what it decides.  Called from the
        engine's poll loop via ``future.done()`` — always on the driver
        thread."""
        if self._closed:
            return
        now = time.monotonic()
        # one selector for every pipe: under forkserver a poll() or an
        # is_alive() builds one per call, and this runs ~2 000 times a
        # second
        ready = set(self._wait([h.conn for h in self._workers.values()], 0))
        for handle in list(self._workers.values()):
            # 1. everything the worker managed to send, up to the end
            #    of its pipe, which a worker's exit closes
            hung_up = False
            readable = handle.conn in ready
            while readable:
                try:
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    hung_up = True
                    break
                kind, task_id = msg[0], msg[1]
                if kind == "started":
                    self._policy.clock(handle.name, now)
                    readable = handle.conn.poll()
                    continue
                # last element is the worker-side trace record list;
                # merge it into the parent stream with fresh span ids
                records = msg[-1]
                if records and getattr(self.tracer, "enabled", False):
                    for rec in records:
                        self.tracer.ingest(rec)
                if self._policy.workers[handle.name].task == task_id:
                    self._publish_worker(handle, "idle")
                for action in self._policy.reply(
                    handle.name, task_id, kind != "raised", now
                ):
                    if isinstance(action, policy.Duplicate):
                        # a speculated chunk's slower copy
                        self._fleet_counter("duplicate_results").inc()
                        continue
                    if action.won:
                        self._fleet_counter("speculative_wins").inc()
                    self._settle(task_id, kind, msg[2])
                readable = handle.conn.poll()
            # 2. death: only a worker whose pipe hung up is asked
            if hung_up and not handle.process.is_alive():
                self._bury(handle)
            elif self._policy.workers[handle.name].task is None:
                # an idle worker drops the segments of collected problems
                for key in handle.segments.difference(self._segment_payloads):
                    handle.segments.discard(key)
                    try:
                        handle.conn.send(("drop", key))
                    except (BrokenPipeError, OSError):
                        pass  # a dead worker holds nothing; it is replaced
        # 3. deadlines, dispatch and the fleet policy's step
        self._apply(self._policy.tick(now))
        self._sample_gauges()

    def _settle(self, task_id: int, kind: str, value: Any) -> None:
        """Resolve a task with its outcome: ``"batchdone"`` per-slot
        outcomes — ``(fitness, metadata)`` tuples or exception
        instances, in submission order — or the exception a
        ``"raised"`` chunk raised, re-raised by ``result()``."""
        future = self._tasks.pop(task_id)[0]
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
        for task_id in self._policy.take_queued():
            self._fail_task(
                task_id, WorkerFailure("pool", "closed before dispatch")
            )
        for name, handle in self._workers.items():
            task_id = self._policy.workers[name].task
            if task_id is not None:
                self._fail_task(
                    task_id, WorkerFailure(name, "pool closed mid-task")
                )
                # it would finish the task before it read a "stop"
                handle.process.kill()
                continue
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers.values():
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
