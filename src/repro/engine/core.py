"""The evaluation engine: one lifecycle for every candidate evaluation.

One paper-scale campaign is ~3500 trainings of up to 2 GPU-hours each,
so everything that avoids or survives a training — deduplication, the
evaluation cache, the MAXINT failure policy, timeouts — must behave
identically no matter which optimizer asked for the evaluation.
Before this layer existed, the generational driver, the steady-state
driver, and each baseline carried their own copy of that logic (and
only the generational driver had all of it).  The engine is the single
copy.

One path, one knob: every candidate enters through
:meth:`EvaluationEngine.submit_batch`, which partitions its population
into already-resolved candidates (dedup duplicates, cache hits,
injected failures) and fresh ones, and ships the fresh ones to the
backend in chunks.  The chunk size is the only thing the public entry
points choose, and it is dispatch granularity only: how work crosses
to pool or fleet workers.  In-process there is nothing to spread, so
the inline backend runs every chunk submitted before it is next polled
— a *wave*, at barrier mode a whole generation — as one problem call,
whatever the chunk size:

* :meth:`EvaluationEngine.evaluate` — chunk size 1: one backend task
  per candidate, the paper's one-Dask-task-per-training dispatch
  (§2.2.5), blocking until the whole population has resolved (the
  generational barrier of §2.2.3 and the baselines' sweeps);
* :meth:`EvaluationEngine.evaluate_batch` — the same barrier at the
  backend's chunk hint (or an explicit ``chunk_size``): one vectorized
  problem call per chunk on a worker;
* :meth:`EvaluationEngine.submit_batch` plus
  :meth:`EvaluationEngine.wait_any` — streaming, the driver loop's
  (:func:`repro.evo.algorithm.run_driver`, which also journals):
  candidates are handed back as they resolve.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Optional

import numpy as np

from repro.engine.backends import as_backend
from repro.engine.invoke import apply_failure, land, serve_from_cache
from repro.exceptions import TrainingTimeoutError
from repro.injection import FaultInjector, get_injector
from repro.obs.live import current_campaign_id, get_status
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import get_tracer


@dataclass
class EngineStats:
    """What the engine did, with cache/dedup separated from training.

    ``fresh`` counts evaluations that actually executed (the trainings
    a cluster would bill for); ``cache_hits`` and ``dedup_hits`` are
    candidates resolved without executing anything.  Drivers report
    these instead of conflating every completion with a training.
    """

    submitted: int = 0
    completed: int = 0
    fresh: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    failures: int = 0
    timeouts: int = 0
    wall_time: float = 0.0

    def copy(self) -> "EngineStats":
        return EngineStats(**asdict(self))

    def delta(self, since: "EngineStats") -> "EngineStats":
        """Stats accumulated after the ``since`` snapshot (for drivers
        sharing one engine across runs or generations)."""
        return EngineStats(
            submitted=self.submitted - since.submitted,
            completed=self.completed - since.completed,
            fresh=self.fresh - since.fresh,
            cache_hits=self.cache_hits - since.cache_hits,
            dedup_hits=self.dedup_hits - since.dedup_hits,
            failures=self.failures - since.failures,
            timeouts=self.timeouts - since.timeouts,
            wall_time=self.wall_time - since.wall_time,
        )

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class _Member:
    """One dispatched representative plus its duplicate followers."""

    __slots__ = (
        "seq",
        "individual",
        "followers",
        "genome_key",
        "forced_timeout",
        "resolved",
    )

    def __init__(
        self,
        seq: int,
        individual: Any,
        genome_key: Optional[bytes],
        forced_timeout: bool,
    ) -> None:
        #: submission sequence number (see :meth:`wait_any`)
        self.seq = seq
        self.individual = individual
        #: ``(seq, individual)`` of every later genome-identical submit
        self.followers: list[tuple[int, Any]] = []
        self.genome_key = genome_key
        #: chaos: treat this dispatch as overrunning its wall-clock
        #: budget even if the backend finishes
        self.forced_timeout = forced_timeout
        #: a member can resolve ahead of its chunk (forced timeout)
        self.resolved = False


class _InFlight:
    """One dispatched chunk: a shared future over ordered members.

    The future resolves to one slot per member (result or exception).
    A scalar submit is a chunk of one member.
    """

    __slots__ = ("future", "members", "since")

    def __init__(
        self, future: Any, members: list[_Member], since: float
    ) -> None:
        self.future = future
        self.members = members
        self.since = since


class EvaluationEngine:
    """Submit → dedup → cache → execute → failure-policy.

    Parameters
    ----------
    client:
        ``None`` (inline evaluation) or an
        :class:`~repro.engine.backends.ExecutionBackend`.
    dedup:
        Collapse genome-identical candidates onto one execution; the
        duplicates receive a copy of the representative's result plus a
        ``dedup_of`` marker.
    dedup_scope:
        ``"batch"`` forgets resolved genomes at each :meth:`evaluate`
        call (the generational driver's within-generation semantics —
        required for bit-identical resume); ``"run"`` remembers them for
        the engine's lifetime (the steady-state and baseline setting).
    timeout:
        Soft per-evaluation wall-clock limit in seconds; an overrunning
        candidate is failed with :class:`TrainingTimeoutError` (the
        engine-side analogue of the paper's 2-hour training cap).
    """

    def __init__(
        self,
        client: Any = None,
        dedup: bool = True,
        dedup_scope: str = "batch",
        timeout: Optional[float] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if dedup_scope not in ("batch", "run"):
            raise ValueError("dedup_scope must be 'batch' or 'run'")
        self.backend = as_backend(client)
        #: chaos seam (None outside chaos runs): consulted once per
        #: backend dispatch for injected crashes/timeouts
        self._injector = (
            fault_injector if fault_injector is not None else get_injector()
        )
        self.dedup = bool(dedup)
        self.dedup_scope = dedup_scope
        self.timeout = timeout
        self.tracer = tracer if tracer is not None else get_tracer()
        registry = metrics if metrics is not None else get_registry()
        self._c_submitted = registry.counter("engine_submitted_total")
        self._c_completed = registry.counter("engine_completed_total")
        self._c_fresh = registry.counter("engine_fresh_evaluations_total")
        self._c_cache = registry.counter("engine_cache_hits_total")
        self._c_dedup = registry.counter("engine_dedup_hits_total")
        self._c_failures = registry.counter("engine_failures_total")
        #: sampled on every submit/pump transition for the live plane;
        #: labeled per campaign so concurrent campaigns sharing one
        #: process (the service) don't clobber each other's levels
        cid = current_campaign_id()
        gauge_labels = {"campaign_id": str(cid)} if cid is not None else None
        self._g_inflight = registry.gauge(
            "engine_inflight", labels=gauge_labels
        )
        self._g_ready = registry.gauge("engine_ready", labels=gauge_labels)
        #: batch-efficiency surfaces: chunk sizes actually dispatched,
        #: and the campaign-wide completion rate
        self._h_batch_size = registry.histogram(
            "engine_batch_size", labels=gauge_labels
        )
        self._g_evals_per_sec = registry.gauge(
            "engine_evals_per_sec", labels=gauge_labels
        )
        self.stats = EngineStats()
        self._inflight: list[_InFlight] = []
        #: unresolved members by genome key: where a genome-identical
        #: submission attaches as a follower
        self._pending: dict[bytes, _Member] = {}
        self._unresolved = 0
        #: ``(submission seq, individual)``, resolved but not handed back
        self._ready: list[tuple[int, Any]] = []
        self._results: dict[bytes, Any] = {}
        self._seq = itertools.count()
        self._started_at: Optional[float] = None
        self._batches = 0
        self._last_batch_size = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        individuals: Iterable[Any],
        chunk_size: Optional[int] = None,
        new_batch: bool = False,
    ) -> list[Any]:
        """Enqueue a population; the one entry into the engine.

        The population is partitioned **in submission order** into
        already-resolved candidates (dedup duplicates, cache hits,
        injected failures — each finishes immediately) and fresh
        candidates, which are dispatched to the backend in chunks of
        ``chunk_size`` (default: the backend's ``batch_chunk_hint``,
        else one chunk).  Accounting and chaos injection are per
        candidate, so the chunk size changes how work crosses
        the backend and nothing else.
        """
        batch = list(individuals)
        if new_batch and self.dedup_scope == "batch":
            self._results.clear()
        now = time.monotonic()
        if self._started_at is None:
            self._started_at = now
        fresh: list[_Member] = []
        for individual in batch:
            seq = next(self._seq)
            self.stats.submitted += 1
            self._c_submitted.inc()
            genome_key = self._genome_key(individual)
            if self.dedup and genome_key is not None:
                done = self._results.get(genome_key)
                if done is not None:
                    self._resolve_duplicate(seq, individual, done)
                    continue
                rep = self._pending.get(genome_key)
                if rep is not None:
                    rep.followers.append((seq, individual))
                    continue
            if self._cache_probe(individual):
                self._finish(
                    seq, individual, genome_key, cache_fast_path=True
                )
                continue
            fault = (
                None
                if self._injector is None
                else self._injector.evaluation_fault()
            )
            if fault is not None and fault.exception is not None:
                # injected transient evaluator crash: the candidate never
                # reaches the backend and fails under the MAXINT policy
                apply_failure(individual, fault.exception)
                self._finish(seq, individual, genome_key)
                continue
            member = _Member(
                seq,
                individual,
                genome_key,
                forced_timeout=fault is not None and fault.timeout,
            )
            fresh.append(member)
            if self.dedup and genome_key is not None:
                self._pending[genome_key] = member
        if fresh:
            self._unresolved += len(fresh)
            size = self._resolve_chunk_size(len(fresh), chunk_size)
            for start in range(0, len(fresh), size):
                members = fresh[start : start + size]
                future = self.backend.submit_batch(
                    [m.individual for m in members]
                )
                self._inflight.append(_InFlight(future, members, now))
                self._batches += 1
                self._last_batch_size = len(members)
                self._h_batch_size.observe(len(members))
        self._sample_gauges()
        return batch

    def submit(self, individual: Any) -> None:
        """Streaming: enqueue one candidate as a chunk of one; it
        resolves via :meth:`wait_any` (duplicates and cache hits
        resolve at once)."""
        self.submit_batch([individual], chunk_size=1)

    def evaluate_batch(
        self,
        individuals: Iterable[Any],
        chunk_size: Optional[int] = None,
    ) -> list[Any]:
        """Barrier mode: resolve every candidate, preserving order.

        Individuals are evaluated in place and the input list returned,
        so this drops into pipeline sinks directly.
        """
        batch = list(individuals)
        before = self.stats.copy()
        with self.tracer.span("engine.evaluate", n=len(batch)) as span:
            self.submit_batch(batch, chunk_size=chunk_size, new_batch=True)
            self.drain()
            used = self.stats.delta(before)
            span.tag(
                fresh=used.fresh,
                cache_hits=used.cache_hits,
                dedup_hits=used.dedup_hits,
                failures=used.failures,
            )
        self._ready.clear()
        return batch

    def evaluate(self, individuals: Iterable[Any]) -> list[Any]:
        """:meth:`evaluate_batch` at chunk size 1: one backend task per
        candidate (same stats and failure policy)."""
        return self.evaluate_batch(individuals, chunk_size=1)

    def finish_batch(self) -> None:
        """Pipeline helper: block until everything in flight resolves.

        Pairs with :meth:`submit_batch` when a driver overlaps breeding
        of the next generation with evaluation of the current one; the
        results land on the submitted individuals in place.
        """
        self.drain()
        self._ready.clear()

    def _resolve_chunk_size(
        self, n_fresh: int, chunk_size: Optional[int]
    ) -> int:
        if chunk_size is not None:
            return max(1, int(chunk_size))
        hint = getattr(self.backend, "batch_chunk_hint", None)
        if hint is not None:
            return max(1, int(hint(n_fresh)))
        return n_fresh

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def remember(self, individuals: Iterable[Any]) -> None:
        """Dedup later submissions against evaluations an earlier
        session resolved (record replay)."""
        for individual in individuals if self.dedup else ():
            self._results.setdefault(self._genome_key(individual), individual)

    def has_pending(self) -> bool:
        """Any candidate not yet handed back to the caller?"""
        return bool(self._inflight or self._ready)

    def wait_any(
        self,
        poll_interval: float = 0.001,
        timeout: Optional[float] = None,
    ) -> list[Any]:
        """Block until at least one candidate resolves; return all that
        have (empty only when nothing is pending or ``timeout`` hits).

        Candidates come back in submission order, whichever way each
        one resolved — so a candidate served from the cache at submit
        time never overtakes an earlier one that executed, and a
        streaming driver consumes a warm re-run in the cold run's order.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            self._pump()
            if self._ready:
                drained = sorted(self._ready, key=lambda entry: entry[0])
                self._ready = []
                return [individual for _, individual in drained]
            if not self._inflight:
                return []
            if deadline is not None and time.monotonic() >= deadline:
                return []
            time.sleep(poll_interval)

    def drain(self) -> None:
        """Block until every in-flight candidate has resolved."""
        while self._inflight:
            self._pump()
            if self._inflight:
                time.sleep(0.001)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sample_gauges(self) -> None:
        """Refresh the in-flight / ready gauges (every transition)."""
        self._g_inflight.set(self._unresolved)
        self._g_ready.set(len(self._ready))

    @staticmethod
    def _genome_key(individual: Any) -> Optional[bytes]:
        genome = getattr(individual, "genome", None)
        try:
            return None if genome is None else genome.tobytes()
        except AttributeError:  # pragma: no cover - exotic genomes
            return None

    def _cache_probe(self, individual: Any) -> bool:
        """Serve ``individual`` from its problem's evaluation cache when
        possible: the probe's outcome lands as a backend slot would, so
        a hit never crosses the backend, occupies a worker or re-enters
        the problem."""
        outcome = serve_from_cache(individual)
        if outcome is None:
            return False
        land(individual, outcome)
        self.backend.on_cache_hit(individual)
        return True

    def _resolve_duplicate(
        self, seq: int, individual: Any, done: Any
    ) -> None:
        individual.fitness = (
            None
            if done.fitness is None
            else np.array(done.fitness, copy=True)
        )
        individual.metadata = dict(done.metadata)
        individual.metadata["dedup_of"] = getattr(done, "uuid", None)
        self._finish(seq, individual, None, duplicate=True)

    def _finish(
        self,
        seq: int,
        individual: Any,
        genome_key: Optional[bytes],
        cache_fast_path: bool = False,
        duplicate: bool = False,
    ) -> None:
        metadata = getattr(individual, "metadata", None) or {}
        cache_hit = cache_fast_path or bool(metadata.get("cache_hit"))
        self.stats.completed += 1
        self._c_completed.inc()
        if duplicate:
            self.stats.dedup_hits += 1
            self._c_dedup.inc()
        elif cache_hit:
            self.stats.cache_hits += 1
            self._c_cache.inc()
        else:
            self.stats.fresh += 1
            self._c_fresh.inc()
        fitness = getattr(individual, "fitness", None)
        if metadata.get("failed") or (
            fitness is not None and not (np.asarray(fitness) < np.inf).all()
        ):
            # unreachable fallback branch for exotic fitnesses; real
            # failures carry the explicit flag
            self.stats.failures += 1
            self._c_failures.inc()
        if self._started_at is not None:
            self.stats.wall_time = time.monotonic() - self._started_at
            if self.stats.wall_time > 0:
                self._g_evals_per_sec.set(
                    round(self.stats.completed / self.stats.wall_time, 3)
                )
        if not duplicate and genome_key is not None and self.dedup:
            self._results[genome_key] = individual
        self._ready.append((seq, individual))
        status = get_status()
        if status.enabled:
            status.publish_engine(
                self.stats,
                batches=self._batches,
                last_batch_size=self._last_batch_size,
                evals_per_sec=float(self._g_evals_per_sec.value),
            )

    def _settle(self, member: _Member) -> None:
        """A member's individual carries its final state: account for
        it, then resolve its followers as duplicates."""
        member.resolved = True
        self._unresolved -= 1
        if self._pending.get(member.genome_key) is member:
            del self._pending[member.genome_key]
        self._finish(member.seq, member.individual, member.genome_key)
        for seq, follower in member.followers:
            self._resolve_duplicate(seq, follower, member.individual)

    def _time_out(self, member: _Member, elapsed: float) -> None:
        limit = self.timeout if self.timeout is not None else 0.0
        apply_failure(member.individual, TrainingTimeoutError(elapsed, limit))
        self.stats.timeouts += 1
        self._settle(member)

    def _land(self, member: _Member, slot: Any) -> None:
        """Land one chunk slot on its individual.

        A ``(fitness, metadata)`` pair or an exception lands by
        :func:`~repro.engine.invoke.land`, the rule a served cache hit
        follows too; a backend that hands back an evaluated copy of the
        individual has the copy's fitness and metadata taken over.
        """
        individual = member.individual
        if isinstance(slot, (BaseException, tuple)):
            land(individual, slot)
        elif slot is not None and slot is not individual:
            individual.fitness = slot.fitness
            individual.metadata = slot.metadata
        self._settle(member)

    def _pump(self) -> None:
        """Move finished (or timed-out) in-flight work to the ready list."""
        now = time.monotonic()
        self._inflight = [
            chunk for chunk in self._inflight if not self._advance(chunk, now)
        ]
        self._sample_gauges()

    def _advance(self, chunk: _InFlight, now: float) -> bool:
        """Advance one chunk; return ``True`` once fully resolved.

        Members resolve in chunk order — the submission order — so
        what is accounted first does not depend on the chunk size.
        """
        elapsed = now - chunk.since
        slots = None
        if (
            any(not (m.resolved or m.forced_timeout) for m in chunk.members)
            and chunk.future.done()
        ):
            try:
                slots = chunk.future.result()
            except Exception as exc:  # noqa: BLE001 - chunk dispatch died
                # crash→MAXINT applies to the failed chunk's
                # individuals only; other chunks are untouched
                slots = [exc] * len(chunk.members)
        overdue = (
            slots is None
            and self.timeout is not None
            and elapsed > self.timeout
        )
        for index, member in enumerate(chunk.members):
            if member.resolved:
                continue
            # a forced (injected) timeout outranks completion: the
            # engine must enforce its budget even when the backend
            # races it to the finish line
            if member.forced_timeout or overdue:
                self._time_out(member, elapsed)
            elif slots is not None:
                self._land(member, slots[index])
        if not all(m.resolved for m in chunk.members):
            return False
        if slots is None:
            cancel = getattr(chunk.future, "cancel", None)
            if cancel is not None:
                cancel()
        return True
