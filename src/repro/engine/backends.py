"""Execution backends: where an evaluation actually runs.

The engine speaks one tiny protocol — ``submit_batch(individuals) ->
future`` with ``done()``/``result()`` semantics, the future resolving
to one outcome slot per individual — so the same driver code runs
candidates in-process (:class:`InlineBackend`), on worker processes
(:class:`~repro.engine.pool.ProcessPoolBackend`, whose fleet policy
makes it elastic) without change.

Scalar ``submit(individual)`` is the same call for a chunk of one,
seen through :class:`SlotFuture`.  :class:`InlineBackend` queues chunks
and runs each wave of them as one batch.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING, Any, Iterable, Iterator, Optional, Protocol, Sequence,
    runtime_checkable,
)

from repro.engine.invoke import call_problem_batch

if TYPE_CHECKING:
    from repro.engine.policy import Tag


def evaluate_individual(individual: Any) -> Any:
    """Evaluate one individual in place and return it.

    Robust individuals convert their own exceptions to ``MAXINT``
    fitness; plain individuals let them propagate to the engine's
    failure policy.
    """
    return individual.evaluate()


def evaluate_stream(stream: Iterable[Any]) -> Iterator[Any]:
    """Evaluate a stream of individuals one at a time, lazily.

    The sanctioned per-individual evaluation loop for operator
    pipelines (``ops.evaluate`` delegates here); everything else goes
    through the engine's batch path.
    """
    for individual in stream:
        yield evaluate_individual(individual)


def evaluate_individuals_batch(individuals: Sequence[Any]) -> list[Any]:
    """Evaluate a chunk of individuals through their problems' batch
    entry points.

    Returns one slot per individual, in order: a ``(fitness,
    metadata)`` pair or the exception that slot raised (including
    decode errors) — one individual's failure never poisons its
    neighbours.  Individuals are grouped by problem identity so a
    homogeneous population (the common case: one problem per run)
    becomes a single :func:`call_problem_batch` call.
    """
    slots: list[Any] = [None] * len(individuals)
    groups: dict[int, tuple[Any, list[int], list[Any], list[Any]]] = {}
    for i, individual in enumerate(individuals):
        try:
            phenome = individual.decode()
        except Exception as exc:  # noqa: BLE001 - isolated per slot
            slots[i] = exc
            continue
        problem = individual.problem
        entry = groups.get(id(problem))
        if entry is None:
            entry = groups[id(problem)] = (problem, [], [], [])
        entry[1].append(i)
        entry[2].append(phenome)
        entry[3].append(getattr(individual, "uuid", None))
    for problem, indices, phenomes, uuids in groups.values():
        outcomes = call_problem_batch(problem, phenomes, uuids=uuids)
        for i, outcome in zip(indices, outcomes):
            slots[i] = outcome
    return slots


class SlotFuture:
    """Scalar view of a chunk of one: ``result()`` is the chunk's only
    slot, raised when that slot is an exception."""

    def __init__(self, future: Any) -> None:
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> Any:
        (slot,) = self._future.result(timeout)
        if isinstance(slot, BaseException):
            raise slot
        return slot

    def cancel(self) -> None:
        cancel = getattr(self._future, "cancel", None)
        if cancel is not None:
            cancel()


class FutureLike(Protocol):
    """The slice of future semantics the engine consumes."""

    def done(self) -> bool: ...

    def result(self, timeout: Optional[float] = None) -> Any: ...


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can run individuals' evaluations."""

    #: marker so :func:`as_backend` passes backend instances through
    is_execution_backend: bool

    def submit(self, individual: Any) -> FutureLike:
        """Submit one individual; the future resolves to its slot."""
        ...

    def submit_batch(
        self, individuals: Sequence[Any], tag: Optional[Tag] = None
    ) -> FutureLike:
        """Submit a chunk, as one task of the tenant ``tag`` names (None:
        untagged); the future resolves to one slot per individual
        (result or exception)."""
        ...

    def on_cache_hit(self, individual: Any) -> None:
        """Told when the engine served ``individual`` from the cache
        instead of submitting it (for backend-side accounting)."""


class QueuedFuture:
    """One chunk an :class:`InlineBackend` holds until a wave runs it.

    ``done()`` runs a wave if the chunk has not run; ``result()`` and
    ``cancel()`` run waves until it has.  Inline work cannot be stopped,
    so ``cancel()`` evaluates too, with the side effects (cache inserts,
    problem counters) the chunk would have had anyway.
    """

    __slots__ = ("_backend", "individuals", "tag", "_slots")

    def __init__(
        self, backend: "InlineBackend", individuals: list[Any], tag: Any
    ) -> None:
        self._backend = backend
        self.individuals = individuals
        self.tag = tag
        self._slots: Optional[list[Any]] = None

    def done(self) -> bool:
        if self._slots is None:
            self._backend._run_wave()
        return self._slots is not None

    @property
    def resolved(self) -> bool:
        """``done()`` without running a wave."""
        return self._slots is not None

    def result(self, timeout: Optional[float] = None) -> list[Any]:
        while self._slots is None:
            self._backend._run_wave()
        return self._slots

    def cancel(self) -> None:
        self.result()


class InlineBackend:
    """Evaluate in the calling process, one problem call per wave.

    ``submit_batch`` only queues its chunk.  The first ``done()``,
    ``result()`` or ``cancel()`` on any queued future runs every queued
    chunk — the *wave* — in submission order through one
    :func:`evaluate_individuals_batch` call and hands each future its
    slots.  A generation submitted at chunk size 1 therefore enters its
    problem once, not once per individual: in-process there are no
    workers to spread chunks over, so the chunk size changes nothing.
    A wave runs its chunks at once, so it takes at most a tenant's
    ``cap`` of its tagged chunks; the rest wait for the next wave.

    An exception escaping the batch call propagates to whoever polled,
    and every future of the wave resolves to that exception in each of
    its slots.  Like every backend, one instance has one polling thread
    (the engine's or the service's dispatcher), so the
    queue takes no lock.
    """

    is_execution_backend = True

    def __init__(self) -> None:
        #: chunks not yet run, in submission order
        self._queue: list[QueuedFuture] = []
        #: tenant → (the most of its chunks in one wave, chunks run)
        self._shares: dict[str, tuple[int, int]] = {}

    def submit(self, individual: Any) -> SlotFuture:
        return SlotFuture(self.submit_batch([individual]))

    def submit_batch(
        self, individuals: Sequence[Any], tag: Optional[Tag] = None
    ) -> QueuedFuture:
        future = QueuedFuture(self, list(individuals), tag)
        self._queue.append(future)
        return future

    def share_snapshot(self) -> dict[str, Any]:
        """The tenants' books for the service's ``/status``."""
        return {
            tenant: {"in_flight": 0, "peak_in_flight": peak, "dispatched": n}
            for tenant, (peak, n) in list(self._shares.items())
        }

    def _run_wave(self) -> None:
        # detach first: a chunk submitted from inside the problem call
        # joins the next wave, as does a tagged one past its tenant's cap
        wave, held, counts = [], [], Counter()
        for future in self._queue:
            tag = future.tag
            if tag is not None:
                if tag.cap is not None and counts[tag.tenant] >= tag.cap:
                    held.append(future)
                    continue
                counts[tag.tenant] += 1
            wave.append(future)
        self._queue = held
        for tenant, n in counts.items():
            peak, run = self._shares.get(tenant, (0, 0))
            self._shares[tenant] = (max(peak, n), run + n)
        individuals = [ind for future in wave for ind in future.individuals]
        try:
            slots = evaluate_individuals_batch(individuals)
        except BaseException as exc:
            for future in wave:
                future._slots = [exc] * len(future.individuals)
            raise
        start = 0
        for future in wave:
            stop = start + len(future.individuals)
            future._slots = slots[start:stop]
            start = stop

    def on_cache_hit(self, individual: Any) -> None:
        pass


def as_backend(client: Any = None) -> Any:
    """Coerce ``None`` / a backend into a backend."""
    if client is None:
        return InlineBackend()
    if getattr(client, "is_execution_backend", False):
        return client
    raise TypeError(f"{type(client).__name__} is not an ExecutionBackend")
