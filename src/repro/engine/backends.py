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

from typing import Any, Iterable, Iterator, Optional, Protocol, Sequence, runtime_checkable

from repro.engine.invoke import call_problem_batch


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


class AggregateFuture:
    """A future over many per-individual futures.

    ``done()`` when all members are; ``result()`` yields one slot per
    member — the member's result, or the exception it raised — so chunk
    consumers see the same per-slot isolation a batch backend provides
    natively.
    """

    def __init__(self, futures: Sequence[Any]) -> None:
        self._futures = list(futures)

    def done(self) -> bool:
        return all(f.done() for f in self._futures)

    def result(self, timeout: Optional[float] = None) -> list[Any]:
        slots: list[Any] = []
        for future in self._futures:
            try:
                slots.append(future.result(timeout))
            except Exception as exc:  # noqa: BLE001 - isolated per slot
                slots.append(exc)
        return slots

    def cancel(self) -> None:
        for future in self._futures:
            cancel = getattr(future, "cancel", None)
            if cancel is not None:
                cancel()


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

    def submit_batch(self, individuals: Sequence[Any]) -> FutureLike:
        """Submit a chunk; the future resolves to one slot per
        individual (result or exception)."""
        ...

    def on_cache_hit(self, individual: Any) -> None:
        """Told when the engine served ``individual`` from the cache
        instead of submitting it (for backend-side accounting)."""


class QueuedFuture:
    """One chunk an :class:`InlineBackend` holds until its wave runs.

    ``done()``, ``result()`` and ``cancel()`` all run the wave first if
    it has not run.  Inline work cannot be stopped, so ``cancel()``
    evaluates too, with the side effects (cache inserts, problem
    counters) the chunk would have had anyway.
    """

    __slots__ = ("_backend", "individuals", "_slots")

    def __init__(
        self, backend: "InlineBackend", individuals: list[Any]
    ) -> None:
        self._backend = backend
        self.individuals = individuals
        self._slots: Optional[list[Any]] = None

    def done(self) -> bool:
        if self._slots is None:
            self._backend._run_wave()
        return True

    def result(self, timeout: Optional[float] = None) -> list[Any]:
        self.done()
        return self._slots  # type: ignore[return-value]

    def cancel(self) -> None:
        self.done()


class InlineBackend:
    """Evaluate in the calling process, one problem call per wave.

    ``submit_batch`` only queues its chunk.  The first ``done()``,
    ``result()`` or ``cancel()`` on any queued future runs every queued
    chunk — the *wave* — in submission order through one
    :func:`evaluate_individuals_batch` call and hands each future its
    slots.  A generation submitted at chunk size 1 therefore enters its
    problem once, not once per individual: in-process there are no
    workers to spread chunks over, so the chunk size changes nothing.

    An exception escaping the batch call propagates to whoever polled,
    and every future of the wave resolves to that exception in each of
    its slots.  Like every backend, one instance has one polling thread
    (the engine's or the service's dispatcher), so the
    queue takes no lock.
    """

    is_execution_backend = True

    def __init__(self) -> None:
        #: chunks submitted since the last wave ran, in submission order
        self._queue: list[QueuedFuture] = []

    def submit(self, individual: Any) -> SlotFuture:
        return SlotFuture(self.submit_batch([individual]))

    def submit_batch(self, individuals: Sequence[Any]) -> QueuedFuture:
        future = QueuedFuture(self, list(individuals))
        self._queue.append(future)
        return future

    def _run_wave(self) -> None:
        # detach first: a chunk submitted from inside the problem call
        # joins the next wave
        wave, self._queue = self._queue, []
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
