"""Execution backends: where an evaluation actually runs.

The engine speaks one tiny protocol — ``submit_batch(individuals) ->
future`` with ``done()``/``result()`` semantics, the future resolving
to one outcome slot per individual — so the same driver code runs
candidates in-process, on the reproduction's thread cluster, or on a
real Dask deployment (the paper's §2.2.5 setup) without change.

Scalar ``submit(individual)`` is the same call for a chunk of one,
seen through :class:`SlotFuture`.  Only :class:`ClientBackend` builds
the other way round — one client task per individual, gathered by
:class:`AggregateFuture` — because a Dask-shaped client schedules
tasks, not chunks.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Protocol, Sequence, runtime_checkable

from repro.engine.invoke import call_problem_batch


def evaluate_individual(individual: Any) -> Any:
    """Evaluate one individual in place and return it.

    Module-level (hence picklable) so distributed backends can ship it
    to workers.  Robust individuals convert their own exceptions to
    ``MAXINT`` fitness; plain individuals let them propagate to the
    engine's failure policy.
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


class ResolvedFuture:
    """A future for work that finished at submit time."""

    def __init__(self, result: Any = None) -> None:
        self._result = result

    def done(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        return self._result


class InlineBackend:
    """Evaluate synchronously in the calling process.

    Submission runs the evaluation eagerly and returns an
    already-resolved future, so batch and streaming engine modes behave
    identically with or without a cluster.
    """

    is_execution_backend = True

    def submit(self, individual: Any) -> SlotFuture:
        return SlotFuture(self.submit_batch([individual]))

    def submit_batch(self, individuals: Sequence[Any]) -> ResolvedFuture:
        return ResolvedFuture(
            result=evaluate_individuals_batch(individuals)
        )

    def on_cache_hit(self, individual: Any) -> None:
        pass


class ClientBackend:
    """Fan evaluations out through a ``submit``-style client.

    Works with :class:`repro.distributed.Client` and anything
    Dask-shaped.  Cache hits resolved by the engine are reported to the
    client's scheduler (when it exposes ``task_cached``) so cluster
    accounting still shows the skipped tasks.
    """

    is_execution_backend = True

    def __init__(self, client: Any) -> None:
        self.client = client

    def submit(self, individual: Any) -> FutureLike:
        return self.client.submit(evaluate_individual, individual)

    def submit_batch(self, individuals: Sequence[Any]) -> AggregateFuture:
        return AggregateFuture(
            [self.submit(ind) for ind in individuals]
        )

    def on_cache_hit(self, individual: Any) -> None:
        scheduler = getattr(self.client, "scheduler", None)
        task_cached = getattr(scheduler, "task_cached", None)
        if task_cached is not None:
            task_cached(f"cached-{getattr(individual, 'uuid', '?')}")


def as_backend(client: Any = None) -> Any:
    """Coerce ``None`` / a client / a backend into a backend."""
    if client is None:
        return InlineBackend()
    if getattr(client, "is_execution_backend", False):
        return client
    if callable(getattr(client, "submit", None)):
        return ClientBackend(client)
    raise TypeError(
        f"{type(client).__name__} is neither an ExecutionBackend nor a "
        "submit()-style client"
    )
