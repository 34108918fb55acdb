"""The sanctioned entry points into a problem's evaluation.

Everything outside :mod:`repro.engine` — the individuals' own
``evaluate`` included — must reach ``Problem.evaluate`` /
``evaluate_with_metadata`` through these helpers, and must build the
§2.2.4 failure fitness through :func:`failure_fitness` — the AST guard
in ``tests/test_engine.py`` keeps it that way, so the failure policy
cannot quietly fork again.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.exceptions import MAXINT

#: one slot of a batch call: ``(fitness, metadata)`` or the exception
#: that phenome raised
BatchOutcome = Any


def failure_fitness(n_objectives: int) -> np.ndarray:
    """The all-``MAXINT`` fitness a failed evaluation receives.

    Large, finite, and totally ordered, so NSGA-II sorting stays well
    defined (the paper's fix for LEAP's NaN-on-failure default).
    """
    return np.full(int(n_objectives), MAXINT, dtype=np.float64)


def apply_failure(individual: Any, exc: BaseException) -> None:
    """The §2.2.4 exception→MAXINT policy, landed on ``individual``:
    the engine's copy for every dispatched candidate, served failure,
    worker death and timeout, and for a robust individual evaluated
    directly.  The width is the individual's objective count, else its
    problem's."""
    n_objectives = getattr(individual, "n_objectives", None) or (
        getattr(getattr(individual, "problem", None), "n_objectives", None)
        or 1
    )
    individual.fitness = failure_fitness(n_objectives)
    individual.metadata["error"] = f"{type(exc).__name__}: {exc}"
    individual.metadata.update(getattr(exc, "metadata", None) or {})
    individual.metadata.setdefault("failed", True)
    individual.metadata.setdefault(
        "failure_cause", f"{type(exc).__name__}: {exc}"
    )


def land(individual: Any, outcome: BatchOutcome) -> None:
    """Land one outcome slot on ``individual`` in place: a ``(fitness,
    metadata)`` pair is merged the way ``Individual.evaluate`` merges an
    in-process result, an exception goes through :func:`apply_failure`."""
    if isinstance(outcome, BaseException):
        apply_failure(individual, outcome)
    else:
        fitness, metadata = outcome
        individual.fitness = fitness
        individual.metadata.update(metadata)


def serve_from_cache(individual: Any) -> Optional[BatchOutcome]:
    """The outcome ``individual``'s problem serves from its evaluation
    cache, or None.  The probe the engine makes before spending a
    worker on a candidate; on a hit it is the answer itself, which the
    caller lands with :func:`land` — nothing re-enters the problem.

    Duck-typed on a ``serve`` method
    (:meth:`repro.store.cache.CachedProblem.serve`, or anything that
    wraps one and delegates).  It validates the entry, so a torn file
    is a miss here and its candidate is dispatched like any other.  An
    undecodable or unhashable candidate is a miss too: it fails where
    every other evaluation failure is handled.
    """
    serve = getattr(getattr(individual, "problem", None), "serve", None)
    if serve is None:
        return None
    try:
        return serve(individual.decode())
    except Exception:  # noqa: BLE001 - execute normally
        return None


def call_problem(
    problem: Any, phenome: Any, uuid: Optional[str] = None
) -> tuple[np.ndarray, dict[str, Any]]:
    """Dispatch one evaluation, normalizing the two problem interfaces.

    Problems exposing ``evaluate_with_metadata`` (returning a
    ``(fitness, metadata)`` pair) are preferred — the metadata carries
    the runtime the paper tracks; plain ``evaluate`` problems get an
    empty metadata dict.  Exceptions propagate to the caller, which
    owns the failure policy.
    """
    if hasattr(problem, "evaluate_with_metadata"):
        fitness, metadata = problem.evaluate_with_metadata(
            phenome, uuid=uuid
        )
        return (
            np.atleast_1d(np.asarray(fitness, dtype=np.float64)),
            dict(metadata),
        )
    fitness = problem.evaluate(phenome)
    return np.atleast_1d(np.asarray(fitness, dtype=np.float64)), {}


def call_problem_batch(
    problem: Any,
    phenomes: Sequence[Any],
    uuids: Optional[Sequence[Optional[str]]] = None,
) -> list[BatchOutcome]:
    """Dispatch a batch of evaluations with per-phenome failure capture.

    Returns one outcome per phenome, **in order**: a normalized
    ``(fitness, metadata)`` pair, or the exception that phenome raised.
    A failing phenome never aborts its batch — the caller (the engine)
    applies the MAXINT failure policy per genome.  Problems exposing
    ``evaluate_batch_with_metadata`` answer the whole batch at once
    (vectorized problems in one NumPy sweep); everything else falls
    back to per-phenome :func:`call_problem`.
    """
    if uuids is None:
        uuids = [None] * len(phenomes)
    if hasattr(problem, "evaluate_batch_with_metadata"):
        outcomes: list[BatchOutcome] = []
        raw = problem.evaluate_batch_with_metadata(phenomes, uuids=uuids)
        for slot in raw:
            if isinstance(slot, BaseException):
                outcomes.append(slot)
            else:
                fitness, metadata = slot
                outcomes.append(
                    (
                        np.atleast_1d(
                            np.asarray(fitness, dtype=np.float64)
                        ),
                        dict(metadata),
                    )
                )
        return outcomes
    outcomes = []
    for phenome, uuid in zip(phenomes, uuids):
        try:
            outcomes.append(call_problem(problem, phenome, uuid=uuid))
        except Exception as exc:  # noqa: BLE001 - isolated per slot
            outcomes.append(exc)
    return outcomes
