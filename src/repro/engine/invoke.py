"""The sanctioned entry points into a problem's evaluation.

Everything outside :mod:`repro.engine` (and the robust individual's own
exception fallback) must reach ``Problem.evaluate`` /
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


def cache_serves(individual: Any) -> bool:
    """Would ``individual``'s problem answer it from its evaluation
    cache?  The probe every dispatcher (the engine, the thread
    cluster's client) makes before spending a worker on a candidate.

    Duck-typed on a ``cache`` attribute plus a ``cache_key`` method
    (:class:`repro.store.cache.CachedProblem`, or anything that wraps
    one and delegates).  ``cache.contains`` validates the entry, so a
    torn file is a miss here and its candidate is dispatched like any
    other; after a hit, re-entering the problem is an index lookup.
    An undecodable or unhashable candidate is a miss too: it fails
    where every other evaluation failure is handled.
    """
    problem = getattr(individual, "problem", None)
    cache = getattr(problem, "cache", None)
    key_fn = getattr(problem, "cache_key", None)
    if cache is None or key_fn is None:
        return False
    try:
        return bool(cache.contains(key_fn(individual.decode())))
    except Exception:  # noqa: BLE001 - execute normally
        return False


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
