"""Fitness-function abstractions.

All problems in this package are **minimization** problems returning a
NumPy fitness array — matching the paper, where "both fitness
objectives were minimization problems" (energy and force validation
RMSE).  Scalar problems return one-element arrays so single- and
multiobjective code paths are uniform.

The contract is **batch-first**: a population is the natural unit of
work for NSGA-II (one generation = one embarrassingly parallel batch of
trainings, §2.2.5), so every problem answers
:meth:`Problem.evaluate_batch` — vectorized problems in one array
sweep, everything else through the default per-phenome fallback defined
here (the *only* sanctioned per-individual evaluation loop outside
:mod:`repro.engine`; the AST guard in ``tests/test_engine.py`` bans any
other).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

#: an element of a batch-evaluation result: either a ``(fitness,
#: metadata)`` pair or the exception that phenome's evaluation raised —
#: one phenome failing never aborts its batch (per-genome MAXINT
#: failure semantics are applied downstream by the engine)
BatchOutcome = Any


class Problem:
    """Base problem: maps a phenome to a minimization fitness vector."""

    #: number of objectives (subclasses should set this)
    n_objectives: int = 1

    def evaluate(self, phenome: Any) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def evaluate_batch(self, phenomes: Sequence[Any]) -> np.ndarray:
        """Evaluate a whole population; returns an ``(n, n_objectives)``
        array.

        Default: the loop fallback over :meth:`evaluate`.  Problems
        whose surface vectorizes (e.g. the surrogate landscape) override
        this with one NumPy call per population.  Exceptions propagate —
        callers needing per-phenome failure isolation go through
        :func:`repro.engine.invoke.call_problem_batch` instead.
        """
        return np.asarray(
            [
                np.atleast_1d(
                    np.asarray(self.evaluate(p), dtype=np.float64)
                )
                for p in phenomes
            ],
            dtype=np.float64,
        )

    def worse_than(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Strict Pareto-dominance check: is ``a`` dominated by ``b``?"""
        a = np.atleast_1d(a)
        b = np.atleast_1d(b)
        return bool(np.all(b <= a) and np.any(b < a))


class WithMetadataProblem(Problem):
    """Shared base for problems implementing ``evaluate_with_metadata``.

    The evaluator, the surrogate landscape, the weighted-sum scalarizer,
    the cache wrapper, and the CLI kill-harness all used to carry their
    own copies of the same three fragments; they live here once so the
    batch contract is added in one place:

    * :meth:`evaluate` — the plain-fitness view, delegating through
      :func:`repro.engine.invoke.call_problem`;
    * :meth:`evaluate_batch_with_metadata` — the batch entry point
      (default: per-phenome fallback with per-phenome failure capture;
      vectorized subclasses override it);
    * :meth:`attach_failure_metadata` — the standard ``failed`` /
      ``failure_cause`` annotation every escaping exception carries.
    """

    def evaluate(self, phenome: Any) -> np.ndarray:
        from repro.engine.invoke import call_problem

        fitness, _ = call_problem(self, phenome)
        return fitness

    def evaluate_batch_with_metadata(
        self,
        phenomes: Sequence[Any],
        uuids: Optional[Sequence[Optional[str]]] = None,
    ) -> list[BatchOutcome]:
        """Evaluate a batch; one outcome slot per phenome.

        Each slot is a ``(fitness, metadata)`` pair or the exception
        that phenome raised — a failing phenome never aborts the rest
        of its batch.  The default runs the per-phenome fallback;
        vectorized problems override this.
        """
        from repro.engine.invoke import call_problem

        if uuids is None:
            uuids = [None] * len(phenomes)
        outcomes: list[BatchOutcome] = []
        for phenome, uuid in zip(phenomes, uuids):
            try:
                outcomes.append(call_problem(self, phenome, uuid=uuid))
            except Exception as exc:  # noqa: BLE001 - isolated per slot
                outcomes.append(exc)
        return outcomes

    @staticmethod
    def attach_failure_metadata(
        exc: BaseException, phenome: Any, **extra: Any
    ) -> dict[str, Any]:
        """Annotate ``exc`` with the standard failure metadata (§2.2.4)
        and return the dict (also left on ``exc.metadata``)."""
        meta = dict(getattr(exc, "metadata", None) or {})
        meta.setdefault("phenome", dict(phenome) if isinstance(phenome, dict) else phenome)
        meta.setdefault("failed", True)
        meta.setdefault("failure_cause", f"{type(exc).__name__}: {exc}")
        for key, value in extra.items():
            meta.setdefault(key, value)
        exc.metadata = meta  # type: ignore[attr-defined]
        return meta


class BatchProblem(WithMetadataProblem):
    """A problem whose only body is its batch entry point, which a
    subclass must override: the scalar :meth:`evaluate_with_metadata`
    is a batch of one, its slot raised when it is an exception."""

    def evaluate_with_metadata(
        self, phenome: Any, uuid: Optional[str] = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        (outcome,) = self.evaluate_batch_with_metadata([phenome], [uuid])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class FunctionProblem(Problem):
    """Wrap a plain callable returning a scalar or a fitness vector."""

    def __init__(
        self, fn: Callable[[Any], Any], n_objectives: int = 1
    ) -> None:
        self.fn = fn
        self.n_objectives = int(n_objectives)

    def evaluate(self, phenome: Any) -> np.ndarray:
        return np.atleast_1d(
            np.asarray(self.fn(phenome), dtype=np.float64)
        )


class ConstantProblem(Problem):
    """Always returns the same fitness — useful in operator tests."""

    def __init__(self, fitness: Sequence[float] = (0.0,)) -> None:
        self._fitness = np.asarray(fitness, dtype=np.float64)
        self.n_objectives = len(self._fitness)

    def evaluate(self, phenome: Any) -> np.ndarray:
        return self._fitness.copy()
