"""Individuals: genomes, fitnesses, UUIDs, and robust evaluation.

§2.2.4: "the LEAP ``DistributedIndividual`` class ... catches
exceptions that are raised during evaluation and assigns an IEEE 754
``NaN`` as the fitnesses.  However, NSGA-II sorts all individuals by
their fitnesses, and sorting values that include ``NaN``\\ s yields
undefined behavior.  Therefore we implemented a subclass ... that
overrode the default exception handling behavior and assigned
``MAXINT`` as fitnesses instead."  :class:`RobustIndividual` is that
subclass.
"""

from __future__ import annotations

import uuid as uuid_module
from typing import Any, Optional

import numpy as np

from repro.engine.invoke import apply_failure, call_problem, land

# re-exported for compatibility; repro.exceptions is the source of truth
from repro.exceptions import MAXINT


def _scored(individual: "Individual") -> tuple[np.ndarray, dict[str, Any]]:
    """``individual``'s decoded genome through
    :func:`~repro.engine.invoke.call_problem`; exceptions propagate."""
    if individual.problem is None:
        raise ValueError("individual has no problem to evaluate against")
    return call_problem(
        individual.problem, individual.decode(), uuid=individual.uuid
    )


class Individual:
    """A candidate solution.

    Parameters
    ----------
    genome:
        Real-valued gene vector (copied to a float64 array).
    decoder / problem:
        Optional; when provided, :meth:`evaluate` decodes the genome
        and scores the phenome.

    Every individual is automatically assigned a UUID on creation
    (§2.2.4 step 2a) — the EA uses it to name training directories.
    """

    def __init__(
        self,
        genome,
        decoder: Optional[Any] = None,
        problem: Optional[Any] = None,
    ) -> None:
        self.genome = np.asarray(genome, dtype=np.float64).copy()
        self.decoder = decoder
        self.problem = problem
        self.fitness: Optional[np.ndarray] = None
        self.uuid: str = str(uuid_module.uuid4())
        self.rank: Optional[int] = None
        self.distance: Optional[float] = None
        #: arbitrary evaluation metadata (runtime, error strings, ...)
        self.metadata: dict[str, Any] = {}

    def decode(self) -> Any:
        """The phenome: decoded genome, or the raw genome if no decoder."""
        if self.decoder is None:
            return self.genome
        return self.decoder.decode(self.genome)

    def evaluate(self) -> "Individual":
        """Score this individual in place; exceptions propagate.

        The problem is called through the engine's
        :func:`~repro.engine.invoke.call_problem`: one exposing
        ``evaluate_with_metadata`` gets its metadata — e.g. the
        training runtime the paper tracks — merged into
        :attr:`metadata`.
        """
        land(self, _scored(self))
        return self

    @property
    def is_evaluated(self) -> bool:
        return self.fitness is not None

    @property
    def is_viable(self) -> bool:
        """False when evaluation failed (any fitness at MAXINT)."""
        return self.fitness is not None and bool(
            (self.fitness < MAXINT).all()
        )

    def clone(self) -> "Individual":
        """A fresh unevaluated copy with its own UUID."""
        child = type(self)(
            self.genome.copy(), decoder=self.decoder, problem=self.problem
        )
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fit = (
            np.array2string(self.fitness, precision=4)
            if self.fitness is not None
            else "unevaluated"
        )
        return (
            f"{type(self).__name__}(genome={np.array2string(self.genome, precision=4)},"
            f" fitness={fit})"
        )


class RobustIndividual(Individual):
    """Evaluation failures become ``MAXINT`` fitnesses (§2.2.4).

    Timeouts, divergence, bad configurations, and worker faults all
    raise; this subclass catches them, records the error message in
    :attr:`Individual.metadata`, and assigns the all-``MAXINT`` fitness
    so the individual sorts strictly worse than every viable solution —
    implicitly optimizing away from fatal hyperparameter combinations
    and long runtimes.
    """

    #: number of objectives to fill with MAXINT on failure
    n_objectives: int = 2

    def clone(self) -> "RobustIndividual":
        """A fresh unevaluated copy that fails as wide as its parent."""
        child = super().clone()
        child.n_objectives = self.n_objectives
        return child

    def evaluate(self) -> "RobustIndividual":
        try:
            land(self, _scored(self))
        except Exception as exc:  # noqa: BLE001 - the paper catches all
            apply_failure(self, exc)
        return self
