"""Surrogate-assisted Pareto acquisition on the evaluation engine.

Thomas du Toit et al. show BO-style surrogate search dominating
evolutionary baselines for ACE potential tuning; this driver is that
scheme over the same genome/engine contract as the other drivers:

1. evaluate a random initial population (generation 0);
2. each iteration, fit an **RBF surrogate** (Gaussian kernel, ridge
   regularized, pure NumPy — one model per objective via a shared
   linear solve) over the normalized genome embedding of every viable
   evaluation so far;
3. score a large candidate pool (uniform explorers + Gaussian
   perturbations of the current front) with the surrogate and pick a
   batch of ``pop_size`` proposals by **greedy expected-hypervolume
   improvement** (EPDC/EHVI-style: each pick maximizes the dominated
   hypervolume the *predicted* point adds to the predicted front, so a
   batch spreads along the front instead of piling on one corner);
4. evaluate the proposal batch through the engine's batch data plane
   (``evaluate_batch`` — dedup, cache probe, MAXINT failure policy,
   journaling all apply unchanged).

Every stochastic draw flows through the single run RNG in a fixed
order and the surrogate refit is a pure function of the evaluation
history, so the whole trajectory is deterministic given (seed,
problem): a killed run resumes bit-identically by restoring the
journaled history and RNG state — no extra driver state is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.evo.algorithm import (
    Driver,
    GenerationRecord,
    RestoredRun,
)
from repro.evo.individual import Individual
from repro.evo.nsga2 import nsga2_select
from repro.mo.dominance import non_dominated_mask
from repro.mo.metrics import default_reference, hypervolume


class RBFSurrogate:
    """Gaussian radial-basis interpolant over the unit-cube genome
    embedding, one output column per objective.

    ``fit`` solves ``(K + ridge·I) W = Y`` once; ``predict`` is a
    kernel matrix product.  The length scale is the median pairwise
    training distance (a standard, parameter-free choice).  Everything
    is deterministic, which the resume bit-identity contract requires.
    """

    def __init__(self, ridge: float = 1e-6) -> None:
        self.ridge = float(ridge)
        self._X: Optional[np.ndarray] = None
        self._W: Optional[np.ndarray] = None
        self._eps: float = 1.0

    @property
    def is_fit(self) -> bool:
        return self._W is not None

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "RBFSurrogate":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
        off_diag = D[~np.eye(len(X), dtype=bool)]
        eps = float(np.median(off_diag)) if off_diag.size else 1.0
        self._eps = eps if eps > 0 else 1.0
        K = np.exp(-((D / self._eps) ** 2))
        K = K + self.ridge * np.eye(len(X))
        try:
            W = np.linalg.solve(K, Y)
        except np.linalg.LinAlgError:
            W = np.linalg.lstsq(K, Y, rcond=None)[0]
        self._X, self._W = X, W
        return self

    def predict(self, Xq: np.ndarray) -> np.ndarray:
        if self._X is None or self._W is None:
            raise RuntimeError("predict before fit")
        Xq = np.asarray(Xq, dtype=np.float64)
        D = np.linalg.norm(Xq[:, None, :] - self._X[None, :, :], axis=-1)
        return np.exp(-((D / self._eps) ** 2)) @ self._W


def _greedy_ehvi_picks(
    predicted: np.ndarray,
    base_front: np.ndarray,
    reference: np.ndarray,
    n_picks: int,
) -> list[int]:
    """Greedy batch selection by predicted hypervolume improvement.

    Each pick maximizes ``hv(front ∪ {ŷ}) − hv(front)`` against the
    *predicted* front, which then absorbs the pick — so later picks are
    pushed toward uncovered regions.  Ties (including the all-zero
    late-game case) resolve to the lowest candidate index, keeping the
    selection deterministic.
    """
    front = np.asarray(base_front, dtype=np.float64).reshape(
        -1, predicted.shape[1]
    )
    base_hv = hypervolume(front, reference)
    remaining = list(range(len(predicted)))
    picks: list[int] = []
    for _ in range(min(n_picks, len(remaining))):
        gains = np.empty(len(remaining))
        for slot, idx in enumerate(remaining):
            trial = np.vstack([front, predicted[idx][None, :]])
            gains[slot] = hypervolume(trial, reference) - base_hv
        best_slot = int(np.argmax(gains))
        best = remaining.pop(best_slot)
        picks.append(best)
        front = np.vstack([front, predicted[best][None, :]])
        front = front[non_dominated_mask(front)]
        base_hv = hypervolume(front, reference)
    return picks


@dataclass(eq=False, kw_only=True)
class SurrogateDriver(Driver):
    """The acquisition as an ask/tell driver: ``ask`` refits the
    surrogate on the evaluation history and proposes a batch (record
    0: a random one), ``tell`` appends the batch to the history and
    folds it into the elitist pool the record reports.

    ``reference`` fixes the acquisition's hypervolume corner (default:
    the campaign-fixed :func:`repro.mo.metrics.default_reference` for
    the problem's dimensionality)."""

    initial_std: np.ndarray
    pool_multiplier: int = 4
    explore_fraction: float = 0.5
    perturb_scale: float = 2.0
    ridge: float = 1e-6
    reference: Optional[Any] = None

    span_name = "surrogate.iteration"

    def __post_init__(self) -> None:
        super().__post_init__()
        width = self.bounds[:, 1] - self.bounds[:, 0]
        self.width = np.where(width > 0, width, 1.0)
        self.std = np.asarray(self.initial_std, dtype=np.float64) * float(
            self.perturb_scale
        )
        self.n_objectives = int(getattr(self.problem, "n_objectives", 2))
        self.ref = (
            np.ravel(np.asarray(self.reference, dtype=np.float64))
            if self.reference is not None
            else np.asarray(default_reference(self.n_objectives))
        )
        self.history: list[Individual] = []
        self.population: list[Individual] = []

    def _normalize(self, genomes: np.ndarray) -> np.ndarray:
        return (genomes - self.bounds[:, 0]) / self.width

    def ask(self) -> list[Individual]:
        if self.generation == 0:
            return self.individuals(self.uniform_genomes(self.pop_size))
        gen_rng, bounds = self.rng, self.bounds
        pop_size, n_genes = self.pop_size, len(self.ranges)
        viable = [ind for ind in self.history if ind.is_viable]
        self.span_tags = {"surrogate_points": len(viable)}
        n_pool = max(int(self.pool_multiplier) * pop_size, pop_size)
        n_explore = int(round(n_pool * float(self.explore_fraction)))
        explore = self.uniform_genomes(n_explore)
        n_exploit = n_pool - n_explore
        if viable and n_exploit > 0:
            F = np.asarray([ind.fitness for ind in viable])
            front_members = [
                ind
                for ind, keep in zip(viable, non_dominated_mask(F))
                if keep
            ]
            anchors = gen_rng.integers(len(front_members), size=n_exploit)
            noise = gen_rng.normal(
                0.0, 1.0, size=(n_exploit, n_genes)
            ) * self.std
            exploit = np.clip(
                np.asarray(
                    [front_members[int(a)].genome for a in anchors]
                )
                + noise,
                bounds[:, 0],
                bounds[:, 1],
            )
            pool = np.vstack([explore, exploit])
        else:
            extra = self.uniform_genomes(max(n_exploit, 0))
            pool = np.vstack([explore, extra])
        # fit the surrogate on everything viable so far; until
        # there is enough signal, fall back to the raw pool order
        # (still deterministic)
        if len(viable) >= max(2 * n_genes, 4):
            X = self._normalize(np.asarray([ind.genome for ind in viable]))
            Y = np.asarray([ind.fitness for ind in viable])
            model = RBFSurrogate(ridge=self.ridge).fit(X, Y)
            predicted = model.predict(self._normalize(pool))
            base_front = (
                Y[non_dominated_mask(Y)]
                if len(Y)
                else np.empty((0, self.n_objectives))
            )
            picks = _greedy_ehvi_picks(
                predicted, base_front, self.ref, pop_size
            )
        else:
            picks = list(range(pop_size))
        return self.individuals(pool[picks])

    def tell(self, batch: list[Individual]) -> GenerationRecord:
        self.history.extend(batch)
        self.population = nsga2_select(
            list(self.population) + list(batch), self.pop_size
        )
        return self.record(self.population, batch, self.std.copy())

    def restore(self, run: RestoredRun) -> None:
        """The history is every record's ``evaluated`` in order — the
        surrogate refits from it, so no extra state is journaled."""
        super().restore(run)
        self.history = [
            ind for record in run.records for ind in record.evaluated
        ]
        self.population = list(run.records[-1].population)
