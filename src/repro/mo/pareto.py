"""Pareto-front extraction and incremental archives."""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.evo.individual import MAXINT, Individual
from repro.mo.dominance import dominates, non_dominated_mask


def viable_fitness_rows(individuals: Iterable[Any]) -> np.ndarray:
    """The fitness rows of the evaluated, viable, finite members of
    ``individuals``, in order, as one ``(k, n_objectives)`` array (no
    rows: shape ``(0,)``) — what the live telemetry and the
    hypervolume stopper measure.

    One stack and two masks when every member is an :class:`Individual`
    with a fitness vector of one shared, nonzero width; otherwise
    (ragged widths, duck-typed members) the same filter row by row,
    where a member without ``is_viable`` is taken as viable.
    """
    evaluated = [
        ind for ind in individuals if getattr(ind, "fitness", None) is not None
    ]
    if all(isinstance(ind, Individual) for ind in evaluated):
        try:
            F = np.array([ind.fitness for ind in evaluated], dtype=np.float64)
        except ValueError:  # ragged
            F = None
        if F is not None and F.ndim == 2 and F.shape[1]:
            keep = (F < MAXINT).all(axis=1) & np.isfinite(F).all(axis=1)
            return F[keep]
    rows = []
    for ind in evaluated:
        if not getattr(ind, "is_viable", True):
            continue
        arr = np.asarray(ind.fitness, dtype=np.float64).ravel()
        if arr.size and np.all(np.isfinite(arr)):
            rows.append(arr)
    return np.asarray(rows)


def pareto_front(
    population: Sequence[Individual], require_viable: bool = True
) -> list[Individual]:
    """Non-dominated individuals of ``population``.

    With ``require_viable`` (default), MAXINT-failure individuals are
    excluded first — a failed training can never sit on the frontier of
    Fig. 2.  The result is sorted by the first objective.
    """
    pool = [
        ind
        for ind in population
        if ind.fitness is not None
        and (ind.is_viable or not require_viable)
    ]
    if not pool:
        return []
    F = np.asarray([ind.fitness for ind in pool])
    mask = non_dominated_mask(F)
    front = [ind for ind, keep in zip(pool, mask) if keep]
    front.sort(key=lambda ind: tuple(np.atleast_1d(ind.fitness)))
    return front


class ParetoArchive:
    """An incrementally maintained non-dominated set.

    Useful when aggregating candidates across many EA runs (the paper
    aggregates the last generations of all five runs) without holding
    every individual in memory.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._members: list[Individual] = []
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    @property
    def members(self) -> list[Individual]:
        return sorted(
            self._members, key=lambda ind: tuple(np.atleast_1d(ind.fitness))
        )

    def add(self, candidate: Individual) -> bool:
        """Insert ``candidate`` if non-dominated; evict what it dominates.

        Returns True when the candidate was admitted.  When a capacity
        is set and exceeded, the most crowded member (smallest nearest-
        neighbour distance in objective space) is dropped.
        """
        if candidate.fitness is None:
            raise ValueError("cannot archive an unevaluated individual")
        if not candidate.is_viable:
            return False
        cf = np.atleast_1d(candidate.fitness)
        for member in self._members:
            mf = np.atleast_1d(member.fitness)
            if dominates(mf, cf) or np.array_equal(mf, cf):
                return False
        self._members = [
            m
            for m in self._members
            if not dominates(cf, np.atleast_1d(m.fitness))
        ]
        self._members.append(candidate)
        if self.capacity is not None and len(self._members) > self.capacity:
            self._evict_most_crowded()
        return True

    def add_all(self, candidates: Iterable[Individual]) -> int:
        """Add many; returns how many were admitted."""
        return sum(1 for c in candidates if self.add(c))

    def _evict_most_crowded(self) -> None:
        F = np.asarray([np.atleast_1d(m.fitness) for m in self._members])
        d = np.linalg.norm(F[:, None, :] - F[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        nearest = d.min(axis=1)
        # never evict objective-wise extremes
        for j in range(F.shape[1]):
            nearest[np.argmin(F[:, j])] = np.inf
            nearest[np.argmax(F[:, j])] = np.inf
        self._members.pop(int(np.argmin(nearest)))

    def fitness_matrix(self) -> np.ndarray:
        if not self._members:
            return np.zeros((0, 0))
        return np.asarray(
            [np.atleast_1d(m.fitness) for m in self.members]
        )
