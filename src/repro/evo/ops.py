"""Generator-based pipeline operators (the Listing 1 vocabulary).

LEAP composes EAs from operators connected by :func:`pipe`: a source
population feeds a chain of generator functions, and a *sink* operator
(here :func:`pool`) pulls as many individuals through the chain as it
needs.  Listing 1's evaluating sink is :func:`pool` followed by one
:meth:`repro.engine.EvaluationEngine.evaluate`, which
:func:`repro.evo.algorithm.run_driver` runs for every driver.  The
operators below reproduce the ones the paper's reproduction pipeline
uses, with the same semantics:

* :func:`random_selection` — an infinite stream of uniformly chosen
  parents ("For each offspring, a parent is randomly selected");
* :func:`clone` — fresh copies with new UUIDs;
* :func:`mutate_gaussian` — Gaussian mutation of **all** genes
  (``expected_num_mutations='isotropic'``) with per-gene standard
  deviations and hard bounds;
* :func:`pool` — accumulate ``size`` offspring for evaluation;
* :func:`truncation_selection` — keep the best ``size`` by a sort key
  (the NSGA-II ``(-rank, distance)`` key in the paper).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.engine import evaluate_stream
from repro.evo.individual import Individual
from repro.rng import RngLike, ensure_rng


def pipe(source: Any, *operators: Callable[[Any], Any]) -> Any:
    """``toolz.pipe`` clone: thread ``source`` through ``operators``."""
    value = source
    for op in operators:
        value = op(value)
    return value


# ----------------------------------------------------------------------
# stream sources / transforms
# ----------------------------------------------------------------------
def random_selection(
    population: Sequence[Individual], rng: RngLike = None
) -> Iterator[Individual]:
    """Infinite stream of uniformly random parents from ``population``."""
    gen = ensure_rng(rng)
    pop = list(population)
    if not pop:
        raise ValueError("cannot select from an empty population")
    while True:
        yield pop[int(gen.integers(len(pop)))]


def clone(stream: Iterable[Individual]) -> Iterator[Individual]:
    """Copy each incoming individual (fresh UUID, unevaluated)."""
    for ind in stream:
        yield ind.clone()


def mutate_gaussian(
    std: np.ndarray | float,
    expected_num_mutations: str | float = "isotropic",
    hard_bounds: Optional[np.ndarray] = None,
    rng: RngLike = None,
) -> Callable[[Iterable[Individual]], Iterator[Individual]]:
    """Gaussian mutation operator factory.

    Parameters
    ----------
    std:
        Per-gene standard deviations (or a scalar).  **Read at mutation
        time**, so passing the array stored in ``context['std']`` lets
        the annealing schedule update it between generations (Listing 1
        reads ``context['std']`` for exactly this reason).
    expected_num_mutations:
        ``'isotropic'`` mutates every gene (the paper's setting); a
        number ``k`` mutates each gene with probability ``k / n_genes``.
    hard_bounds:
        ``(n_genes, 2)`` array of ``(low, high)`` clip limits.
    """
    bounds = None if hard_bounds is None else np.asarray(hard_bounds, float)
    gen = ensure_rng(rng)

    def op(stream: Iterable[Individual]) -> Iterator[Individual]:
        for ind in stream:
            sigmas = np.broadcast_to(
                np.asarray(std, dtype=np.float64), ind.genome.shape
            )
            noise = gen.normal(0.0, 1.0, size=ind.genome.shape) * sigmas
            if expected_num_mutations == "isotropic":
                mask = 1.0
            else:
                p = float(expected_num_mutations) / len(ind.genome)
                mask = (gen.random(ind.genome.shape) < p).astype(float)
            ind.genome = ind.genome + noise * mask
            if bounds is not None:
                ind.genome = np.clip(ind.genome, bounds[:, 0], bounds[:, 1])
            ind.fitness = None
            yield ind

    return op


def evaluate(stream: Iterable[Individual]) -> Iterator[Individual]:
    """Evaluate each individual inline as it flows through.

    The per-individual loop lives in the engine layer
    (:func:`repro.engine.backends.evaluate_stream`) — the one
    sanctioned scalar evaluation loop outside the batch path.
    """
    return evaluate_stream(stream)


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def pool(size: int) -> Callable[[Iterable[Individual]], list[Individual]]:
    """Pull exactly ``size`` individuals from the stream into a list."""
    if size < 1:
        raise ValueError("pool size must be >= 1")

    def op(stream: Iterable[Individual]) -> list[Individual]:
        it = iter(stream)
        out = []
        for _ in range(size):
            try:
                out.append(next(it))
            except StopIteration:
                raise ValueError(
                    f"stream exhausted after {len(out)} of {size} individuals"
                ) from None
        return out

    return op


# ----------------------------------------------------------------------
# selection over materialized pools
# ----------------------------------------------------------------------
def truncation_selection(
    size: int, key: Optional[Callable[[Individual], Any]] = None
) -> Callable[[Sequence[Individual]], list[Individual]]:
    """Keep the ``size`` best individuals, largest key first.

    With no ``key``, single-objective minimization fitness is used
    (smaller is better).  The paper's NSGA-II pipeline passes
    ``key=lambda x: (-x.rank, x.distance)`` so lower ranks win and ties
    break toward larger crowding distance.
    """

    def op(population: Sequence[Individual]) -> list[Individual]:
        pop = list(population)
        if len(pop) < size:
            raise ValueError(
                f"cannot truncate {len(pop)} individuals down to {size}"
            )
        if key is None:
            ordered = sorted(pop, key=lambda ind: float(ind.fitness[0]))
        else:
            ordered = sorted(pop, key=key, reverse=True)
        return ordered[:size]

    return op


def tournament_selection(
    population: Sequence[Individual],
    rng: RngLike = None,
    k: int = 2,
    key: Optional[Callable[[Individual], Any]] = None,
) -> Iterator[Individual]:
    """Infinite stream of ``k``-way tournament winners.

    Used by the single-objective weighted-sum baseline; the default
    key is scalar minimization fitness.
    """
    gen = ensure_rng(rng)
    pop = list(population)
    if not pop:
        raise ValueError("cannot select from an empty population")

    def better(a: Individual, b: Individual) -> Individual:
        if key is not None:
            return a if key(a) > key(b) else b
        return a if float(a.fitness[0]) <= float(b.fitness[0]) else b

    while True:
        winner = pop[int(gen.integers(len(pop)))]
        for _ in range(k - 1):
            challenger = pop[int(gen.integers(len(pop)))]
            winner = better(winner, challenger)
        yield winner
