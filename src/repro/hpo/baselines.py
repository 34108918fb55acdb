"""Baseline hyperparameter-search strategies.

The paper motivates the EA against "the commonly used grid-based
search", noting that ten grid points per parameter would cost 10^7
evaluations versus the campaign's 3500 (§1, §3.1), and argues that a
*multiobjective* formulation is required because minimizing either
loss alone (or a fixed weighted sum) misses the energy–force coupling.
These baselines make both comparisons measurable:

:func:`grid_search`
    Full-factorial grid over the seven genes (optionally budgeted by
    subsampling the factorial lattice uniformly at random, since 10^7
    surrogate evaluations is wasteful even when cheap).
:func:`random_search`
    Bergstra & Bengio (2012) uniform random sampling.
:func:`weighted_sum_ea`
    A single-objective generational EA on ``w·energy + (1-w)·force``
    using the same mutation/annealing machinery as the NSGA-II
    deployment.

Each runs under :func:`repro.evo.algorithm.run_driver` on one
run-scoped, deduplicating :class:`repro.engine.EvaluationEngine` (the
caller's, or one over ``client``, e.g. a process pool), grid and random
search as a :class:`~repro.evo.algorithm.DesignDriver`: the baselines
compete against NSGA-II on equal infrastructure, not just equal budgets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.engine import EvaluationEngine, call_problem_batch
from repro.evo import ops
from repro.evo.algorithm import DesignDriver, Driver, NSGA2Driver, run_driver
from repro.evo.individual import Individual
from repro.evo.problem import BatchProblem, Problem
from repro.hpo.representation import DeepMDRepresentation
from repro.rng import RngLike, ensure_rng


@dataclass
class SearchResult:
    """Outcome of a baseline search.

    ``evaluations`` counts every candidate resolved (the search's
    nominal budget); ``fresh`` and ``cache_hits`` break out how many
    actually trained versus replayed from the evaluation cache.
    """

    evaluated: list[Individual]
    evaluations: int
    fresh: int = 0
    cache_hits: int = 0


def _sweep(
    driver: Driver,
    generations: int,
    client: Any,
    engine: Optional[EvaluationEngine],
) -> SearchResult:
    """Run ``driver`` on ``engine``, else a run-scoped deduplicating one
    over ``client``, one backend task per candidate; count what it used."""
    if engine is None:
        engine = EvaluationEngine(client=client, dedup=True, dedup_scope="run")
    before = engine.stats.copy()
    records = run_driver(driver, generations, engine=engine, chunk_size=1)
    used = engine.stats.delta(before)
    return SearchResult(
        evaluated=[ind for record in records for ind in record.evaluated],
        evaluations=used.completed,
        fresh=used.fresh,
        cache_hits=used.cache_hits,
    )


def design_search(
    problem: Problem,
    genomes: list[np.ndarray],
    client: Any = None,
    engine: Optional[EvaluationEngine] = None,
) -> SearchResult:
    """Evaluate a fixed list of genomes: one record of a
    :class:`~repro.evo.algorithm.DesignDriver`, decoded as Table 1."""
    rep = DeepMDRepresentation
    driver = DesignDriver(
        problem,
        rep.init_ranges,
        len(genomes),
        decoder=rep.decoder(),
        genomes=genomes,
    )
    return _sweep(driver, 0, client, engine)


def grid_search(
    problem: Problem,
    points_per_gene: int = 10,
    budget: Optional[int] = None,
    rng: RngLike = None,
    client: Any = None,
    engine: Optional[EvaluationEngine] = None,
) -> SearchResult:
    """Full-factorial grid over the Table 1 ranges.

    With 7 genes and 10 points each the lattice holds 10^7 nodes —
    the paper's "brute-force" figure.  ``budget`` caps the number of
    lattice nodes actually evaluated by sampling them uniformly
    without replacement, preserving the grid's coverage
    characteristics while making the comparison computable.
    """
    if points_per_gene < 2:
        raise ValueError("need at least two points per gene")
    gen = ensure_rng(rng)
    ranges = DeepMDRepresentation.init_ranges
    axes = [
        np.linspace(lo, hi, points_per_gene) for lo, hi in ranges
    ]
    total = points_per_gene ** len(axes)
    if budget is None or budget >= total:
        nodes = itertools.product(range(points_per_gene), repeat=len(axes))
    else:
        flat = gen.choice(total, size=budget, replace=False)
        nodes = zip(*np.unravel_index(flat, [points_per_gene] * len(axes)))
    genomes = [np.array([a[i] for a, i in zip(axes, node)]) for node in nodes]
    return design_search(problem, genomes, client, engine)


def random_search(
    problem: Problem,
    budget: int,
    rng: RngLike = None,
    client: Any = None,
    engine: Optional[EvaluationEngine] = None,
) -> SearchResult:
    """Uniform random sampling within the initialization ranges."""
    gen = ensure_rng(rng)
    ranges = DeepMDRepresentation.init_ranges
    genomes = [gen.uniform(ranges[:, 0], ranges[:, 1]) for _ in range(budget)]
    return design_search(problem, genomes, client, engine)


def weighted_sum_ea(
    problem: Problem,
    weight_energy: float = 0.5,
    pop_size: int = 50,
    generations: int = 6,
    anneal_factor: float = 0.85,
    rng: RngLike = None,
    client: Any = None,
    engine: Optional[EvaluationEngine] = None,
) -> SearchResult:
    """Single-objective EA on a fixed weighted sum of the two losses.

    Because energy (eV/atom) and force (eV/Å) errors live on different
    scales and trade off, any fixed weighting collapses the frontier to
    one point — this baseline exists to demonstrate what the
    multiobjective formulation buys.
    """
    if not 0.0 <= weight_energy <= 1.0:
        raise ValueError("weight_energy must be in [0, 1]")
    rep = DeepMDRepresentation
    driver = _WeightedSumDriver(
        _WeightedSumProblem(problem, weight_energy),
        rep.init_ranges,
        pop_size,
        rep.bounds,
        rep.decoder(),
        rng=rng,
        initial_std=rep.mutation_std,
        anneal_factor=anneal_factor,
    )
    return _sweep(driver, generations, client, engine)


@dataclass(eq=False, kw_only=True)
class _WeightedSumDriver(NSGA2Driver):
    """NSGA-II's uniform record 0, mutation and ×``anneal_factor`` decay
    around one objective: binary tournaments pick the parents to clone,
    and the lowest scalar fitness survives."""

    select = staticmethod(ops.tournament_selection)

    def survivors(self, offspring: list[Individual]) -> list[Individual]:
        return ops.truncation_selection(size=self.pop_size)(
            self.parents + offspring
        )


class _WeightedSumProblem(BatchProblem):
    """Scalarized view of a two-objective problem.

    The underlying objective vector is preserved in the individual's
    metadata (key ``"objectives"``) so comparisons against
    multiobjective strategies remain possible after the collapse.
    """

    n_objectives = 1

    def __init__(self, problem: Problem, weight_energy: float) -> None:
        self.problem = problem
        self.weight_energy = float(weight_energy)

    def _scalarize(self, fitness, meta):
        # normalize scales: energy errors are roughly 10x smaller
        scalar = np.array(
            [
                self.weight_energy * fitness[0] * 10.0
                + (1.0 - self.weight_energy) * fitness[1]
            ]
        )
        meta = dict(meta)
        meta["objectives"] = np.asarray(fitness, dtype=np.float64)
        return scalar, meta

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        """Scalarize each slot of the inner problem's batch outcome;
        failed slots (exception instances) pass through untouched."""
        inner = call_problem_batch(self.problem, phenomes, uuids=uuids)
        return [
            slot
            if isinstance(slot, BaseException)
            else self._scalarize(*slot)
            for slot in inner
        ]
