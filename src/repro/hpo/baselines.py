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

All three run their evaluations through
:class:`repro.engine.EvaluationEngine`, so a backend ``client`` fans a
sweep out across workers and a cached problem serves repeated phenomes
without retraining — the baselines compete against NSGA-II on equal
infrastructure, not just equal budgets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.engine import EvaluationEngine, call_problem_batch
from repro.evo import ops
from repro.evo.annealing import AnnealingSchedule
from repro.evo.decoder import MixedVectorDecoder
from repro.evo.individual import Individual, RobustIndividual
from repro.evo.problem import BatchProblem, FunctionProblem, Problem
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

    def fitness_matrix(self) -> np.ndarray:
        return np.asarray(
            [ind.fitness for ind in self.evaluated if ind.is_viable]
        )


def _make_individual(genome: np.ndarray, problem: Problem) -> Individual:
    ind = RobustIndividual(
        genome,
        decoder=DeepMDRepresentation.decoder(),
        problem=problem,
    )
    ind.n_objectives = problem.n_objectives
    return ind


def _engine_for(client: Any, engine: Optional[EvaluationEngine]):
    if engine is not None:
        return engine
    return EvaluationEngine(client=client, dedup=True, dedup_scope="run")


def _search_result(
    evaluated: list[Individual], engine: EvaluationEngine, before
) -> SearchResult:
    used = engine.stats.delta(before)
    return SearchResult(
        evaluated=evaluated,
        evaluations=used.completed,
        fresh=used.fresh,
        cache_hits=used.cache_hits,
    )


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
        lattice = itertools.product(*axes)
        genomes = (np.array(node) for node in lattice)
    else:
        flat = gen.choice(total, size=budget, replace=False)
        n = points_per_gene

        def node(index: int) -> np.ndarray:
            coords = []
            for axis in reversed(axes):
                coords.append(axis[index % n])
                index //= n
            return np.array(list(reversed(coords)))

        genomes = (node(int(i)) for i in flat)
    eng = _engine_for(client, engine)
    before = eng.stats.copy()
    evaluated = eng.evaluate(
        [_make_individual(g, problem) for g in genomes]
    )
    return _search_result(evaluated, eng, before)


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
    eng = _engine_for(client, engine)
    before = eng.stats.copy()
    evaluated = eng.evaluate(
        [
            _make_individual(
                gen.uniform(ranges[:, 0], ranges[:, 1]), problem
            )
            for _ in range(budget)
        ]
    )
    return _search_result(evaluated, eng, before)


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
    gen = ensure_rng(rng)

    scalar = _WeightedSumProblem(problem, weight_energy)
    ranges = DeepMDRepresentation.init_ranges
    schedule = AnnealingSchedule(
        DeepMDRepresentation.mutation_std, factor=anneal_factor
    )
    eng = _engine_for(client, engine)
    before = eng.stats.copy()
    population = eng.evaluate(
        [
            _make_individual(
                gen.uniform(ranges[:, 0], ranges[:, 1]), scalar
            )
            for _ in range(pop_size)
        ]
    )
    evaluated = list(population)
    for _ in range(generations):
        offspring = ops.pipe(
            population,
            lambda pop: ops.tournament_selection(pop, rng=gen),
            ops.clone,
            ops.mutate_gaussian(
                std=schedule.current,
                hard_bounds=DeepMDRepresentation.bounds,
                rng=gen,
            ),
            ops.eval_pool(size=pop_size, engine=eng),
        )
        evaluated.extend(offspring)
        population = ops.truncation_selection(size=pop_size)(
            population + offspring
        )
        schedule.step()
    return _search_result(evaluated, eng, before)


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
