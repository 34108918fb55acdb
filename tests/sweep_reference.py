"""The five hand-written sweep loops of commit ``21aca31``, kept verbatim
as the oracle for the sweeps that now run under
:func:`repro.evo.algorithm.run_driver`.

``grid_search``, ``random_search`` and ``weighted_sum_ea`` are that
commit's :mod:`repro.hpo.baselines` functions with their helpers;
``one_at_a_time`` and ``morris_screening`` are its
:mod:`repro.hpo.sensitivity` functions with their serial
``call_problem`` → MAXINT evaluation.  The live functions must return
the same evaluated genomes, fitness bytes, engine counts and profile /
screening arrays (``tests/test_sweep_driver.py``).  The public
functions' docstrings were dropped, and the result types and the
scalarized problem, which still live in ``src/``, are imported.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

import numpy as np

from repro.engine import EvaluationEngine, call_problem, failure_fitness
from repro.evo import ops
from repro.evo.annealing import AnnealingSchedule
from repro.evo.individual import Individual, RobustIndividual
from repro.evo.problem import Problem
from repro.exceptions import MAXINT
from repro.hpo.baselines import SearchResult, _WeightedSumProblem
from repro.hpo.representation import DeepMDRepresentation, GENE_NAMES
from repro.hpo.sensitivity import MorrisResult, OATProfile
from repro.rng import RngLike, ensure_rng


# ----------------------------------------------------------------------
# repro.hpo.baselines
# ----------------------------------------------------------------------
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
            ops.pool(pop_size),
            eng.evaluate,
        )
        evaluated.extend(offspring)
        population = ops.truncation_selection(size=pop_size)(
            population + offspring
        )
        schedule.step()
    return _search_result(evaluated, eng, before)


# ----------------------------------------------------------------------
# repro.hpo.sensitivity
# ----------------------------------------------------------------------
def _evaluate_genome(problem: Problem, genome: np.ndarray) -> np.ndarray:
    """Decode + evaluate, mapping failures to MAXINT (robust OAT)."""
    decoder = DeepMDRepresentation.decoder()
    try:
        fitness, _ = call_problem(problem, decoder.decode(genome))
        return fitness
    except Exception:  # noqa: BLE001 - same contract as the EA
        return failure_fitness(problem.n_objectives)


def one_at_a_time(
    problem: Problem,
    baseline: Optional[dict[str, Any]] = None,
    n_points: int = 11,
) -> list[OATProfile]:
    baseline = baseline or {
        "start_lr": 4e-3,
        "stop_lr": 1e-4,
        "rcut": 10.0,
        "rcut_smth": 2.5,
        "scale_by_worker": "none",
        "desc_activ_func": "tanh",
        "fitting_activ_func": "tanh",
    }
    base_genome = DeepMDRepresentation.encode(baseline)
    ranges = DeepMDRepresentation.init_ranges
    profiles: list[OATProfile] = []
    for g, gene in enumerate(GENE_NAMES):
        lo, hi = ranges[g]
        values = np.linspace(lo, hi, n_points)
        energy = np.empty(n_points)
        force = np.empty(n_points)
        for k, v in enumerate(values):
            genome = base_genome.copy()
            genome[g] = v
            fitness = _evaluate_genome(problem, genome)
            energy[k], force[k] = fitness[0], fitness[1]
        profiles.append(
            OATProfile(gene=gene, values=values, energy=energy, force=force)
        )
    return profiles


def morris_screening(
    problem: Problem,
    n_trajectories: int = 20,
    n_levels: int = 8,
    rng: RngLike = None,
) -> MorrisResult:
    gen = ensure_rng(rng)
    ranges = DeepMDRepresentation.init_ranges
    n_genes = len(GENE_NAMES)
    delta = n_levels / (2.0 * (n_levels - 1.0))
    effects_e: list[list[float]] = [[] for _ in range(n_genes)]
    effects_f: list[list[float]] = [[] for _ in range(n_genes)]

    def to_genome(x: np.ndarray) -> np.ndarray:
        return ranges[:, 0] + x * (ranges[:, 1] - ranges[:, 0])

    for _ in range(n_trajectories):
        # random base lattice point low enough that +delta stays inside
        levels = gen.integers(0, n_levels // 2, size=n_genes)
        x = levels / (n_levels - 1.0)
        f_prev = _evaluate_genome(problem, to_genome(x))
        order = gen.permutation(n_genes)
        for g in order:
            x_next = x.copy()
            x_next[g] += delta
            f_next = _evaluate_genome(problem, to_genome(x_next))
            if np.all(f_prev < MAXINT) and np.all(f_next < MAXINT):
                effects_e[g].append(
                    abs(f_next[0] - f_prev[0]) / delta
                )
                effects_f[g].append(
                    abs(f_next[1] - f_prev[1]) / delta
                )
            x, f_prev = x_next, f_next
    mu_e = np.array(
        [np.mean(e) if e else np.nan for e in effects_e]
    )
    mu_f = np.array(
        [np.mean(e) if e else np.nan for e in effects_f]
    )
    sigma_f = np.array(
        [np.std(e) if len(e) > 1 else np.nan for e in effects_f]
    )
    return MorrisResult(
        gene_names=GENE_NAMES,
        mu_star_energy=mu_e,
        mu_star_force=mu_f,
        sigma_force=sigma_f,
        trajectories=n_trajectories,
    )
