"""Extension bench — mutation-only (paper) vs mutation+crossover.

Listing 1 breeds by clone+Gaussian-mutation only; canonical NSGA-II
uses SBX crossover plus mutation.  The bench runs both pipelines at
equal budget on the surrogate landscape and reports whether the
paper's simpler operator set left anything on the table for this
7-gene problem.
"""

import numpy as np

from benchmarks.conftest import once
from repro.analysis import format_table
from repro.evo import NSGA2Driver, ops, run_driver
from repro.evo.crossover import sbx_crossover
from repro.hpo import NSGA2Settings, SurrogateDeepMDProblem, run_deepmd_nsga2
from repro.hpo.representation import DeepMDRepresentation
from repro.mo.dominance import non_dominated_mask
from repro.mo.metrics import hypervolume_2d

REFERENCE = (0.02, 0.2)
POP = 60
GENERATIONS = 6


def _hv(population) -> float:
    F = np.array([i.fitness for i in population if i.is_viable])
    if len(F) == 0:
        return 0.0
    return hypervolume_2d(F[non_dominated_mask(F)], REFERENCE)


class SBXDriver(NSGA2Driver):
    """Listing 1 with SBX crossover between the clone and the mutation."""

    def ask(self):
        if self.generation == 0:
            return super().ask()
        return ops.pipe(
            self.parents,
            lambda pop: ops.random_selection(pop, rng=self.rng),
            ops.clone,
            sbx_crossover(eta=15.0, rng=self.rng),
            ops.mutate_gaussian(
                std=self.context["std"],
                hard_bounds=self.hard_bounds,
                rng=self.rng,
            ),
            ops.pool(len(self.parents)),
        )


def _run_with_crossover(seed: int) -> float:
    rep = DeepMDRepresentation
    driver = SBXDriver(
        SurrogateDeepMDProblem(seed=seed),
        rep.init_ranges,
        POP,
        rep.bounds,
        rep.decoder(),
        rng=seed,
        initial_std=rep.mutation_std,
    )
    return _hv(run_driver(driver, GENERATIONS)[-1].population)


def _run_mutation_only(seed: int) -> float:
    records = run_deepmd_nsga2(
        SurrogateDeepMDProblem(seed=seed),
        settings=NSGA2Settings(pop_size=POP, generations=GENERATIONS),
        rng=seed,
    )
    return _hv(records[-1].population)


def test_crossover_ablation(benchmark):
    once(benchmark, lambda: None)
    seeds = [0, 1, 2, 3]
    mutation_only = [_run_mutation_only(s) for s in seeds]
    with_sbx = [_run_with_crossover(s) for s in seeds]
    rows = [
        {
            "pipeline": "clone + Gaussian mutation (paper, Listing 1)",
            "mean hypervolume": float(np.mean(mutation_only)),
        },
        {
            "pipeline": "SBX crossover + Gaussian mutation",
            "mean hypervolume": float(np.mean(with_sbx)),
        },
    ]
    print()
    print(format_table(rows, title="crossover ablation (4 seeds)"))
    # the paper's mutation-only choice is adequate on this landscape:
    # crossover does not beat it by a wide margin
    assert np.mean(mutation_only) > 0.8 * np.mean(with_sbx)


def test_sbx_pipeline_speed(benchmark):
    hv = benchmark.pedantic(
        _run_with_crossover, args=(0,), rounds=1, iterations=1
    )
    assert hv > 0.0
