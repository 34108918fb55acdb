"""Extension bench — random parents (paper) vs crowded tournament.

Listing 1 selects parents uniformly at random; canonical NSGA-II uses
binary tournaments under the crowded-comparison operator for mating
selection.  With mu+lambda truncation already supplying strong
survivor-selection pressure, does the paper's simplification cost
anything?  The bench runs both at equal budget across seeds.
"""

import numpy as np

from benchmarks.conftest import once
from repro.analysis import format_table
from repro.evo import NSGA2Driver, run_driver
from repro.evo.nsga2 import (
    crowded_tournament_selection,
    crowding_distance_calc,
    rank_ordinal_sort_op,
)
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


class TournamentDriver(NSGA2Driver):
    """Listing 1 with crowded binary tournaments for mating selection."""

    select = staticmethod(crowded_tournament_selection)

    def tell(self, evaluated):
        record = super().tell(evaluated)
        if record.generation == 0:
            # the first tournament needs ranks and distances
            self.parents = crowding_distance_calc(
                rank_ordinal_sort_op()(self.parents)
            )
        return record


def _run_tournament(seed: int) -> float:
    rep = DeepMDRepresentation
    driver = TournamentDriver(
        SurrogateDeepMDProblem(seed=seed),
        rep.init_ranges,
        POP,
        rep.bounds,
        rep.decoder(),
        rng=seed,
        initial_std=rep.mutation_std,
    )
    return _hv(run_driver(driver, GENERATIONS)[-1].population)


def _run_random(seed: int) -> float:
    records = run_deepmd_nsga2(
        SurrogateDeepMDProblem(seed=seed),
        settings=NSGA2Settings(pop_size=POP, generations=GENERATIONS),
        rng=seed,
    )
    return _hv(records[-1].population)


def test_selection_ablation(benchmark):
    once(benchmark, lambda: None)
    seeds = [0, 1, 2, 3]
    random_sel = [_run_random(s) for s in seeds]
    tournament = [_run_tournament(s) for s in seeds]
    rows = [
        {
            "mating selection": "uniform random (paper, Listing 1)",
            "mean hypervolume": float(np.mean(random_sel)),
        },
        {
            "mating selection": "crowded binary tournament (canonical)",
            "mean hypervolume": float(np.mean(tournament)),
        },
    ]
    print()
    print(format_table(rows, title="mating-selection ablation (4 seeds)"))
    # mu+lambda truncation already provides the pressure: random mating
    # selection is competitive (within 15 %)
    assert np.mean(random_sel) > 0.85 * np.mean(tournament)


def test_tournament_pipeline_speed(benchmark):
    hv = benchmark.pedantic(
        _run_tournament, args=(0,), rounds=1, iterations=1
    )
    assert hv > 0.0
