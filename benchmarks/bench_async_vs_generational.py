"""Extension bench — asynchronous steady-state vs generational NSGA-II.

The paper's deployment is generational: every generation waits for its
slowest training (rcut-heavy configs run ~2× longer than light ones),
idling finished nodes at the barrier.  The authors' cited prior work
motivates the steady-state alternative.  This bench runs both on the
same surrogate problem with *simulated heterogeneous task durations*
on a six-process pool and compares (a) solution quality at equal
evaluation budget and (b) the barrier's wall-clock cost.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import once
from repro.analysis import format_table
from repro.engine import EvaluationEngine, ProcessPoolBackend
from repro.evo.algorithm import random_initial_population, run_driver
from repro.evo.asynchronous import SteadyStateDriver
from repro.hpo import (
    NSGA2Settings,
    SurrogateDeepMDProblem,
    run_deepmd_nsga2,
)
from repro.hpo.representation import DeepMDRepresentation
from repro.mo.dominance import non_dominated_mask
from repro.mo.metrics import hypervolume_2d

REFERENCE = (0.02, 0.2)
POP = 24
BUDGET = 24 * 5


class SlowSurrogate(SurrogateDeepMDProblem):
    """Surrogate whose evaluation really sleeps ∝ the modeled runtime,
    so executor-level scheduling effects become measurable."""

    #: wall seconds per simulated minute
    time_scale = 0.0004

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        # the pool enters a problem through its batch method
        outcomes = super().evaluate_batch_with_metadata(phenomes, uuids)
        minutes = sum(
            slot[1]["runtime_minutes"]
            for slot in outcomes
            if isinstance(slot, tuple)
        )
        time.sleep(minutes * self.time_scale)
        return outcomes


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolBackend(workers=6) as backend:
        # one task per worker: every process has started before
        # anything is timed
        EvaluationEngine(client=backend).evaluate(
            random_initial_population(
                6,
                DeepMDRepresentation.init_ranges,
                SurrogateDeepMDProblem(seed=0),
                decoder=DeepMDRepresentation.decoder(),
                rng=0,
            )
        )
        yield backend


def _steady_state(problem, client):
    rep = DeepMDRepresentation
    driver = SteadyStateDriver(
        problem,
        rep.init_ranges,
        POP,
        rep.bounds,
        rep.decoder(),
        rng=0,
        initial_std=rep.mutation_std,
        max_evaluations=BUDGET,
    )
    return run_driver(
        driver, driver.last_generation, client=client, dedup=True
    )


def _hv(individuals) -> float:
    F = np.array(
        [i.fitness for i in individuals if i.is_viable]
    )
    if len(F) == 0:
        return 0.0
    return hypervolume_2d(F[non_dominated_mask(F)], REFERENCE)


def test_generational_wall_clock(benchmark, pool):
    def run():
        return run_deepmd_nsga2(
            SlowSurrogate(seed=0),
            settings=NSGA2Settings(pop_size=POP, generations=4),
            client=pool,
            rng=0,
        )

    records = once(benchmark, run)
    assert sum(len(r.evaluated) for r in records) == BUDGET


def test_steady_state_wall_clock(benchmark, pool):
    def run():
        return _steady_state(SlowSurrogate(seed=0), pool)

    records = once(benchmark, run)
    assert sum(len(r.evaluated) for r in records) == BUDGET


def test_async_matches_quality_at_equal_budget(benchmark, pool):
    once(benchmark, lambda: None)
    gen_records = run_deepmd_nsga2(
        SurrogateDeepMDProblem(seed=0),
        settings=NSGA2Settings(pop_size=POP, generations=4),
        client=pool,
        rng=0,
    )
    ss_records = _steady_state(SurrogateDeepMDProblem(seed=0), pool)
    gen_hv = _hv(gen_records[-1].population)
    ss_hv = _hv(ss_records[-1].population)
    rows = [
        {"scheme": "generational (paper)", "evaluations": BUDGET,
         "hypervolume": gen_hv},
        {"scheme": "steady-state (async)", "evaluations": BUDGET,
         "hypervolume": ss_hv},
    ]
    print()
    print(format_table(rows, title="async vs generational at equal budget"))
    # the async scheme is a quality-neutral scheduling change
    assert ss_hv > 0.7 * gen_hv
