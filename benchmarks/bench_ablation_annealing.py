"""Experiment ``ablation-anneal`` — the ×0.85 mutation annealing.

§2.2.3: the paper anneals the mutation deviations by 0.85 per
generation and reports that the adaptive 1/5-success rule "was not
necessary".  The bench compares final front quality for annealed,
non-annealed, and 1/5-rule-driven deployments on the surrogate
landscape.
"""

import numpy as np

from repro.analysis import format_table
from repro.evo import NSGA2Driver, run_driver
from repro.evo.annealing import OneFifthSuccessRule
from repro.hpo import NSGA2Settings, SurrogateDeepMDProblem, run_deepmd_nsga2
from repro.hpo.representation import DeepMDRepresentation
from repro.mo.dominance import non_dominated_mask
from repro.mo.metrics import hypervolume_2d

REFERENCE = (0.02, 0.2)


def _hv(population) -> float:
    F = np.array([i.fitness for i in population if i.is_viable])
    return hypervolume_2d(F[non_dominated_mask(F)], REFERENCE)


def _final_hv(anneal_factor: float, seed: int) -> float:
    records = run_deepmd_nsga2(
        SurrogateDeepMDProblem(seed=seed),
        settings=NSGA2Settings(
            pop_size=60, generations=6, anneal_factor=anneal_factor
        ),
        rng=seed,
    )
    return _hv(records[-1].population)


class OneFifthDriver(NSGA2Driver):
    """Listing 1 with the deviations stepped by the 1/5-success rule:
    success is an offspring dominating the median parent."""

    def _anneal(self, std):
        self.schedule = OneFifthSuccessRule(
            std, factor=self.anneal_factor, context=self.context
        )

    def tell(self, evaluated):
        if self.generation == 0:
            return super().tell(evaluated)
        parent_med = np.median(
            [p.fitness for p in self.parents if p.is_viable], axis=0
        )
        successes = sum(
            1
            for o in evaluated
            if o.is_viable and np.all(o.fitness <= parent_med)
        )
        self.parents = self.survivors(evaluated)
        self.schedule.step(success_rate=successes / max(len(evaluated), 1))
        return self.record(
            self.parents, evaluated, self.schedule.current.copy()
        )


def _final_hv_one_fifth(seed: int) -> float:
    rep = DeepMDRepresentation
    driver = OneFifthDriver(
        SurrogateDeepMDProblem(seed=seed),
        rep.init_ranges,
        60,
        rep.bounds,
        rep.decoder(),
        rng=seed,
        initial_std=rep.mutation_std,
    )
    return _hv(run_driver(driver, 6)[-1].population)


def test_annealed_deployment(benchmark):
    hv = benchmark.pedantic(
        _final_hv, args=(0.85, 0), rounds=1, iterations=1
    )
    assert hv > 0.0


def test_no_annealing_deployment(benchmark):
    hv = benchmark.pedantic(
        _final_hv, args=(1.0, 0), rounds=1, iterations=1
    )
    assert hv > 0.0


def test_annealing_comparison(benchmark):
    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    """Across seeds, the paper's fixed x0.85 schedule is competitive:
    annealing never loses badly to no annealing on this landscape (it
    exists to stabilize the final generations)."""
    seeds = [0, 1, 2, 3, 4]
    annealed = [_final_hv(0.85, s) for s in seeds]
    flat = [_final_hv(1.0, s) for s in seeds]
    rows = [
        {
            "schedule": "x0.85 per generation (paper)",
            "mean hypervolume": float(np.mean(annealed)),
            "min": float(np.min(annealed)),
        },
        {
            "schedule": "no annealing",
            "mean hypervolume": float(np.mean(flat)),
            "min": float(np.min(flat)),
        },
    ]
    print()
    print(format_table(rows, title="annealing ablation (5 seeds)"))
    # competitive: within 10% on average
    assert np.mean(annealed) > 0.9 * np.mean(flat)


def test_one_fifth_rule_not_necessary(benchmark):
    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    """§2.2.3's claim: the 1/5-success rule adds nothing here.  Run a
    deployment where the schedule adapts by offspring success rate and
    compare with the fixed schedule."""
    seeds = [0, 1, 2]
    fixed = [_final_hv(0.85, s) for s in seeds]
    ruled = [_final_hv_one_fifth(s) for s in seeds]
    print()
    print(
        f"fixed x0.85 HV: {np.mean(fixed):.4f}; 1/5-rule HV: "
        f"{np.mean(ruled):.4f}"
    )
    # "not necessary": the rule brings no meaningful improvement
    assert np.mean(ruled) < np.mean(fixed) * 1.1
