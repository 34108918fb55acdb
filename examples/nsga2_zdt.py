#!/usr/bin/env python
"""Validate the NSGA-II implementation on the ZDT benchmark suite.

Before pointing the optimizer at 2-GPU-hour DeePMD trainings, one
wants evidence that it is a faithful NSGA-II.  This example runs it on
ZDT1/2/3 (known analytic Pareto fronts) and reports hypervolume, IGD,
and spread, plus the rank-ordinal vs classic sorting agreement.

Run:  python examples/nsga2_zdt.py
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.evo.algorithm import NSGA2Driver, run_driver
from repro.evo.nsga2 import fast_nondominated_sort, rank_ordinal_sort
from repro.mo.dominance import non_dominated_mask
from repro.mo.metrics import (
    hypervolume_2d,
    inverted_generational_distance,
    spread_2d,
)
from repro.mo.testsuite import ZDT1, ZDT2, ZDT3


def solve(problem, pop=60, generations=150, rng=1):
    driver = NSGA2Driver(
        problem=problem,
        init_ranges=problem.bounds,
        pop_size=pop,
        hard_bounds=problem.bounds,
        rng=rng,
        initial_std=np.full(problem.n_variables, 0.15),
        anneal_factor=0.98,
    )
    records = run_driver(driver, generations)
    F = np.array([ind.fitness for ind in records[-1].population])
    return F[non_dominated_mask(F)]


def main() -> None:
    rows = []
    for problem_cls in (ZDT1, ZDT2, ZDT3):
        problem = problem_cls(n_variables=8)
        t0 = time.time()
        front = solve(problem)
        elapsed = time.time() - t0
        rows.append(
            {
                "problem": problem_cls.__name__,
                "front size": len(front),
                "hypervolume (ref 1.1,1.1)": hypervolume_2d(
                    front, (1.1, 1.1)
                ),
                "IGD": inverted_generational_distance(
                    front, problem.true_front()
                ),
                "spread": spread_2d(front),
                "seconds": elapsed,
            }
        )
    print(format_table(rows, title="NSGA-II on the ZDT suite"))

    # sorting agreement sanity check on random data
    rng = np.random.default_rng(0)
    F = rng.normal(size=(500, 2))
    assert np.array_equal(
        rank_ordinal_sort(F), fast_nondominated_sort(F)
    )
    print(
        "\nrank-ordinal sort and classic fast non-dominated sort agree "
        "on 500 random fitness vectors"
    )


if __name__ == "__main__":
    main()
