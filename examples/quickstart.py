#!/usr/bin/env python
"""Quickstart: one NSGA-II deployment over the DeePMD hyperparameter
space, printing the Table 1 representation and the resulting frontier.

Uses the calibrated surrogate landscape so the whole paper-scale run
(100 individuals x 7 generations) finishes in seconds.  See
``molten_salt_hpo.py`` for the same pipeline over *real* scaled-down
trainings.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import format_table, frontier_table
from repro.hpo import (
    DeepMDRepresentation,
    NSGA2Settings,
    SurrogateDeepMDProblem,
    filter_chemically_accurate,
    run_deepmd_nsga2,
)


def main() -> None:
    # ------------------------------------------------------------------
    # Table 1: the seven-gene representation
    # ------------------------------------------------------------------
    rows = [
        {
            "hyperparameter": r["hyperparameter"],
            "initialization range": str(r["initialization range"]),
            "mutation std": r["mutation standard deviation"],
        }
        for r in DeepMDRepresentation.table1()
    ]
    print(format_table(rows, title="Table 1 - representation"))
    print()

    # ------------------------------------------------------------------
    # one EA deployment (the paper ran five of these on Summit)
    # ------------------------------------------------------------------
    problem = SurrogateDeepMDProblem(seed=42)
    records = run_deepmd_nsga2(
        problem,
        settings=NSGA2Settings(pop_size=100, generations=6),
        rng=42,
    )
    print(
        f"ran {sum(len(r.evaluated) for r in records)} simulated "
        f"trainings over {len(records)} generations"
    )
    for rec in records:
        viable = [i for i in rec.population if i.is_viable]
        F = np.array([i.fitness for i in viable])
        print(
            f"  gen {rec.generation}: median force "
            f"{np.median(F[:, 1]):.4f} eV/A, median energy "
            f"{np.median(F[:, 0]):.5f} eV/atom, "
            f"{rec.n_failures} failed trainings"
        )

    # ------------------------------------------------------------------
    # the Pareto frontier and the chemically accurate subset
    # ------------------------------------------------------------------
    final = records[-1].population
    table = frontier_table(final)
    print()
    print(
        format_table(
            table.rows(),
            title=f"Pareto frontier ({len(table)} solutions)",
        )
    )
    accurate = filter_chemically_accurate(final)
    print(
        f"\n{len(accurate)} of {len(final)} final solutions are "
        "chemically accurate (force < 0.04 eV/A, energy < 0.004 eV/atom)"
    )
    if accurate:
        best = min(accurate, key=lambda i: float(i.fitness[1]))
        print("best accurate solution:")
        for k, v in best.metadata["phenome"].items():
            print(f"  {k:>20s} = {v}")


if __name__ == "__main__":
    main()
