#!/usr/bin/env python
"""Reproduce every table and figure of the paper in one run.

Runs the full paper-scale campaign (5 independent NSGA-II deployments,
100 individuals, 7 generations = 3500 trainings) on the calibrated
surrogate landscape and prints:

* Fig. 1 data — per-generation pooled loss distributions;
* Fig. 2 / Table 2 — the aggregate Pareto frontier;
* Fig. 3 data — parallel-coordinates rows and the categorical
  break-downs behind §3.2's narrative;
* Table 3 — the three selected chemically accurate solutions;
* the §3 claims (rcut threshold, activation drop-out, scaling
  preference, failure counts).

Run:  python examples/paper_campaign.py
"""

import numpy as np

from repro.analysis import (
    ascii_density,
    ascii_scatter,
    convergence_summary,
    format_table,
    frontier_table,
    generation_level_plots,
    parallel_coordinates,
    table3_rows,
)
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem


def main() -> None:
    config = CampaignConfig(
        n_runs=5, pop_size=100, generations=6, base_seed=2023
    )
    print(
        f"campaign: {config.n_runs} runs x {config.pop_size} "
        f"individuals x {config.generations + 1} generations"
    )
    result = Campaign(
        lambda seed: SurrogateDeepMDProblem(seed=seed), config
    ).run()
    print(f"total trainings: {result.n_trainings}\n")

    # Fig. 1
    panels = generation_level_plots(result)
    print(
        format_table(
            [p.summary() for p in panels],
            title="Fig. 1 - pooled loss distributions per generation",
        )
    )
    conv = convergence_summary(result)
    print(
        "\nconvergence (median shift per EA step): "
        + ", ".join(f"{s:.3f}" for s in conv.median_shift())
    )

    # Fig. 1 rendered: generation 0 vs the last generation
    for g in (0, len(panels) - 1):
        p = panels[g]
        keep = (p.forces <= 0.2) & (p.energies <= 0.02)
        print()
        print(f"Fig. 1, generation {g} (zoomed to the origin cluster):")
        print(
            ascii_density(
                p.energies[keep],
                p.forces[keep],
                width=56,
                height=12,
                x_range=(0.0, 0.02),
                y_range=(0.0, 0.2),
                x_label="energy loss (eV/atom)",
                y_label="force loss (eV/A)",
            )
        )

    # Fig. 2 / Table 2
    table = frontier_table(result)
    print()
    print(
        format_table(
            table.rows(),
            title=(
                f"Table 2 - Pareto frontier of the aggregated last "
                f"generations ({len(table)} solutions)"
            ),
        )
    )
    final = [
        ind
        for ind in result.last_generation_individuals()
        if ind.is_viable
    ]
    print()
    print("Fig. 2 - final solutions (.) and the Pareto frontier (O):")
    print(
        ascii_scatter(
            [(i.fitness[0], i.fitness[1]) for i in final],
            highlight=[
                (i.fitness[0], i.fitness[1]) for i in table.members
            ],
            width=56,
            height=14,
            x_label="energy loss (eV/atom)",
            y_label="force loss (eV/A)",
        )
    )

    # Fig. 3 narrative
    data = parallel_coordinates(result)
    accurate = data.accurate_rows()
    print(
        f"\nFig. 3 - {len(data)} final solutions, {len(accurate)} "
        "chemically accurate"
    )
    if accurate:
        print(
            f"  accurate-solution rcut range: "
            f"{min(r['rcut'] for r in accurate):.2f} - "
            f"{max(r['rcut'] for r in accurate):.2f} A "
            "(paper: no accurate solution below 8.5 A)"
        )
    for axis in ("fitting_activ_func", "desc_activ_func", "scale_by_worker"):
        all_counts = data.categorical_counts(axis)
        acc_counts = data.categorical_counts(axis, accurate_only=True)
        print(f"  {axis}: all={all_counts} accurate={acc_counts}")

    # Table 3
    print()
    rows = [r.as_dict() for r in table3_rows(result)]
    print(
        format_table(
            rows, title="Table 3 - selected chemically accurate solutions"
        )
    )

    # §3.2 failures narrative
    failures = result.failures_by_generation()
    print(
        f"\nfailed trainings by generation: {failures} "
        f"(total {sum(failures)}; paper observed 25, none in the last "
        "generation)"
    )
    runtimes = result.runtimes_last_generation()
    print(
        f"last-generation runtimes: max {np.nanmax(runtimes):.1f} min "
        "(paper: all under ~80 minutes)"
    )


if __name__ == "__main__":
    main()
