#!/usr/bin/env python
"""The pre-campaign sensitivity analysis (§2.2.1).

The paper chose its seven genes "based on initial sensitivity testing
and simulation considerations".  This example makes that step
explicit: one-at-a-time profiles around a good baseline and Morris
elementary-effects screening over the whole space, using the surrogate
landscape (each probe would be a 2-GPU-hour training on Summit — the
frugality of Morris screening is the point).

Run:  python examples/sensitivity_analysis.py
"""

from repro.analysis import format_table
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.sensitivity import morris_screening, one_at_a_time


def main() -> None:
    problem = SurrogateDeepMDProblem(seed=0, simulate_runtime=False)

    # ------------------------------------------------------------------
    # one-at-a-time profiles
    # ------------------------------------------------------------------
    profiles = one_at_a_time(problem, n_points=11)
    rows = []
    for p in profiles:
        ok = p.force < 1e9
        rows.append(
            {
                "gene": p.gene,
                "force range over sweep": p.force_range(),
                "best force": float(p.force[ok].min()),
                "failures in sweep": int((~ok).sum()),
            }
        )
    rows.sort(key=lambda r: -r["force range over sweep"])
    print(
        format_table(
            rows,
            title="OAT sensitivity (force objective, good baseline)",
        )
    )

    # ------------------------------------------------------------------
    # Morris screening
    # ------------------------------------------------------------------
    result = morris_screening(problem, n_trajectories=30, rng=1)
    rows = [
        {
            "gene": g,
            "mu* force": float(result.mu_star_force[i]),
            "sigma force": float(result.sigma_force[i]),
            "mu* energy": float(result.mu_star_energy[i]),
        }
        for i, g in enumerate(result.gene_names)
    ]
    rows.sort(key=lambda r: -r["mu* force"])
    print()
    print(
        format_table(
            rows,
            title=(
                "Morris screening (30 trajectories ≈ 240 probe "
                "trainings)"
            ),
        )
    )
    print(
        "\ninfluence ranking (force): "
        + " > ".join(result.ranking_by_force())
    )
    print(
        "high sigma/mu* ratios flag interaction effects — e.g. "
        "scale_by_worker only matters through the learning rate it "
        "scales."
    )


if __name__ == "__main__":
    main()
