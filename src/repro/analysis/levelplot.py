"""Fig. 1 — per-generation energy vs force loss distributions.

The figure pools all models trained at each generation over the five
independent runs and shows 2-D density (level) plots, with generation-0
outliers beyond force 0.6 eV/Å or energy 0.03 eV/atom culled "for
visual clarity".  :func:`generation_level_plots` produces the same
data: per generation, the pooled loss points, the culling mask, 2-D
histogram counts, and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hpo.campaign import CampaignResult

#: The paper's culling thresholds for generation-0 outliers.
CULL_FORCE_MAX: float = 0.6
CULL_ENERGY_MAX: float = 0.03


@dataclass
class LevelPlotData:
    """One generation's panel."""

    generation: int
    energies: np.ndarray  # viable solutions only
    forces: np.ndarray
    n_failed: int
    n_culled: int
    histogram: np.ndarray  # (bins, bins) counts over the culled window
    energy_edges: np.ndarray
    force_edges: np.ndarray

    def summary(self) -> dict[str, float]:
        return {
            "generation": self.generation,
            "n": len(self.energies),
            "median_energy": float(np.median(self.energies))
            if len(self.energies)
            else float("nan"),
            "median_force": float(np.median(self.forces))
            if len(self.forces)
            else float("nan"),
            "n_failed": self.n_failed,
            "n_culled": self.n_culled,
        }


def generation_level_plots(
    result: CampaignResult,
    bins: int = 40,
    cull_force: float = CULL_FORCE_MAX,
    cull_energy: float = CULL_ENERGY_MAX,
    max_generation: Optional[int] = None,
) -> list[LevelPlotData]:
    """Build the Fig. 1 panels from a campaign result.

    ``max_generation`` limits the panels (the paper shows generations
    0–5, i.e. six panels, out of the seven trained).
    """
    n_gens = max(len(run) for run in result.runs)
    if max_generation is not None:
        n_gens = min(n_gens, max_generation + 1)
    panels: list[LevelPlotData] = []
    for g in range(n_gens):
        individuals = result.generation_evaluated(g)
        viable = [ind for ind in individuals if ind.is_viable]
        n_failed = len(individuals) - len(viable)
        if viable:
            F = np.asarray([ind.fitness for ind in viable])
            energies, forces = F[:, 0], F[:, 1]
        else:
            energies = forces = np.zeros(0)
        keep = (forces <= cull_force) & (energies <= cull_energy)
        n_culled = int((~keep).sum())
        e_kept, f_kept = energies[keep], forces[keep]
        hist, e_edges, f_edges = np.histogram2d(
            e_kept,
            f_kept,
            bins=bins,
            range=[[0.0, cull_energy], [0.0, cull_force]],
        )
        panels.append(
            LevelPlotData(
                generation=g,
                energies=energies,
                forces=forces,
                n_failed=n_failed,
                n_culled=n_culled,
                histogram=hist,
                energy_edges=e_edges,
                force_edges=f_edges,
            )
        )
    return panels
