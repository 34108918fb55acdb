"""Hyperparameter sensitivity analysis.

§2.2.1 motivates the seven searched genes with "initial sensitivity
testing and simulation considerations".  This module makes that step a
first-class, repeatable analysis:

:func:`one_at_a_time`
    Sweep each gene across its initialization range around a baseline
    phenome and record both objectives — the classic OAT profile.

:func:`morris_screening`
    Morris elementary-effects screening: randomized OAT trajectories
    yielding ``mu*`` (mean absolute effect — overall importance) and
    ``sigma`` (effect standard deviation — interaction/nonlinearity)
    per gene.  The standard budget-frugal global screening method,
    appropriate exactly where the paper stood: deciding which of many
    hyperparameters deserve a slot in the expensive search.

Both evaluate their whole design at once through
:func:`repro.hpo.baselines.design_search` (failures at all-``MAXINT``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.evo.problem import Problem
from repro.exceptions import MAXINT
from repro.hpo.baselines import design_search
from repro.hpo.representation import DeepMDRepresentation, GENE_NAMES
from repro.rng import RngLike, ensure_rng


@dataclass
class OATProfile:
    """One gene's sweep."""

    gene: str
    values: np.ndarray
    energy: np.ndarray
    force: np.ndarray

    def force_range(self) -> float:
        """Spread of the force objective over the sweep (failures
        excluded) — a simple sensitivity score."""
        ok = self.force < MAXINT
        if not ok.any():
            return float("inf")
        return float(self.force[ok].max() - self.force[ok].min())


def one_at_a_time(
    problem: Problem,
    baseline: Optional[dict[str, Any]] = None,
    n_points: int = 11,
) -> list[OATProfile]:
    """Sweep each of the seven genes around ``baseline``.

    ``baseline`` defaults to a known-good configuration near the
    paper's selected solutions.
    """
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
    sweeps = [np.linspace(lo, hi, n_points) for lo, hi in ranges]
    genomes = []
    for g, values in enumerate(sweeps):
        for v in values:
            genome = base_genome.copy()
            genome[g] = v
            genomes.append(genome)
    evaluated = design_search(problem, genomes).evaluated
    fitness = np.array([ind.fitness for ind in evaluated]).reshape(
        len(sweeps), n_points, problem.n_objectives
    )
    return [
        OATProfile(gene=gene, values=values, energy=f[:, 0], force=f[:, 1])
        for gene, values, f in zip(GENE_NAMES, sweeps, fitness)
    ]


@dataclass
class MorrisResult:
    """Elementary-effects screening summary (per gene, per objective)."""

    gene_names: tuple[str, ...]
    mu_star_energy: np.ndarray
    mu_star_force: np.ndarray
    sigma_force: np.ndarray
    trajectories: int = 0

    def ranking_by_force(self) -> list[str]:
        """Genes ordered from most to least influential on force."""
        order = np.argsort(-self.mu_star_force)
        return [self.gene_names[i] for i in order]


def morris_screening(
    problem: Problem,
    n_trajectories: int = 20,
    n_levels: int = 8,
    rng: RngLike = None,
) -> MorrisResult:
    """Morris (1991) randomized one-at-a-time screening.

    Each trajectory starts at a random lattice point of the scaled
    [0, 1]^7 input space and perturbs one gene at a time by
    ``delta = n_levels / (2 (n_levels - 1))``; the absolute elementary
    effects are averaged into ``mu*``.  Failed evaluations are skipped
    (they would swamp the statistics with MAXINT deltas) — failures
    are themselves a sensitivity signal, but a separate one.
    """
    gen = ensure_rng(rng)
    ranges = DeepMDRepresentation.init_ranges
    n_genes = len(GENE_NAMES)
    delta = n_levels / (2.0 * (n_levels - 1.0))
    effects_e: list[list[float]] = [[] for _ in range(n_genes)]
    effects_f: list[list[float]] = [[] for _ in range(n_genes)]

    def to_genome(x: np.ndarray) -> np.ndarray:
        return ranges[:, 0] + x * (ranges[:, 1] - ranges[:, 0])

    orders, path = [], []
    for _ in range(n_trajectories):
        # random base lattice point low enough that +delta stays inside
        levels = gen.integers(0, n_levels // 2, size=n_genes)
        x = levels / (n_levels - 1.0)
        orders.append(gen.permutation(n_genes))
        path.append(x)
        for g in orders[-1]:
            x = x.copy()
            x[g] += delta
            path.append(x)
    genomes = [to_genome(x) for x in path]
    evaluated = design_search(problem, genomes).evaluated
    fitness = np.array([ind.fitness for ind in evaluated]).reshape(
        n_trajectories, n_genes + 1, problem.n_objectives
    )
    for order, f in zip(orders, fitness):
        for g, f_prev, f_next in zip(order, f, f[1:]):
            if np.all(f_prev < MAXINT) and np.all(f_next < MAXINT):
                effects_e[g].append(
                    abs(f_next[0] - f_prev[0]) / delta
                )
                effects_f[g].append(
                    abs(f_next[1] - f_prev[1]) / delta
                )
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
