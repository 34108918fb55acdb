"""The sweeps under ``run_driver`` against the hand loops they replaced.

Grid, random, weighted-sum, one-at-a-time and Morris must return what
``tests/sweep_reference.py`` returns: the same evaluated genomes and
fitness, float64 byte for byte, the same ``SearchResult`` counts, and
the same profile and screening arrays — at two seeds per case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hpo import baselines, sensitivity
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.store import CachedProblem, EvaluationCache
from tests import sweep_reference as reference

SEEDS = (0, 7)


def _bytes(values) -> list[bytes]:
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def _search(result) -> dict:
    return {
        "genomes": _bytes(ind.genome for ind in result.evaluated),
        "fitness": _bytes(ind.fitness for ind in result.evaluated),
        "objectives": _bytes(
            ind.metadata.get("objectives", ()) for ind in result.evaluated
        ),
        "counts": (result.evaluations, result.fresh, result.cache_hits),
    }


def _assert_same_search(run, seed):
    """``run(module, problem)`` through the live and the oracle module,
    each over its own fresh problem."""
    old = run(reference, SurrogateDeepMDProblem(seed=seed))
    new = run(baselines, SurrogateDeepMDProblem(seed=seed))
    assert _search(new) == _search(old)
    return new


@pytest.mark.parametrize("seed", SEEDS)
class TestBaselines:
    def test_grid_full_factorial(self, seed):
        result = _assert_same_search(
            lambda m, p: m.grid_search(p, points_per_gene=2, rng=seed), seed
        )
        assert result.evaluations == 2**7

    def test_grid_budgeted(self, seed):
        result = _assert_same_search(
            lambda m, p: m.grid_search(
                p, points_per_gene=10, budget=60, rng=seed
            ),
            seed,
        )
        assert result.evaluations == 60

    def test_random(self, seed):
        _assert_same_search(
            lambda m, p: m.random_search(p, budget=40, rng=seed), seed
        )

    def test_weighted_sum_cold_and_warm(self, seed, tmp_path):
        results = {}
        for name, module in (("old", reference), ("new", baselines)):
            cache = EvaluationCache(tmp_path / name)
            results[name] = [
                module.weighted_sum_ea(
                    CachedProblem(SurrogateDeepMDProblem(seed=seed), cache),
                    weight_energy=0.3,
                    pop_size=6,
                    generations=3,
                    rng=seed,
                )
                for _ in ("cold", "warm")
            ]
        for old, new in zip(results["old"], results["new"]):
            assert _search(new) == _search(old)
        cold, warm = results["new"]
        assert cold.fresh > 0 and warm.cache_hits > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_one_at_a_time(seed):
    old = reference.one_at_a_time(SurrogateDeepMDProblem(seed=seed))
    new = sensitivity.one_at_a_time(SurrogateDeepMDProblem(seed=seed))
    assert [p.gene for p in new] == [p.gene for p in old]
    for a, b in zip(new, old):
        for field in ("values", "energy", "force"):
            assert _bytes([getattr(a, field)]) == _bytes([getattr(b, field)])


@pytest.mark.parametrize("seed", SEEDS)
def test_morris_with_failures(seed):
    oracle_problem = SurrogateDeepMDProblem(seed=seed)
    old = reference.morris_screening(oracle_problem, n_trajectories=20, rng=seed)
    # failed points inside trajectories drop their effects
    assert oracle_problem.failures > 0
    new = sensitivity.morris_screening(
        SurrogateDeepMDProblem(seed=seed), n_trajectories=20, rng=seed
    )
    assert new.gene_names == old.gene_names
    assert new.trajectories == old.trajectories
    for field in ("mu_star_energy", "mu_star_force", "sigma_force"):
        assert _bytes([getattr(new, field)]) == _bytes([getattr(old, field)])
