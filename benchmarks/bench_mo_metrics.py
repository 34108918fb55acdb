"""Experiment ``perf-mo`` — N-D hypervolume kernels and surrogate
sample efficiency.

Two families of numbers:

* **kernel throughput** — points/second of the exact 2-D sweep, the
  exact 3-D slicing algorithm, and the deterministic Monte-Carlo
  fallback on campaign-sized fronts (informational: absolute rates);
* **surrogate sample efficiency** — fresh evaluations each optimizer
  needs to reach a target hypervolume on the seeded surrogate DeePMD
  landscape, reported as the ratio ``random / surrogate`` (a
  same-machine, same-seed *deterministic* ratio — the CI-gated claim
  that the RBF acquisition beats random search per training).

Run standalone (``python benchmarks/bench_mo_metrics.py``) or via
``benchmarks/runner.py``, which writes ``BENCH_mo.json`` and gates CI
on the sample-efficiency ratio.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np


def _front_3d(n: int, seed: int = 0) -> np.ndarray:
    """A nondominated-ish 3-D cloud inside the default reference box."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.001, 0.019, size=n)
    y = rng.uniform(0.01, 0.19, size=n)
    z = rng.uniform(20.0, 230.0, size=n)
    return np.column_stack([x, y, z])


def _time_s(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _evals_to_target(records, target_hv, reference) -> int:
    """Fresh evaluations consumed up to the first generation whose
    selected front dominates ``target_hv`` (budget+1 when never)."""
    from repro.mo.dominance import non_dominated_mask
    from repro.mo.metrics import hypervolume

    spent = 0
    for record in records:
        spent += len(record.evaluated)
        F = np.asarray(
            [ind.fitness for ind in record.population if ind.is_viable]
        )
        if not len(F):
            continue
        F = F[np.all(np.isfinite(F), axis=1)]
        if not len(F):
            continue
        if hypervolume(F[non_dominated_mask(F)], reference) >= target_hv:
            return spent
    return spent + 1


def run(quick: bool = False) -> dict:
    """Execute the bench; returns the machine-readable report dict."""
    from repro.evo.algorithm import run_driver
    from repro.evo.surrogate import SurrogateDriver
    from repro.hpo.driver import NSGA2Settings, run_deepmd_surrogate
    from repro.hpo.landscape import SurrogateDeepMDProblem
    from repro.hpo.representation import DeepMDRepresentation
    from repro.mo.metrics import hypervolume

    # ------------------------------------------------------------------
    # kernel throughput
    # ------------------------------------------------------------------
    n = 300 if quick else 1000
    repeats = 3 if quick else 7
    F3 = _front_3d(n)
    F2 = F3[:, :2]
    ref2 = (0.02, 0.2)
    ref3 = (0.02, 0.2, 240.0)

    t_2d = _time_s(lambda: hypervolume(F2, ref2), repeats)
    t_3d = _time_s(lambda: hypervolume(F3, ref3), repeats)
    # the d>3 Monte-Carlo path, forced via a 4-D embedding
    F4 = np.column_stack([F3, np.full(len(F3), 0.5)])
    ref4 = ref3 + (1.0,)
    t_mc = _time_s(
        lambda: hypervolume(F4, ref4, n_samples=5000, seed=2023), repeats
    )

    # ------------------------------------------------------------------
    # surrogate sample efficiency vs random search (deterministic)
    # ------------------------------------------------------------------
    # pop must clear the surrogate's fit gate (2 × 7 genes viable
    # points) after generation 0, so the acquisition is active from the
    # first proposal batch in quick mode too
    pop = 16
    iters = 3 if quick else 6
    seed = 7
    rep = DeepMDRepresentation

    surrogate_records = run_deepmd_surrogate(
        SurrogateDeepMDProblem(seed=seed),
        settings=NSGA2Settings(pop_size=pop, generations=iters),
        rng=seed,
    )
    # random search = the same driver with a pure-exploration pool and
    # the surrogate fit disabled by construction (picks the first
    # pop_size uniform candidates each iteration)
    random_driver = SurrogateDriver(
        SurrogateDeepMDProblem(seed=seed),
        rep.init_ranges,
        pop,
        rep.bounds,
        rep.decoder(),
        rng=seed,
        initial_std=rep.mutation_std,
        explore_fraction=1.0,
        pool_multiplier=1,
    )
    random_records = run_driver(random_driver, iters)
    ref = ref2
    # target: 90% of the hypervolume the weaker run ends at, so both
    # runs can reach it and the ratio measures how fast they get there
    def final_hv(records):
        from repro.mo.dominance import non_dominated_mask

        F = np.asarray(
            [
                ind.fitness
                for ind in records[-1].population
                if ind.is_viable
            ]
        )
        F = F[np.all(np.isfinite(F), axis=1)]
        return hypervolume(F[non_dominated_mask(F)], ref)

    # target: just under the hypervolume the *weaker* run ends at, so
    # both runs reach it and the ratio measures how fast they got there
    target = 0.995 * min(
        final_hv(surrogate_records), final_hv(random_records)
    )
    surrogate_evals = _evals_to_target(surrogate_records, target, ref)
    random_evals = _evals_to_target(random_records, target, ref)

    return {
        "bench": "mo_metrics",
        "quick": quick,
        "n_points": n,
        "results": {
            "hypervolume": {
                "exact_2d_kpts_per_s": n / t_2d / 1e3,
                "exact_3d_kpts_per_s": n / t_3d / 1e3,
                "monte_carlo_4d_kpts_per_s": n / t_mc / 1e3,
            },
            "sample_efficiency": {
                "target_hypervolume": target,
                "surrogate_evals_to_target": surrogate_evals,
                "random_evals_to_target": random_evals,
            },
        },
        "metrics": {
            "hv_exact_3d_kpts_per_s": n / t_3d / 1e3,
            "surrogate_evals_to_target_ratio": (
                random_evals / surrogate_evals
            ),
        },
    }


def main(argv: Optional[list] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="BENCH_mo.json")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    hv = report["results"]["hypervolume"]
    for name, value in hv.items():
        print(f"{name}: {value:.1f} kpts/s")
    se = report["results"]["sample_efficiency"]
    print(
        f"evals to target HV {se['target_hypervolume']:.4f}: "
        f"surrogate {se['surrogate_evals_to_target']} vs random "
        f"{se['random_evals_to_target']}"
    )
    for name, value in report["metrics"].items():
        print(f"{name}: {value:.3f}")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
