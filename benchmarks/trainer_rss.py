"""Peak resident memory (``ru_maxrss``) of a process that trains.

A pool worker keeps its heap at the high-water mark of its largest
training for as long as it lives (DESIGN.md §10, "Trainer memory"), so
one training's peak RSS is what every worker costs its node.  Each case
runs in a fresh interpreter with BLAS on one thread, on whichever tree
``PYTHONPATH`` names, so two trees compare with the same script::

    PYTHONPATH=src python benchmarks/trainer_rss.py [--repeat N] [case ...]

Cases:

``train_phenome``
    The ledger's ``train_160atom`` unit: one 40-step evaluation of its
    ``TRAIN_PHENOME`` (rcut 8.5, tanh / tanh) on 16 frames of 160 atoms
    (32 AlCl3 + 16 KCl, seed 11), validating twice.
``softplus_sigmoid``
    The same with softplus / sigmoid.
``paper_widths``
    ``train_phenome`` at the paper's network widths (embedding
    {25, 50, 100}, fitting {240, 240, 240}).
``pool_campaign``
    The ledger's ``real_campaign_pool`` campaign (one run, population
    6, one generation: 12 evaluations of 8 steps on 16 frames of 20
    atoms) run three times in one process, inline.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PIN = dict(
    OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)
CASES = (
    "train_phenome", "softplus_sigmoid", "paper_widths", "pool_campaign"
)
PHENOME = {
    "start_lr": 3e-3,
    "stop_lr": 1e-4,
    "rcut": 8.5,
    "rcut_smth": 2.0,
    "scale_by_worker": "none",
    "desc_activ_func": "tanh",
    "fitting_activ_func": "tanh",
}


def run_case(case: str, workdir: Path) -> None:
    from repro.hpo import DeepMDProblem, EvaluatorSettings
    from repro.hpo.campaign import Campaign, CampaignConfig
    from repro.md.dataset import generate_dataset

    if case == "pool_campaign":
        dataset = generate_dataset(
            n_frames=16, equilibration_steps=80, sample_interval=4, rng=11
        )
        config = CampaignConfig(
            n_runs=1, pop_size=6, generations=1, base_seed=2023,
            batch_evals=True,
        )  # fmt: skip
        for i in range(3):
            problem = DeepMDProblem(
                dataset,
                base_dir=workdir / str(i),
                settings=EvaluatorSettings(numb_steps=8, disp_freq=8),
            )
            Campaign(lambda seed: problem, config).run()
        return
    dataset = generate_dataset(
        n_frames=16, n_alcl3=32, n_kcl=16, equilibration_steps=80,
        sample_interval=4, rng=11,
    )  # fmt: skip
    phenome = dict(PHENOME)
    widths = {}
    if case == "softplus_sigmoid":
        phenome.update(
            desc_activ_func="softplus", fitting_activ_func="sigmoid"
        )
    elif case == "paper_widths":
        widths = dict(
            embedding_widths=(25, 50, 100), fitting_widths=(240, 240, 240)
        )
    problem = DeepMDProblem(
        dataset,
        base_dir=workdir,
        settings=EvaluatorSettings(numb_steps=40, disp_freq=20, **widths),
    )
    problem.evaluate_with_metadata(phenome, uuid="rss")


def peak_rss_mb(case: str) -> float:
    """``ru_maxrss`` of a fresh interpreter that ran ``case``."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", case],
        env=dict(os.environ, **PIN),
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cases", nargs="*", help=f"of {', '.join(CASES)}")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    unknown = set(args.cases) - set(CASES)
    if unknown:
        parser.error(f"unknown case(s): {', '.join(sorted(unknown))}")
    if args.child:
        import resource

        with tempfile.TemporaryDirectory() as workdir:
            run_case(args.child, Path(workdir))
        # kilobytes on Linux
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return 0
    for case in args.cases or CASES:
        peaks = [peak_rss_mb(case) for _ in range(args.repeat)]
        print(f"{case:18s}", " ".join(f"{mb:7.1f}" for mb in peaks), "MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
