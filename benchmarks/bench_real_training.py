"""Experiment ``real-train`` — the scaled-down *real* trainer.

Cross-checks the surrogate landscape against actual DeepPot-SE
trainings on MD data: the directions that drive the paper's findings
(training improves forces; bad learning rates fail; the full §2.2.4
workflow produces a two-element fitness from lcurve.out) must hold on
the real code path, and the per-training wall time is measured.

Run standalone (``python benchmarks/bench_real_training.py``) or via
``benchmarks/runner.py``, which writes ``BENCH_training.json``: at the
paper-sized regime of the ledger's ``train_160atom`` workload (160
atoms, rcut 8.5, 16 frames), the median training step, the
``prepare_batches`` call that builds one training's neighbour tables
(the process's neighbour plane emptied first, so every round builds
them), the same call when the plane is already warm at a 12 A cutoff
(the tables are read out of it), and one validation round; then, in
an untimed pass under ``tracemalloc``, the peak memory four steps
allocate on top of the trainer's own (``step_peak_mb``: one step's
graph at its widest, since each step's graph dies when it returns) and
the peak of one validation round (``validation_peak_mb``).  CI gates
the same-machine ratio of the two ``prepare_batches`` calls
(``plane_read_vs_fresh_tables``): both sides are neighbour code, so the
ratio moves only when the plane read or the fresh build does.

BLAS runs on one thread, as in the ledger (``harness.pin_threads``), so
the step does not depend on the host's core count.  OpenBLAS reads the
setting once, when NumPy loads: it is set here, before any import, and
by ``runner.py`` before the first bench loads NumPy.
"""

from __future__ import annotations

import os

os.environ.update(
    OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)

import statistics
import time
import tracemalloc
from typing import Any, Callable, Optional

import numpy as np
import pytest

from repro.deepmd.data import _planes, prepare_batches
from repro.deepmd.descriptor import DescriptorConfig
from repro.deepmd.model import DeepPotModel, ModelConfig
from repro.deepmd.training import Trainer, TrainingConfig
from repro.exceptions import EvaluationError, TrainingDivergedError
from repro.hpo import DeepMDProblem, EvaluatorSettings
from repro.md.dataset import generate_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        n_frames=32,
        n_alcl3=4,
        n_kcl=2,
        equilibration_steps=80,
        sample_interval=4,
        rng=99,
    )


@pytest.fixture(scope="module")
def problem(dataset):
    return DeepMDProblem(
        dataset,
        settings=EvaluatorSettings(
            numb_steps=60,
            batch_size=2,
            disp_freq=60,
            embedding_widths=(4, 8),
            axis_neurons=2,
            fitting_widths=(8,),
            time_limit=300.0,
        ),
    )


def _phenome(**over):
    base = {
        "start_lr": 3e-3,
        "stop_lr": 1e-4,
        "rcut": 4.5,
        "rcut_smth": 2.0,
        "scale_by_worker": "none",
        "desc_activ_func": "tanh",
        "fitting_activ_func": "tanh",
    }
    base.update(over)
    return base


def test_single_training_wall_time(problem, benchmark):
    """The per-evaluation cost of the scaled-down real trainer."""
    fitness, meta = benchmark.pedantic(
        problem.evaluate_with_metadata,
        args=(_phenome(),),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"real training: rmse_e {fitness[0]:.4f} eV/atom, rmse_f "
        f"{fitness[1]:.4f} eV/A in {meta['runtime_minutes'] * 60:.1f}s"
    )
    assert np.all(np.isfinite(fitness))


def test_training_improves_over_untrained(dataset, benchmark):
    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    """More optimization steps beat fewer — the landscape's premise
    that the EA is steering a *real* training signal."""
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=4.5, rcut_smth=2.0),
        embedding_widths=(4, 8),
        axis_neurons=2,
        fitting_widths=(8,),
    )
    model = DeepPotModel(config, rng=0)
    trainer = Trainer(
        model,
        dataset,
        TrainingConfig(
            numb_steps=150, batch_size=2, disp_freq=150,
            start_lr=5e-3, stop_lr=1e-4,
        ),
        rng=1,
    )
    e0, f0 = trainer.evaluate_validation()
    result = trainer.train()
    print()
    print(
        f"force RMSE: untrained {f0:.4f} -> trained "
        f"{result.rmse_f_val:.4f} eV/A"
    )
    assert result.rmse_f_val < f0


def test_bad_learning_rate_fails_like_surrogate(problem, benchmark):
    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    """Extreme learning rates diverge on the real trainer, matching
    the surrogate's failure region."""
    with pytest.raises((TrainingDivergedError, EvaluationError)):
        problem.evaluate_with_metadata(
            _phenome(start_lr=5000.0, stop_lr=1000.0)
        )


def test_invalid_descriptor_fails_like_surrogate(problem, benchmark):
    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    with pytest.raises(Exception):
        problem.evaluate_with_metadata(
            _phenome(rcut=3.0, rcut_smth=3.5)
        )


def test_training_cost_grows_with_rcut(dataset, benchmark):
    """The runtime side of the paper's rcut trade-off holds on the
    real trainer: a larger descriptor cutoff means more neighbors and
    a costlier step.  (The accuracy side is a long-range-physics
    effect the toy reference potential cannot express — see the
    repro.hpo.landscape docstring.)"""
    import time as _time

    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    times = {}
    for rcut in (2.5, 6.0):
        model = DeepPotModel(
            ModelConfig(
                descriptor=DescriptorConfig(rcut=rcut, rcut_smth=1.5),
                embedding_widths=(4, 8),
                axis_neurons=2,
                fitting_widths=(8,),
            ),
            rng=0,
        )
        trainer = Trainer(
            model,
            dataset,
            TrainingConfig(numb_steps=40, batch_size=2, disp_freq=40),
            rng=1,
        )
        t0 = _time.perf_counter()
        trainer.train()
        times[rcut] = _time.perf_counter() - t0
    print()
    print(
        f"40-step training: rcut=2.5 -> {times[2.5]:.2f}s, "
        f"rcut=6.0 -> {times[6.0]:.2f}s"
    )
    assert times[6.0] > times[2.5]


def test_worker_scaling_changes_training(dataset, benchmark):
    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    """linear scaling at 6 workers really multiplies the start rate —
    verified through the schedule objects the trainer builds."""
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=4.5, rcut_smth=2.0),
        embedding_widths=(4,),
        axis_neurons=2,
        fitting_widths=(4,),
    )
    lrs = {}
    for scheme in ("linear", "sqrt", "none"):
        trainer = Trainer(
            DeepPotModel(config, rng=0),
            dataset,
            TrainingConfig(
                numb_steps=10,
                start_lr=1e-3,
                stop_lr=1e-5,
                scale_by_worker=scheme,
                n_workers=6,
            ),
            rng=0,
        )
        lrs[scheme] = trainer.schedule(0)
    print()
    print(f"effective start rates at 6 workers: {lrs}")
    assert np.isclose(lrs["linear"], 6e-3)
    assert np.isclose(lrs["sqrt"], np.sqrt(6) * 1e-3)
    assert np.isclose(lrs["none"], 1e-3)


# ----------------------------------------------------------------------
# machine-readable bench: one paper-sized training, part by part
# ----------------------------------------------------------------------
SEED = 11
#: 32 AlCl3 + 16 KCl = 160 atoms in a 17.84 A box, 16 frames
PAPER_SYSTEM = {"n_frames": 16, "n_alcl3": 32, "n_kcl": 16}
PAPER_PHENOME = {
    "start_lr": 3e-3,
    "stop_lr": 1e-4,
    "rcut": 8.5,
    "rcut_smth": 2.0,
    "desc_activ_func": "tanh",
    "fitting_activ_func": "tanh",
}
#: the cutoff a warm neighbour plane was built at: the largest ``rcut``
#: a campaign draws (``DeepMDRepresentation.bounds``)
PLANE_RCUT = 12.0


def paper_trainer(dataset: Any, steps: int) -> Trainer:
    """The trainer one evaluation of ``PAPER_PHENOME`` builds, with the
    evaluator's default network shapes."""
    settings = EvaluatorSettings()
    model = DeepPotModel(
        ModelConfig(
            descriptor=DescriptorConfig(
                rcut=PAPER_PHENOME["rcut"],
                rcut_smth=PAPER_PHENOME["rcut_smth"],
            ),
            embedding_widths=settings.embedding_widths,
            axis_neurons=settings.axis_neurons,
            fitting_widths=settings.fitting_widths,
            desc_activation=PAPER_PHENOME["desc_activ_func"],
            fitting_activation=PAPER_PHENOME["fitting_activ_func"],
        ),
        rng=settings.seed,
    )
    return Trainer(
        model,
        dataset,
        TrainingConfig(
            numb_steps=steps,
            batch_size=settings.batch_size,
            disp_freq=steps,
            start_lr=PAPER_PHENOME["start_lr"],
            stop_lr=PAPER_PHENOME["stop_lr"],
        ),
        rng=settings.seed,
    )


def _seconds(fn: Callable[..., Any], *args: Any) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _peak_mb(fn: Callable[[], Any]) -> float:
    """Peak memory ``fn`` allocates on top of what was live before it
    (``tracemalloc``, which NumPy reports its array buffers to)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _best_ms(fn: Callable[[], Any], rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def run(quick: bool = False) -> dict:
    """Execute the bench; returns the machine-readable report dict."""
    steps = 24 if quick else 80
    rounds = 3 if quick else 7
    start = time.perf_counter()
    dataset = generate_dataset(
        equilibration_steps=80, sample_interval=4, rng=SEED, **PAPER_SYSTEM
    )
    generate_s = time.perf_counter() - start
    frames = dataset.train + dataset.validation
    trainer = paper_trainer(dataset, steps)
    for step in range(2):  # warm-up: caches and the allocator
        trainer.train_step(step)
    walls = [_seconds(trainer.train_step, step) for step in range(steps)]

    def fresh_tables():
        _planes.clear()
        prepare_batches(frames, PAPER_PHENOME["rcut"])

    fresh_ms = _best_ms(fresh_tables, rounds)
    _planes.clear()
    prepare_batches(frames, PLANE_RCUT)
    results = {
        "dataset_generate_ms": generate_s * 1e3,
        "step_ms_median": statistics.median(walls) * 1e3,
        "prepare_batches_ms": fresh_ms,
        "plane_read_ms": _best_ms(
            lambda: prepare_batches(frames, PAPER_PHENOME["rcut"]), rounds
        ),
        "validation_ms": _best_ms(trainer.evaluate_validation, rounds),
        "neighbor_width": float(trainer.train_batches[0].max_neighbors),
        # untimed: tracing slows every allocation
        "step_peak_mb": _peak_mb(
            lambda: [trainer.train_step(step) for step in range(4)]
        ),
        "validation_peak_mb": _peak_mb(trainer.evaluate_validation),
    }
    return {
        "bench": "training",
        "quick": quick,
        "frames": len(frames),
        "n_atoms": dataset.n_atoms,
        "steps": steps,
        "rounds": rounds,
        "results": results,
        # same-machine ratio: one training's neighbour tables read out
        # of a warm plane, over the same tables built fresh (lower is
        # better)
        "metrics": {
            "plane_read_vs_fresh_tables": (
                results["plane_read_ms"] / results["prepare_batches_ms"]
            ),
        },
    }


def main(argv: Optional[list] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="BENCH_training.json")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for name, value in report["results"].items():
        print(f"{name:28s} {value:9.1f}")
    for name, value in report["metrics"].items():
        print(f"{name:28s} {value:9.3f}")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
