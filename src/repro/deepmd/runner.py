"""Training-run orchestration: UUID directories and the ``dp`` runner.

Reproduces §2.2.4 steps 2–4: every evaluation gets a sub-directory
named after the individual's UUID, an ``input.json`` rendered from the
template, a (sub)process-style invocation of the training executable,
and fitness extraction from the last ``rmse_e_val`` / ``rmse_f_val``
values of ``lcurve.out``.

Two execution modes are provided:

``mode="inprocess"``
    Runs the trainer in the current interpreter (fast; used by tests
    and by distributed workers, which already provide isolation).
``mode="subprocess"``
    Invokes ``python -m repro.deepmd.cli train input.json`` exactly as
    the paper invoked ``dp train`` through ``subprocess`` with a
    timeout, exercising the full file-based interface.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import uuid as uuid_module
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.deepmd.input_config import (
    InputConfig,
    default_input_template,
    render_input_json,
)
from repro.deepmd.lcurve import read_lcurve
from repro.deepmd.model import DeepPotModel
from repro.deepmd.training import Trainer, TrainingResult
from repro.exceptions import (
    EvaluationError,
    TrainingTimeoutError,
)
from repro.md.dataset import FrameDataset


@dataclass
class TrainingRun:
    """Record of one orchestrated training."""

    uuid: str
    workdir: Path
    rmse_e_val: float
    rmse_f_val: float
    wall_time: float


def prepare_run_directory(
    base_dir: str | Path,
    variables: Mapping[str, Any],
    template: Optional[str] = None,
    run_uuid: Optional[str] = None,
) -> Path:
    """Create the UUID-named run directory with its ``input.json``."""
    run_uuid = run_uuid or str(uuid_module.uuid4())
    workdir = Path(base_dir) / run_uuid
    workdir.mkdir(parents=True, exist_ok=True)
    text = render_input_json(template or default_input_template(), variables)
    (workdir / "input.json").write_text(text)
    return workdir


def execute_training(
    workdir: str | Path,
    dataset: Optional[FrameDataset] = None,
    time_limit: Optional[float] = None,
    mode: str = "inprocess",
) -> TrainingResult:
    """Run the training described by ``workdir/input.json``.

    In ``subprocess`` mode a :class:`TrainingTimeoutError` is raised if
    the child exceeds ``time_limit`` (mirroring the paper's
    ``subprocess`` call raising ``TimeoutError`` after two hours), and
    an :class:`EvaluationError` on a non-zero exit status.
    """
    workdir = Path(workdir)
    config = InputConfig.from_file(workdir / "input.json")
    if mode == "inprocess":
        if dataset is None:
            if not config.data_dir:
                raise EvaluationError("input.json names no data directory")
            dataset = FrameDataset.load(config.data_dir)
        model = DeepPotModel(config.model_config(), rng=config.seed)
        trainer = Trainer(
            model,
            dataset,
            config.training_config(time_limit=time_limit),
            rng=config.seed,
        )
        result = trainer.train()
        from repro.deepmd.lcurve import write_lcurve

        write_lcurve(result.lcurve, workdir / "lcurve.out")
        import numpy as np

        np.savez(workdir / "model.npz", **model.state_dict())
        return result
    if mode == "subprocess":
        start = time.monotonic()
        cmd = [
            sys.executable,
            "-m",
            "repro.deepmd.cli",
            "train",
            "input.json",
        ]
        # the child runs in ``workdir``, where a relative PYTHONPATH
        # entry of this process no longer resolves: hand it the
        # absolute directory the running ``repro`` package lives in
        package_root = str(Path(__file__).resolve().parents[2])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=package_root
            + (os.pathsep + inherited if inherited else ""),
        )
        try:
            proc = subprocess.run(
                cmd,
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
                timeout=time_limit,
            )
        except subprocess.TimeoutExpired as exc:
            raise TrainingTimeoutError(
                time.monotonic() - start, time_limit or 0.0
            ) from exc
        if proc.returncode != 0:
            raise EvaluationError(
                f"dp train failed (exit {proc.returncode}):\n{proc.stderr}"
            )
        lcurve = read_lcurve(workdir / "lcurve.out")
        rmse_e, rmse_f = lcurve.final_losses()
        return TrainingResult(
            rmse_e_val=rmse_e,
            rmse_f_val=rmse_f,
            lcurve=lcurve,
            wall_time=time.monotonic() - start,
            steps_completed=config.numb_steps,
        )
    raise ValueError(f"unknown execution mode {mode!r}")


def run_training(
    base_dir: str | Path,
    variables: Mapping[str, Any],
    dataset: Optional[FrameDataset] = None,
    template: Optional[str] = None,
    time_limit: Optional[float] = None,
    mode: str = "inprocess",
    run_uuid: Optional[str] = None,
) -> TrainingRun:
    """End-to-end §2.2.4 workflow for one individual.

    Creates the run directory, renders ``input.json``, executes the
    training, and reads the final validation losses from the learning
    curve.  Exceptions propagate so the caller (the EA's robust
    individual) can assign ``MAXINT`` fitness.
    """
    run_uuid = run_uuid or str(uuid_module.uuid4())
    workdir = prepare_run_directory(
        base_dir, variables, template=template, run_uuid=run_uuid
    )
    result = execute_training(
        workdir, dataset=dataset, time_limit=time_limit, mode=mode
    )
    return TrainingRun(
        uuid=run_uuid,
        workdir=workdir,
        rmse_e_val=result.rmse_e_val,
        rmse_f_val=result.rmse_f_val,
        wall_time=result.wall_time,
    )
