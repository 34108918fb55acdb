"""The ``dp``-style command-line interface.

``repro-dp train input.json`` (or ``python -m repro.deepmd.cli train
input.json``) is the stand-in for DeePMD-kit's ``dp train`` executable
that the paper invoked via ``subprocess`` on each Summit node.  It
reads the dataset named in the input file, trains, and writes
``lcurve.out`` and ``model.npz`` into the working directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.deepmd.input_config import InputConfig
    from repro.deepmd.lcurve import write_lcurve
    from repro.deepmd.model import DeepPotModel
    from repro.deepmd.training import Trainer
    from repro.md.dataset import FrameDataset

    config = InputConfig.from_file(args.input)
    data_dir = args.data or config.data_dir
    if not data_dir:
        print("error: no data directory configured", file=sys.stderr)
        return 2
    dataset = FrameDataset.load(data_dir)
    model = DeepPotModel(config.model_config(), rng=config.seed)
    trainer = Trainer(
        model,
        dataset,
        config.training_config(time_limit=args.time_limit),
        rng=config.seed,
    )
    result = trainer.train()
    outdir = Path(args.input).resolve().parent
    write_lcurve(result.lcurve, outdir / "lcurve.out")
    np.savez(outdir / "model.npz", **model.state_dict())
    print(
        f"training finished: rmse_e_val={result.rmse_e_val:.6e} eV/atom, "
        f"rmse_f_val={result.rmse_f_val:.6e} eV/A, "
        f"{result.steps_completed} steps in {result.wall_time:.1f}s"
    )
    return 0


def _cmd_test(args: argparse.Namespace) -> int:
    """``dp test``: evaluate a trained model against a dataset."""
    from repro.deepmd.data import prepare_batches
    from repro.deepmd.input_config import InputConfig
    from repro.deepmd.model import DeepPotModel
    from repro.md.dataset import FrameDataset

    config = InputConfig.from_file(args.input)
    data_dir = args.data or config.data_dir
    if not data_dir:
        print("error: no data directory configured", file=sys.stderr)
        return 2
    dataset = FrameDataset.load(data_dir)
    model = DeepPotModel(config.model_config(), rng=config.seed)
    state = dict(np.load(args.model))
    model.load_state_dict(state)
    frames = (
        dataset.validation if args.split == "validation" else dataset.train
    )
    if not frames:
        print("error: requested split is empty", file=sys.stderr)
        return 2
    batches = prepare_batches(frames, config.rcut, batch_size=4)
    se = sf = 0.0
    n_frames = n_force = 0
    for batch in batches:
        e_pred, f_pred = model.energy_and_forces(batch)
        de = (e_pred.data - batch.energies) / dataset.n_atoms
        se += float(np.sum(de * de))
        df = f_pred.data - batch.forces
        sf += float(np.sum(df * df))
        n_frames += batch.n_frames
        n_force += df.size
    rmse_e = float(np.sqrt(se / n_frames))
    rmse_f = float(np.sqrt(sf / n_force))
    print(
        f"tested {n_frames} {args.split} frames: "
        f"rmse_e={rmse_e:.6e} eV/atom, rmse_f={rmse_f:.6e} eV/A"
    )
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    from repro.md.dataset import generate_dataset

    dataset = generate_dataset(
        n_frames=args.frames,
        n_alcl3=args.alcl3,
        n_kcl=args.kcl,
        rng=args.seed,
    )
    dataset.save(args.output)
    print(
        f"wrote {len(dataset.train)} training / "
        f"{len(dataset.validation)} validation frames "
        f"({dataset.n_atoms} atoms) to {args.output}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dp",
        description="DeePMD-style trainer for the NSGA-II HPO reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a potential")
    p_train.add_argument("input", help="path to input.json")
    p_train.add_argument(
        "--data", default=None, help="override the dataset directory"
    )
    p_train.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="wall-clock limit in seconds",
    )
    p_train.set_defaults(func=_cmd_train)

    p_test = sub.add_parser(
        "test", help="evaluate a trained model against a dataset"
    )
    p_test.add_argument("input", help="path to the training input.json")
    p_test.add_argument("model", help="path to model.npz")
    p_test.add_argument("--data", default=None)
    p_test.add_argument(
        "--split", choices=["train", "validation"], default="validation"
    )
    p_test.set_defaults(func=_cmd_test)

    p_gen = sub.add_parser("gen-data", help="generate an MD dataset")
    p_gen.add_argument("output", help="output directory")
    p_gen.add_argument("--frames", type=int, default=200)
    p_gen.add_argument("--alcl3", type=int, default=4)
    p_gen.add_argument("--kcl", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen_data)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
