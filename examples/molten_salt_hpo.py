#!/usr/bin/env python
"""The full paper pipeline over *real* trainings, miniaturized.

1. Generate molten AlCl3-KCl reference data with classical MD (the
   stand-in for the paper's CP2K FPMD trajectory).
2. Run NSGA-II over the seven DeePMD hyperparameters where every
   fitness evaluation actually trains a DeepPot-SE network on that
   data (UUID run directory, input.json from the template, lcurve.out
   parsed for the final rmse_e_val / rmse_f_val).
3. Evaluate in parallel over a local worker-process pool (the Dask
   analogue).
4. Print the frontier.

Takes a couple of minutes; shrink POP_SIZE / GENERATIONS for a faster
look.

Run:  python examples/molten_salt_hpo.py

Set REPRO_TRACE=/path/to/trace.jsonl to capture a task-level trace of
the whole run, then render it with ``repro-hpo trace <path>``.
"""

import os
import time

import numpy as np

from repro.analysis import format_table, frontier_table
from repro.engine import ProcessPoolBackend
from repro.obs import Tracer, set_tracer
from repro.hpo import (
    DeepMDProblem,
    EvaluatorSettings,
    NSGA2Settings,
    run_deepmd_nsga2,
)
from repro.md.dataset import generate_dataset

POP_SIZE = 8
GENERATIONS = 2
MD_FRAMES = 32


def main() -> None:
    trace_path = os.environ.get("REPRO_TRACE")
    if trace_path:
        set_tracer(Tracer(trace_path))
        print(f"tracing to {trace_path}")
    print(f"generating {MD_FRAMES} MD frames of molten AlCl3-KCl ...")
    dataset = generate_dataset(
        n_frames=MD_FRAMES,
        n_alcl3=4,
        n_kcl=2,
        equilibration_steps=100,
        sample_interval=5,
        rng=7,
    )
    print(
        f"  {len(dataset.train)} training / {len(dataset.validation)} "
        f"validation frames, {dataset.n_atoms} atoms, box "
        f"{dataset.train[0].box[0]:.2f} A"
    )

    settings = EvaluatorSettings(
        numb_steps=40,
        batch_size=2,
        disp_freq=40,
        embedding_widths=(4, 8),
        axis_neurons=2,
        fitting_widths=(8,),
        time_limit=120.0,  # the paper capped each training at 2 hours
    )
    problem = DeepMDProblem(dataset, settings=settings)

    print(
        f"\nNSGA-II: {POP_SIZE} individuals x {GENERATIONS + 1} "
        "generations of real trainings, 4 parallel workers"
    )
    t0 = time.time()
    with ProcessPoolBackend(workers=4) as pool:
        records = run_deepmd_nsga2(
            problem,
            settings=NSGA2Settings(
                pop_size=POP_SIZE, generations=GENERATIONS
            ),
            client=pool,
            rng=1,
        )
    elapsed = time.time() - t0
    total = sum(len(r.evaluated) for r in records)
    print(f"finished {total} trainings in {elapsed:.1f}s")

    for rec in records:
        viable = [i for i in rec.evaluated if i.is_viable]
        if not viable:
            continue
        F = np.array([i.fitness for i in viable])
        print(
            f"  gen {rec.generation}: best force "
            f"{F[:, 1].min():.4f} eV/A, best energy "
            f"{F[:, 0].min():.5f} eV/atom "
            f"({rec.n_failures} failures)"
        )

    table = frontier_table(records[-1].population)
    print()
    print(
        format_table(
            table.rows(),
            title="Pareto frontier over real trainings",
        )
    )
    best = table.members[0]
    print("\nhyperparameters of the first frontier solution:")
    for k, v in best.metadata["phenome"].items():
        print(f"  {k:>20s} = {v}")
    print(f"  training dir: {best.metadata['workdir']}")
    if trace_path:
        print(f"\ntrace captured: repro-hpo trace {trace_path}")


if __name__ == "__main__":
    main()
