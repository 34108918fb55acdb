"""Probes the traced run takes beside its units.

None of them is gated.  They give the layers the four workloads do not
reach — three execution substrates, three of the five drivers — and the
trainer's step loop a number a later issue can cite.  Campaign probes
use the surrogate landscape, so what they time is the machinery.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Any

from harness import LEDGER_DIR, SRC, Workload, run_units, unit_floor
from layers import targets, trainer_plane
from repro.autodiff.tensor import Tensor
from repro.deepmd.descriptor import DescriptorConfig
from repro.deepmd.model import DeepPotModel, ModelConfig
from repro.deepmd.training import Trainer, TrainingConfig
from repro.distributed import LocalCluster
from repro.engine import ElasticBackend, InlineBackend
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.evaluator import DeepMDProblem, EvaluatorSettings
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.obs import Tracer, use_tracer
from repro.service import CampaignService
from spans import SpanRecorder, Target, installed

PATCH_ROOTS = (SRC / "repro", LEDGER_DIR)


def small_config(seed: int, smoke: bool, **kwargs: Any) -> CampaignConfig:
    """1 run x (1+4) generations x 40: 200 evaluations, no store."""
    pop, gens = (10, 2) if smoke else (40, 4)
    return CampaignConfig(
        n_runs=1, pop_size=pop, generations=gens, base_seed=seed, **kwargs
    )


def timed_campaign(config: CampaignConfig, client: Any = None) -> tuple[float, int]:
    start = time.perf_counter()
    result = Campaign(
        lambda seed: SurrogateDeepMDProblem(seed=seed), config, client=client
    ).run()
    return time.perf_counter() - start, result.n_trainings


def driver_costs(seed: int, smoke: bool) -> dict[str, float]:
    """Wall per evaluation of each driver on the same small budget."""
    variants = {
        "generational": dict(mode="generational"),
        "generational_batch": dict(mode="generational", batch_evals=True),
        "steady_state": dict(mode="steady-state"),
        "pso": dict(mode="pso"),
        "surrogate": dict(mode="surrogate"),
    }
    out = {}
    for name, kwargs in variants.items():
        wall, evals = timed_campaign(small_config(seed, smoke, **kwargs))
        out[f"evo.{name}.us_per_eval"] = wall / evals * 1e6
    return out


def tracer_overhead(workload: Workload, plain_wall_s: float) -> dict[str, float]:
    """Two more units with the program's own ``Tracer`` installed,
    against the plain units the traced run already timed."""
    tracer = Tracer()
    with use_tracer(tracer):
        units = run_units(workload, -2, count=2)
    return {
        "obs.tracer_overhead_ratio": unit_floor(units) / plain_wall_s,
        "obs.spans_emitted": len(tracer.records) / len(units),
    }


def training_steps(
    dataset: Any, phenome: dict[str, Any], n_steps: int
) -> dict[str, float]:
    """Step the ``Trainer``'s public parts from here, the way its own
    loop does, timing every step and counting every tensor."""
    settings = EvaluatorSettings()
    model = DeepPotModel(
        ModelConfig(
            descriptor=DescriptorConfig(
                rcut=phenome["rcut"], rcut_smth=phenome["rcut_smth"]
            ),
            embedding_widths=settings.embedding_widths,
            axis_neurons=settings.axis_neurons,
            fitting_widths=settings.fitting_widths,
            desc_activation=phenome["desc_activ_func"],
            fitting_activation=phenome["fitting_activ_func"],
        ),
        rng=settings.seed,
    )
    trainer = Trainer(
        model,
        dataset,
        TrainingConfig(
            numb_steps=n_steps,
            batch_size=settings.batch_size,
            disp_freq=n_steps,
            start_lr=phenome["start_lr"],
            stop_lr=phenome["stop_lr"],
            scale_by_worker=phenome["scale_by_worker"],
            n_workers=settings.n_workers,
        ),
        rng=settings.seed,
    )
    recorder = SpanRecorder()
    count_tensors = Target(
        "repro.autodiff.tensor:Tensor.__init__",
        "autodiff.tensors",
        "autodiff",
        count_only=True,
    )
    walls = []
    with installed(recorder, [count_tensors], PATCH_ROOTS):
        for step in range(n_steps):
            start = time.perf_counter()
            batch = trainer.train_batches[
                int(trainer.rng.integers(len(trainer.train_batches)))
            ]
            e_pred, f_pred = trainer.model.energy_and_forces(
                batch, create_graph=True
            )
            loss = trainer.loss_fn(
                step,
                e_pred,
                Tensor(batch.energies),
                f_pred,
                Tensor(batch.forces),
            )
            trainer.optimizer.zero_grad()
            loss.backward()
            trainer.optimizer.lr = trainer.schedule(step)
            trainer.optimizer.step()
            walls.append(time.perf_counter() - start)
    deciles = statistics.quantiles(walls, n=10)
    return {
        "deepmd.training.step_ms_p50": deciles[4] * 1e3,
        "deepmd.training.step_ms_p90": deciles[8] * 1e3,
        "deepmd.training.steps": float(n_steps),
        "autodiff.tensors_per_step": (
            recorder.counts["autodiff.tensors"] / n_steps
        ),
    }


def inline_replay(workload: Any) -> dict[str, float]:
    """The pool campaign's founders evaluated once more in this process,
    wrapped — the pool's workers are out of the wrappers' reach, and
    this is what one of their evaluations is made of."""
    directory = workload.workdir / "replay"
    problem = DeepMDProblem(
        workload.dataset, base_dir=directory, settings=workload.settings
    )
    recorder = SpanRecorder()
    with installed(recorder, targets(), PATCH_ROOTS):
        for i, phenome in enumerate(workload.founders):
            problem.evaluate_with_metadata(phenome, uuid=f"replay{i}")
    shutil.rmtree(directory)
    return trainer_plane(recorder.all_spans(), recorder.counts)


def substrates(pool: Any, workdir: Path, smoke: bool) -> dict[str, float]:
    """Evaluations per second through each execution substrate."""
    seed = 2023
    out = {}
    batch = small_config(seed, smoke, batch_evals=True)
    wall, evals = timed_campaign(batch, client=pool)
    out["engine.pool.dispatch_evals_per_s"] = evals / wall
    with ElasticBackend(
        [pool, InlineBackend()],
        min_workers=pool.n_workers,
        max_workers=pool.n_workers,
    ) as fleet:  # does not own the pool: the workload closes it
        wall, evals = timed_campaign(batch, client=fleet)
    out["engine.fleet.dispatch_evals_per_s"] = evals / wall
    with LocalCluster(n_workers=2) as cluster:  # threads, not processes
        wall, evals = timed_campaign(
            small_config(seed, smoke), client=cluster.client()
        )
    out["distributed.dispatch_evals_per_s"] = evals / wall
    # two tenants, one inline backend, no HTTP
    service = CampaignService(workdir / "service")
    config = small_config(seed, smoke)
    spec = {
        "config": {
            "n_runs": config.n_runs,
            "pop_size": config.pop_size,
            "generations": config.generations,
        },
        "problem": {"backend": "surrogate"},
    }
    try:
        start = time.perf_counter()
        for i, tenant in enumerate(("alice", "bob")):
            service.submit(
                {
                    **spec,
                    "tenant": tenant,
                    "config": {**spec["config"], "base_seed": seed + i},
                }
            )
        finished = service.wait(timeout=120.0)
        wall = time.perf_counter() - start
    finally:
        service.shutdown()
    if not finished:
        raise RuntimeError("service probe: campaigns still running after 120 s")
    evals = 2 * config.n_runs * config.pop_size * (config.generations + 1)
    out["service.dispatch_evals_per_s"] = evals / wall
    return out
