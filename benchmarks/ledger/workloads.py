"""The four workloads of the ledger.

Each drives public library calls only, the way ``repro-hpo campaign`` /
``resume`` do minus the printing, and checks what came back.  They are
chosen so that every optimisation has one workload that exercises its
layer and one that bypasses it:

=====================  ==========================  =====================
workload               layers doing the work       layers bypassed
=====================  ==========================  =====================
``paper_campaign_save``  store (writes), engine       trainer, pool
                         scalar path, landscape, evo
``paper_resume_warm``    store (reads, resume),       trainer, pool
                         engine, evo (NSGA-II + PSO)
``train_160atom``        autodiff, deepmd, nn on      engine, store, evo,
                         large arrays                 pool
``real_campaign_pool``   every layer, small arrays    landscape
=====================  ==========================  =====================
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from harness import POOL_WORKERS, Unit, Workload
from layers import pool_plane
from repro.chaos import InvariantChecker
from repro.deepmd.lcurve import read_lcurve
from repro.engine import ProcessPoolBackend
from repro.hpo.campaign import Campaign, CampaignConfig, CampaignResult
from repro.hpo.evaluator import DeepMDProblem, EvaluatorSettings
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.io import save_campaign
from repro.md.dataset import generate_dataset
from repro.obs import Tracer
from repro.obs.metrics import get_registry
from repro.store import (
    CachedProblem,
    CampaignJournal,
    EvaluationCache,
    journal_path,
    read_journal,
    resume_campaign,
)

SURROGATE_SPEC = {"backend": "surrogate"}


def front_signature(result: CampaignResult) -> list[tuple[bytes, bytes]]:
    """The aggregate Pareto front, bit for bit and order-free."""
    return sorted(
        (
            np.asarray(ind.genome, dtype=np.float64).tobytes(),
            np.asarray(ind.fitness, dtype=np.float64).tobytes(),
        )
        for ind in result.aggregate_pareto_front()
    )


def maxint_count(result: CampaignResult) -> int:
    return int(sum(result.failures_by_generation()))


def tree_size(path: Path) -> tuple[int, int]:
    """(files, bytes) under ``path``."""
    sizes = [
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(path)
        for name in names
    ]
    return len(sizes), sum(sizes)


def cached_surrogate(cache: EvaluationCache) -> Callable[[int], Any]:
    return lambda seed: CachedProblem(SurrogateDeepMDProblem(seed=seed), cache)


def journaled_campaign(
    directory: Path,
    factory: Callable[[int], Any],
    config: CampaignConfig,
    problem_spec: dict[str, Any],
    mark: Callable[[], None],
    client: Any = None,
) -> CampaignResult:
    """``repro-hpo campaign --save`` up to the report: a fresh fsynced
    journal, the campaign, ``mark()`` after every committed generation."""
    journal = CampaignJournal(
        journal_path(directory), problem_spec=problem_spec
    )
    try:
        return Campaign(
            factory, config, journal=journal, client=client
        ).run(lambda run, record: mark())
    finally:
        journal.close()


# ----------------------------------------------------------------------
class PaperCampaignSave(Workload):
    """The paper's campaign as a user runs it, store and all."""

    name = "paper_campaign_save"
    why = (
        "5x7x100 surrogate NSGA-II campaign with fresh cache, fsynced "
        "journal and save: store writes, scalar engine path, landscape, "
        "evo; trainer and pool do nothing"
    )

    def config(self) -> CampaignConfig:
        runs, pop, gens = (2, 20, 2) if self.smoke else (5, 100, 6)
        return CampaignConfig(
            n_runs=runs, pop_size=pop, generations=gens, base_seed=self.seed
        )

    def setup(self) -> None:
        # the oracle: same campaign, no store, and through the batch
        # plane (a fifth of the scalar path's time, the same bits)
        oracle = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed),
            dataclasses.replace(self.config(), batch_evals=True),
        ).run()
        self.oracle_front = front_signature(oracle)
        self.oracle_maxint = maxint_count(oracle)
        self.work = oracle.n_trainings
        self.last_dir: Optional[Path] = None

    def prepare(self, index: int) -> Path:
        return self.workdir / f"unit{index}"

    def body(self, directory: Path, mark: Callable[[], None]) -> Any:
        directory.mkdir(parents=True)
        cache = EvaluationCache(directory / "cache")
        result = journaled_campaign(
            directory,
            cached_surrogate(cache),
            self.config(),
            SURROGATE_SPEC,
            mark,
        )
        mark()
        save_campaign(result, directory)
        return result, cache

    def verify(self, directory: Path, out: Any) -> Unit:
        result, cache = out
        unit = Unit(work=self.work, maxint=maxint_count(result))
        if result.n_trainings != self.work:
            unit.error = f"{result.n_trainings} trainings, not {self.work}"
        elif front_signature(result) != self.oracle_front:
            unit.error = "aggregate front differs from the store-less oracle"
        elif unit.maxint != self.oracle_maxint:
            unit.error = (
                f"{unit.maxint} MAXINT evaluations, the oracle had "
                f"{self.oracle_maxint}"
            )
        stats = cache.stats()
        files, size = tree_size(directory / "cache")
        unit.facts = {
            "store.cache.inserts": stats["inserts"],
            "store.cache.lookups": stats["hits"] + stats["misses"],
            "store.cache.hits": stats["hits"],
            "store.cache.files_created": files,
            "store.cache.bytes_written": size,
            "store.journal.bytes_written": journal_path(directory)
            .stat()
            .st_size,
            "io.bytes_written": sum(
                (directory / f).stat().st_size
                for f in ("campaign.json", "arrays.npz")
            ),
        }
        return unit

    def cleanup(self, directory: Path) -> None:
        # the newest unit stays for finish(); the one before it goes
        if self.last_dir is not None:
            shutil.rmtree(self.last_dir)
        self.last_dir = directory

    def finish(self) -> Optional[str]:
        report = InvariantChecker(
            journal=journal_path(self.last_dir),
            cache_dir=self.last_dir / "cache",
        ).check()
        return None if report.ok else report.summary()

    def probes(
        self, plain_wall_s: float, units: Sequence[Unit]
    ) -> dict[str, float]:
        import probes

        out = probes.driver_costs(self.seed, self.smoke)
        out.update(probes.tracer_overhead(self, plain_wall_s))
        return out


# ----------------------------------------------------------------------
class PaperResumeWarm(Workload):
    """The store used the other way: warm resubmission and resume."""

    name = "paper_resume_warm"
    why = (
        "NSGA-II and PSO campaigns resubmitted over a complete on-disk "
        "cache, then resumed from journals torn at 45 %: store reads, key "
        "hashing, journal parsing, per-mode resume; no store inserts"
    )
    modes = ("generational", "pso")

    def config(self, mode: str) -> CampaignConfig:
        # three runs, not the paper's five: at five a unit is 5.8 s and
        # fewer than four fit in a run; the per-evaluation path is the same
        runs, pop, gens = (2, 20, 2) if self.smoke else (3, 100, 6)
        return CampaignConfig(
            n_runs=runs,
            pop_size=pop,
            generations=gens,
            base_seed=self.seed,
            mode=mode,
        )

    def home(self, mode: str) -> Path:
        return self.workdir / "cold" / mode

    def setup(self) -> None:
        self.cold_front: dict[str, Any] = {}
        self.torn: dict[str, bytes] = {}
        self.delivered: dict[str, tuple[int, int]] = {}
        self.restored_generations = 0
        for mode in self.modes:
            home = self.home(mode)
            home.mkdir(parents=True)
            cache = EvaluationCache(home / "cache")
            cold = journaled_campaign(
                home,
                cached_surrogate(cache),
                self.config(mode),
                SURROGATE_SPEC,
                lambda: None,
            )
            self.cold_front[mode] = front_signature(cold)
            data = journal_path(home).read_bytes()
            self.torn[mode] = data[: int(len(data) * 0.45)]
            # what each path must deliver: a warm rerun looks every
            # evaluation of the cold campaign up again; a resume only
            # those the torn journal no longer holds
            stats = cache.stats()
            lookups = stats["hits"] + stats["misses"]
            torn_path = home / "torn.jsonl"
            torn_path.write_bytes(self.torn[mode])
            restored = [
                doc
                for run in read_journal(torn_path).runs.values()
                for doc in run.contiguous_generations()
            ]
            self.restored_generations += len(restored)
            self.delivered[mode] = (
                lookups,
                cold.n_trainings
                - sum(len(doc["evaluated"]["genomes"]) for doc in restored),
            )
        self.work = sum(a + b for a, b in self.delivered.values())

    def prepare(self, index: int) -> Path:
        directory = self.workdir / f"unit{index}"
        for mode in self.modes:
            target = directory / mode / "resume"
            target.mkdir(parents=True)
            journal_path(target).write_bytes(self.torn[mode])
        return directory

    def body(self, directory: Path, mark: Callable[[], None]) -> Any:
        out = {}
        for mode in self.modes:
            on_disk = self.home(mode) / "cache"
            # (a) new journal, cold in-memory index, complete disk cache
            warm_cache = EvaluationCache(on_disk)
            warm = journaled_campaign(
                directory / mode / "warm",
                cached_surrogate(warm_cache),
                self.config(mode),
                SURROGATE_SPEC,
                mark,
            )
            mark()
            # (b) resume from the torn journal over the same cache
            resume_cache = EvaluationCache(on_disk)
            with warnings.catch_warnings():
                # the torn tail is the point, not news
                warnings.simplefilter("ignore", UserWarning)
                resumed = resume_campaign(
                    directory / mode / "resume",
                    cache=resume_cache,
                    callback=lambda run, record: mark(),
                )
            mark()
            out[mode] = (warm, warm_cache, resumed, resume_cache)
        return out

    def verify(self, directory: Path, out: Any) -> Unit:
        unit = Unit(work=self.work)
        facts = {
            "store.cache.inserts": 0,
            "store.cache.lookups": 0,
            "store.cache.hits": 0,
            "store.journal.bytes_written": 0,
            "store.resume.restored_generations": self.restored_generations,
        }
        for mode, (warm, warm_cache, resumed, resume_cache) in out.items():
            for label, result, cache, expected in (
                ("warm", warm, warm_cache, self.delivered[mode][0]),
                ("resumed", resumed, resume_cache, self.delivered[mode][1]),
            ):
                stats = cache.stats()
                lookups = stats["hits"] + stats["misses"]
                facts["store.cache.inserts"] += stats["inserts"]
                facts["store.cache.lookups"] += lookups
                facts["store.cache.hits"] += stats["hits"]
                # failures are never cached: every miss is one of them,
                # executed again and scored MAXINT again
                unit.maxint += stats["misses"]
                if unit.error is not None:
                    continue
                if front_signature(result) != self.cold_front[mode]:
                    unit.error = f"{mode}: {label} front differs from the cold one"
                elif stats["inserts"]:
                    unit.error = (
                        f"{mode}: {label} campaign inserted "
                        f"{stats['inserts']} entries into the shared cache"
                    )
                elif lookups != expected:
                    unit.error = (
                        f"{mode}: {label} campaign delivered {lookups} "
                        f"evaluations, expected {expected}"
                    )
            for part in ("warm", "resume"):
                facts["store.journal.bytes_written"] += (
                    journal_path(directory / mode / part).stat().st_size
                )
            facts["store.journal.bytes_written"] -= len(self.torn[mode])
        unit.facts = facts
        return unit

    def cleanup(self, directory: Path) -> None:
        shutil.rmtree(directory)


# ----------------------------------------------------------------------
#: the paper-accurate regime, fixed so every unit does the same work
TRAIN_PHENOME = {
    "start_lr": 3e-3,
    "stop_lr": 1e-4,
    "rcut": 8.5,
    "rcut_smth": 2.0,
    "scale_by_worker": "none",
    "desc_activ_func": "tanh",
    "fitting_activ_func": "tanh",
}


def timed_dataset(facts: dict[str, float], **kwargs: Any) -> Any:
    start = time.perf_counter()
    dataset = generate_dataset(
        equilibration_steps=80, sample_interval=4, **kwargs
    )
    facts["md.dataset_generate_s"] = time.perf_counter() - start
    return dataset


class Train160Atom(Workload):
    """One real DeepPot-SE training through the file interface."""

    name = "train_160atom"
    operation = "training step"
    why = (
        "one 40-step DeepPot-SE training at paper size (160 atoms, rcut "
        "8.5) through the file interface: autodiff, deepmd and nn on "
        "large arrays; engine, store, evo and pool do nothing"
    )

    def setup(self) -> None:
        if self.smoke:
            system, frames, self.steps = dict(n_alcl3=4, n_kcl=2), 8, 6
        else:
            # 32 AlCl3 + 16 KCl = 160 atoms in a 17.84 A box
            system, frames, self.steps = dict(n_alcl3=32, n_kcl=16), 16, 40
        self.dataset = timed_dataset(
            self.setup_facts, n_frames=frames, rng=self.seed, **system
        )
        self.problem = DeepMDProblem(
            self.dataset,
            base_dir=self.workdir / "runs",
            settings=EvaluatorSettings(
                numb_steps=self.steps, disp_freq=self.steps // 2
            ),
        )
        self.work = self.steps
        self.reference: Optional[np.ndarray] = None

    def body(self, index: int, mark: Callable[[], None]) -> Any:
        return self.problem.evaluate_with_metadata(
            dict(TRAIN_PHENOME), uuid=f"unit{index}"
        )

    def verify(self, index: int, out: Any) -> Unit:
        fitness, metadata = out
        unit = Unit(work=self.work)
        lcurve = read_lcurve(Path(metadata["workdir"]) / "lcurve.out")
        if self.reference is None:
            self.reference = np.array(fitness)
        if not np.all(np.isfinite(fitness)):
            unit.error = f"fitness {fitness} is not finite"
        elif fitness.tobytes() != self.reference.tobytes():
            unit.error = f"fitness {fitness} differs from {self.reference}"
        elif len(lcurve) != 3:
            unit.error = f"lcurve.out has {len(lcurve)} rows, not 3"
        elif int(lcurve.rows[-1]["step"]) != self.steps:
            unit.error = (
                f"training stopped at step {lcurve.rows[-1]['step']:.0f}, "
                f"not {self.steps}"
            )
        return unit

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self.workdir / "runs" / f"unit{index}")

    def probes(
        self, plain_wall_s: float, units: Sequence[Unit]
    ) -> dict[str, float]:
        import probes

        return probes.training_steps(
            self.dataset, TRAIN_PHENOME, 12 if self.smoke else 120
        )


# ----------------------------------------------------------------------
#: the pool campaign's EA seed does not follow ``--seed``: the founders
#: draw rcut from U(6, 12) and cost goes with rcut^3, so with eight of
#: them the EA seed alone moved the unit's wall by +-10 %.  ``--seed``
#: still makes every frame the trainer sees.
POOL_CAMPAIGN_SEED = 2023


class RealCampaignPool(Workload):
    """A small real HPO over a process pool."""

    name = "real_campaign_pool"
    why = (
        "1x2x6 real DeepMD campaign (8 steps, 20 atoms, the same genomes "
        "on every seed) in chunks of 3 over a 2-worker pool: batch path, "
        "dispatch, straggler wait; ~40 % of an evaluation is not the "
        "step loop"
    )
    min_units = 5
    traced_units = 5  # 60 evaluations behind the latency percentiles
    pool: Optional[ProcessPoolBackend] = None

    def setup(self) -> None:
        frames, self.steps, self.pop = (8, 4, 4) if self.smoke else (16, 8, 6)
        self.frames = frames
        self.dataset = timed_dataset(
            self.setup_facts, n_frames=frames, rng=self.seed
        )
        self.settings = EvaluatorSettings(
            numb_steps=self.steps, disp_freq=self.steps
        )
        self.work = self.pop * 2
        self.reference: Optional[tuple[Any, int]] = None
        # the program's own tracer rides along on the traced run only,
        # and records only while the wrapped units run: the pool reads
        # ``enabled`` at every dispatch and ships ``worker.task`` spans back
        self.tracer = None
        if self.traced:
            self.tracer = Tracer()
            self.tracer.enabled = False
        start = time.perf_counter()
        self.pool = ProcessPoolBackend(
            workers=POOL_WORKERS, tracer=self.tracer
        )
        self.setup_facts["engine.pool.spawn_s"] = time.perf_counter() - start
        self.pool_counters = self.pool_faults()

    def config(self) -> CampaignConfig:
        return CampaignConfig(
            n_runs=1,
            pop_size=self.pop,
            generations=1,
            base_seed=POOL_CAMPAIGN_SEED,
            batch_evals=True,
        )

    @staticmethod
    def pool_faults() -> tuple[float, float]:
        registry = get_registry()
        return (
            registry.counter("pool_worker_deaths_total").value,
            registry.counter("pool_tasks_requeued_total").value,
        )

    def prepare(self, index: int) -> Path:
        directory = self.workdir / f"unit{index}"
        directory.mkdir()
        return directory

    def body(self, directory: Path, mark: Callable[[], None]) -> Any:
        shared = CachedProblem(
            DeepMDProblem(
                self.dataset,
                base_dir=directory / "runs",
                settings=self.settings,
            ),
            EvaluationCache(directory / "cache"),
        )
        return journaled_campaign(
            directory,
            lambda seed: shared,
            self.config(),
            {
                "backend": "real",
                "frames": self.frames,
                "seed": self.seed,
                "steps": self.steps,
            },
            mark,
            client=self.pool,
        )

    def verify(self, directory: Path, result: CampaignResult) -> Unit:
        unit = Unit(work=self.work, maxint=maxint_count(result))
        outcome = (front_signature(result), unit.maxint)
        if self.reference is None:
            self.reference = outcome
            self.founders = [
                ind.decode() for ind in result.runs[0][0].evaluated
            ]
        deaths, requeues = (
            now - before
            for now, before in zip(self.pool_faults(), self.pool_counters)
        )
        if result.n_trainings != self.work:
            unit.error = f"{result.n_trainings} evaluations, not {self.work}"
        elif outcome != self.reference:
            unit.error = "front or MAXINT count differs from the warm-up unit's"
        elif deaths or requeues:
            unit.error = f"{deaths:.0f} worker deaths, {requeues:.0f} requeues"
        files, size = tree_size(directory / "cache")
        unit.facts = {
            "store.cache.files_created": files,
            "store.cache.bytes_written": size,
            "store.journal.bytes_written": journal_path(directory)
            .stat()
            .st_size,
            "engine.pool.worker_deaths": deaths,
            "engine.pool.requeues": requeues,
        }
        return unit

    def cleanup(self, directory: Path) -> None:
        shutil.rmtree(directory)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    @contextmanager
    def tracing(self) -> Iterator[None]:
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False

    def probes(
        self, plain_wall_s: float, units: Sequence[Unit]
    ) -> dict[str, float]:
        import probes

        out = pool_plane(
            self.tracer.records,
            self.pool.n_workers,
            sum(u.wall for u in units),
            len(units),
        )
        out.update(probes.inline_replay(self))
        out.update(
            probes.training_steps(
                self.dataset,
                {**TRAIN_PHENOME, "rcut": 6.0},
                12 if self.smoke else 120,
            )
        )
        out.update(probes.substrates(self.pool, self.workdir, self.smoke))
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        PaperCampaignSave,
        PaperResumeWarm,
        Train160Atom,
        RealCampaignPool,
    )
}
