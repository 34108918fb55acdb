"""Multi-run EA campaigns and their aggregation (§3).

The paper ran five *independent* EA deployments and analyzed them
jointly: Fig. 1 pools losses per generation over all runs, and Fig. 2 /
Tables 2–3 are computed from "the aggregated last generations of all
runs".  :class:`Campaign` reproduces that protocol with per-run seeds
derived from a single campaign seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.evo.algorithm import GenerationRecord
from repro.evo.individual import Individual
from repro.evo.problem import Problem
from repro.hpo.driver import (
    NSGA2Settings,
    run_deepmd_nsga2,
    run_deepmd_pso,
    run_deepmd_steady_state,
    run_deepmd_surrogate,
)
from repro.mo.pareto import pareto_front
from repro.obs.live import get_status
from repro.obs.trace import NullTracer, Tracer, get_tracer
from repro.rng import seeds_for_runs


#: deployment schemes a campaign run can use — the optimizer zoo
CAMPAIGN_MODES = ("generational", "steady-state", "pso", "surrogate")


@dataclass
class CampaignConfig:
    """Paper scale: 5 runs × (1 + 6) generations × 100 individuals.

    ``mode`` selects the deployment scheme per run: ``"generational"``
    (the paper's barrier-synchronized NSGA-II), ``"steady-state"``
    (the §2.2.5 breed-on-completion variant, same training budget,
    rendered as pseudo-generations for the §3 analysis stack),
    ``"pso"`` (the Natarajan & Caro multi-objective particle swarm),
    or ``"surrogate"`` (RBF-surrogate-assisted acquisition).

    ``objectives`` names the fitness dimensions, canonicalized by
    :func:`repro.hpo.objectives.parse_objectives` — the base
    ``("energy", "force")`` pair, optionally extended with
    ``"runtime"`` to make predicted training cost a third minimized
    objective.  ``hv_stop_eps``/``hv_stop_patience`` arm the N-D
    hypervolume early stop on every run.
    """

    n_runs: int = 5
    pop_size: int = 100
    generations: int = 6
    anneal_factor: float = 0.85
    sort_algorithm: str = "rank_ordinal"
    base_seed: int = 2023
    mode: str = "generational"
    objectives: Any = None
    hv_stop_eps: Optional[float] = None
    hv_stop_patience: int = 2
    #: chunked dispatch / pipelined generations (generational mode
    #: only; results bit-identical to the default chunk size 1)
    batch_evals: bool = False
    pipeline: bool = False
    batch_chunk: Optional[int] = None

    def __post_init__(self) -> None:
        self.mode = str(self.mode).replace("_", "-")
        if self.mode not in CAMPAIGN_MODES:
            raise ValueError(
                f"mode must be one of {', '.join(CAMPAIGN_MODES)}, "
                f"got {self.mode!r}"
            )
        from repro.hpo.objectives import parse_objectives

        self.objectives = parse_objectives(self.objectives)

    def nsga2_settings(self) -> NSGA2Settings:
        return NSGA2Settings(
            pop_size=self.pop_size,
            generations=self.generations,
            anneal_factor=self.anneal_factor,
            sort_algorithm=self.sort_algorithm,
            batch_evals=self.batch_evals,
            pipeline=self.pipeline,
            batch_chunk=self.batch_chunk,
            hv_stop_eps=self.hv_stop_eps,
            hv_stop_patience=self.hv_stop_patience,
        )


@dataclass
class CampaignResult:
    """All records of all runs, plus the aggregate §3 views."""

    config: CampaignConfig
    runs: list[list[GenerationRecord]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def n_trainings(self) -> int:
        """Total models trained (the paper: 3500 over 7 generations)."""
        return sum(
            len(rec.evaluated) for run in self.runs for rec in run
        )

    def generation_evaluated(self, generation: int) -> list[Individual]:
        """Every individual evaluated at ``generation``, pooled over
        runs (the Fig. 1 populations)."""
        out: list[Individual] = []
        for run in self.runs:
            if generation < len(run):
                out.extend(run[generation].evaluated)
        return out

    def last_generation_individuals(self) -> list[Individual]:
        """The combined last-generation parent pools of all runs —
        the paper's "final solution dataset" behind Fig. 2/3 and
        Tables 2/3."""
        out: list[Individual] = []
        for run in self.runs:
            out.extend(run[-1].population)
        return out

    def aggregate_pareto_front(self) -> list[Individual]:
        """Fig. 2: the Pareto frontier of the aggregated last
        generations."""
        return pareto_front(self.last_generation_individuals())

    def failures_by_generation(self) -> list[int]:
        """Failed trainings per generation, pooled over runs (§3.2
        reports 25 early failures and none in the last generation)."""
        n_gens = max(len(run) for run in self.runs)
        counts = [0] * n_gens
        for run in self.runs:
            for g, rec in enumerate(run):
                counts[g] += rec.n_failures
        return counts

    def runtimes_last_generation(self) -> np.ndarray:
        """Runtime (minutes) of each final-generation solution."""
        return np.array(
            [
                ind.metadata.get("runtime_minutes", np.nan)
                for ind in self.last_generation_individuals()
            ]
        )


class Campaign:
    """Runs ``n_runs`` independent NSGA-II deployments.

    ``problem_factory`` builds a fresh problem per run (or reuse one by
    passing ``lambda seed: shared_problem``); per-run RNG seeds are
    derived from the campaign seed, making the whole campaign
    reproducible.

    ``tracer`` (default: the process-wide tracer) frames every run in
    a ``campaign.run`` span, which in turn parents the per-generation
    ``ea.generation`` spans — the top of the trace hierarchy a
    ``repro-hpo trace`` report breaks the wall-clock down by.

    ``journal`` (a :class:`repro.store.journal.CampaignJournal`,
    duck-typed to avoid a hard dependency) receives the write-ahead
    stream of campaign/run/generation records as the campaign runs, so
    a killed campaign can be continued with
    :func:`repro.store.resume.resume_campaign`.
    """

    def __init__(
        self,
        problem_factory: Callable[[int], Problem],
        config: Optional[CampaignConfig] = None,
        client: Any = None,
        tracer: Optional[NullTracer | Tracer] = None,
        journal: Any = None,
    ) -> None:
        self.problem_factory = problem_factory
        self.config = config or CampaignConfig()
        self.client = client
        self.tracer = tracer if tracer is not None else get_tracer()
        self.journal = journal

    def run(
        self,
        callback: Optional[Callable[[int, GenerationRecord], None]] = None,
    ) -> CampaignResult:
        result = CampaignResult(config=self.config)
        seeds = seeds_for_runs(self.config.base_seed, self.config.n_runs)
        self.tracer.event(
            "campaign.start",
            n_runs=self.config.n_runs,
            pop_size=self.config.pop_size,
            generations=self.config.generations,
            seed=self.config.base_seed,
        )
        status = get_status()
        if status.enabled:
            status.update(
                mode=self.config.mode,
                n_runs=self.config.n_runs,
                pop_size=self.config.pop_size,
                generations=self.config.generations,
                base_seed=self.config.base_seed,
            )
        if self.journal is not None:
            self.journal.begin_campaign(self.config)
        for run_index, seed in enumerate(seeds):
            problem = self.problem_factory(seed)
            cb = (
                (lambda rec, ri=run_index: callback(ri, rec))
                if callback is not None
                else None
            )
            if self.journal is not None:
                self.journal.begin_run(run_index, int(seed))
            if status.enabled:
                status.begin_run(run_index, seed=int(seed))
            with self.tracer.span(
                "campaign.run",
                run=run_index,
                seed=int(seed),
                mode=self.config.mode,
            ):
                if self.config.mode == "steady-state":
                    records = run_deepmd_steady_state(
                        problem=problem,
                        settings=self.config.nsga2_settings(),
                        client=self.client,
                        rng=seed,
                        callback=cb,
                        tracer=self.tracer,
                        journal=self.journal,
                    )
                elif self.config.mode == "pso":
                    records = run_deepmd_pso(
                        problem=problem,
                        settings=self.config.nsga2_settings(),
                        client=self.client,
                        rng=seed,
                        callback=cb,
                        tracer=self.tracer,
                        journal=self.journal,
                    )
                elif self.config.mode == "surrogate":
                    records = run_deepmd_surrogate(
                        problem=problem,
                        settings=self.config.nsga2_settings(),
                        client=self.client,
                        rng=seed,
                        callback=cb,
                        tracer=self.tracer,
                        journal=self.journal,
                    )
                else:
                    records = run_deepmd_nsga2(
                        problem=problem,
                        settings=self.config.nsga2_settings(),
                        client=self.client,
                        rng=seed,
                        callback=cb,
                        tracer=self.tracer,
                        journal=self.journal,
                    )
            result.runs.append(records)
            if self.journal is not None:
                self.journal.end_run(run_index)
        if self.journal is not None:
            self.journal.end_campaign()
        return result
