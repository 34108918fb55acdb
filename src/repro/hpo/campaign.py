"""Multi-run EA campaigns and their aggregation (§3).

The paper ran five *independent* EA deployments and analyzed them
jointly: Fig. 1 pools losses per generation over all runs, and Fig. 2 /
Tables 2–3 are computed from "the aggregated last generations of all
runs".  :class:`Campaign` reproduces that protocol with per-run seeds
derived from a single campaign seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.evo.algorithm import GenerationRecord, RestoredRun
from repro.evo.individual import Individual
from repro.evo.problem import Problem
from repro.hpo.driver import NSGA2Settings, deployment
from repro.hpo.representation import DeepMDRepresentation
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
    a record per ``pop_size`` completions for the §3 analysis stack),
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
    #: chunked dispatch, and commits overlapped with the next record's
    #: evaluations: ``pipeline`` applies to the modes with a barrier to
    #: pipeline (generational, pso, surrogate), ``batch_evals`` to
    #: generational (pso and surrogate always cross the backend in
    #: chunks); results bit-identical to the default chunk size 1
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
    a killed campaign can be continued by handing what an earlier
    session journaled back to :meth:`run` — which is all
    :func:`repro.store.resume.resume_campaign` does.
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
        #: how the last :meth:`run` obtained each of its runs
        self.run_counts: dict[str, int] = {}

    def run(
        self,
        callback: Optional[Callable[[int, GenerationRecord], None]] = None,
        journaled: Any = None,
    ) -> CampaignResult:
        """Run the campaign; with ``journaled`` (the
        :class:`repro.store.journal.JournalState` of an earlier
        session, whose journal ``self.journal`` appends to), continue
        that campaign instead of starting one:

        * fully journaled runs are restored verbatim;
        * an interrupted run restarts at the exact next generation —
          the driver is restored from the committed records, the last
          one's ``driver_state`` and its RNG bit-generator state, so
          the continuation is bit-identical (genomes and fitnesses) to
          the run that was never killed;
        * runs with nothing committed are executed fresh, with the
          seed the journal recorded for them.

        A steady-state run restarts from its seed instead and replays
        its journaled evaluations: nothing journaled is evaluated again.
        """
        config = self.config
        result = CampaignResult(config=config)
        counts = self.run_counts = dict.fromkeys(
            ("runs_restored", "runs_resumed", "runs_fresh"), 0
        )
        self.tracer.event(
            "campaign.start",
            n_runs=config.n_runs,
            pop_size=config.pop_size,
            generations=config.generations,
            seed=config.base_seed,
        )
        status = get_status()
        if status.enabled:
            status.update(
                mode=config.mode,
                n_runs=config.n_runs,
                pop_size=config.pop_size,
                generations=config.generations,
                base_seed=config.base_seed,
            )
        if self.journal is not None and journaled is None:
            self.journal.begin_campaign(config)
        earlier = journaled.runs if journaled is not None else {}
        seeds = seeds_for_runs(config.base_seed, config.n_runs)
        for run_index, seed in enumerate(seeds):
            prior = earlier.get(run_index)
            docs = prior.contiguous_generations() if prior else []
            if prior is not None and prior.seed is not None:
                seed = prior.seed
            if docs and (
                prior.complete or len(docs) == config.generations + 1
            ):
                # fully journaled — including runs the hypervolume
                # stopper ended before the generation budget: restore
                # without a problem attached (these individuals are
                # analysis data, not parents)
                result.runs.append(_restored_run(docs).records)
                counts["runs_restored"] += 1
                continue
            problem = self.problem_factory(seed)
            resume: dict[str, Any] = {}
            tags: dict[str, Any] = {}
            #: where ``run_resume`` says this session picks the run up
            resumed_at: Optional[int] = None
            evaluations = prior.evaluations if prior else []
            if docs or evaluations:
                # interrupted mid-run: restore, continue after it
                resume["resume_from"] = _restored_run(
                    docs, problem, evaluations
                )
                resumed_at = len(docs) - 1
                tags = dict(
                    resumed_from=resumed_at,
                    replayed_evaluations=len(evaluations),
                )
            counts[
                "runs_fresh" if resumed_at is None else "runs_resumed"
            ] += 1
            if self.journal is not None and resumed_at is None:
                self.journal.begin_run(run_index, int(seed))
            elif self.journal is not None:
                self.journal.resume_run(run_index, resumed_at)
            if status.enabled:
                status.begin_run(run_index, seed=int(seed))
            with self.tracer.span(
                "campaign.run",
                run=run_index,
                seed=int(seed),
                mode=config.mode,
                **tags,
            ):
                records = deployment(config.mode)(
                    problem=problem,
                    settings=config.nsga2_settings(),
                    client=self.client,
                    rng=seed,
                    callback=(
                        (lambda rec, ri=run_index: callback(ri, rec))
                        if callback is not None
                        else None
                    ),
                    tracer=self.tracer,
                    journal=self.journal,
                    **resume,
                )
            if resume:
                records = resume["resume_from"].records + records
            result.runs.append(records)
            if self.journal is not None:
                self.journal.end_run(run_index)
        if self.journal is not None:
            self.journal.end_campaign()
        return result


def _restored_run(
    docs: list[dict[str, Any]],
    problem: Optional[Problem] = None,
    evaluations: Sequence[dict[str, Any]] = (),
) -> RestoredRun:
    """Journaled generation and evaluation docs as the value a driver's
    ``restore`` reads; with ``problem``, they can seed further
    evolution."""
    # deferred: ``repro.store`` imports this module
    from repro.store.journal import (
        evaluations_from_docs,
        record_from_doc,
        restore_rng,
    )

    decoder = None if problem is None else DeepMDRepresentation.decoder()
    last = docs[-1] if docs else {}
    rng_state = last.get("rng_state")
    return RestoredRun(
        records=[
            record_from_doc(doc, decoder=decoder, problem=problem)
            for doc in docs
        ],
        driver_state=last.get("driver_state"),
        rng=restore_rng(rng_state) if rng_state else None,
        evaluations=evaluations_from_docs(
            evaluations, decoder=decoder, problem=problem
        ),
    )
