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
from repro.hpo.driver import NSGA2Settings, deployment_loop
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
    base_seed: int = 2023
    mode: str = "generational"
    objectives: Any = None
    hv_stop_eps: Optional[float] = None
    hv_stop_patience: int = 2
    #: generational: dispatch each generation in chunks of the
    #: backend's hint (pso and surrogate always do); results
    #: bit-identical to the default chunk size 1
    batch_evals: bool = False

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
            batch_evals=self.batch_evals,
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
    ``status`` (default: the process-wide one) is the live snapshot
    the campaign, its engines and its telemetry publish into.

    ``journal`` (a :class:`repro.store.journal.CampaignJournal`,
    duck-typed to avoid a hard dependency) receives the write-ahead
    stream of campaign/run/generation records as the campaign runs, so
    a killed campaign can be continued by handing what an earlier
    session journaled back to :meth:`start` — which is all
    :func:`repro.store.resume.resume_campaign` does.
    """

    def __init__(
        self,
        problem_factory: Callable[[int], Problem],
        config: Optional[CampaignConfig] = None,
        client: Any = None,
        tracer: Optional[NullTracer | Tracer] = None,
        journal: Any = None,
        status: Any = None,
    ) -> None:
        self.problem_factory = problem_factory
        self.config = config or CampaignConfig()
        self.client = client
        self.tracer = tracer if tracer is not None else get_tracer()
        self.journal = journal
        self.status = status if status is not None else get_status()

    def run(
        self,
        callback: Optional[Callable[[int, GenerationRecord], None]] = None,
        journaled: Any = None,
    ) -> CampaignResult:
        """Run the campaign to its end: :meth:`start` stepped until
        done."""
        return self.start(callback, journaled).run()

    def start(
        self,
        callback: Optional[Callable[[int, GenerationRecord], None]] = None,
        journaled: Any = None,
    ) -> "CampaignLoop":
        """The campaign as a loop that steps; with ``journaled`` (the
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
        return CampaignLoop(self, callback, journaled)


class CampaignLoop:
    """A campaign's runs, one after another, one step at a time.

    Each :meth:`step` steps the current run's
    :class:`~repro.evo.algorithm.DriverLoop` inside its ``campaign.run``
    span (current only within the step, so campaigns stepped on one
    thread keep their traces apart); a finished run is closed and the
    next one opened in the same step.  :attr:`result` fills as runs
    end; :attr:`done` once the campaign is closed.
    """

    def __init__(
        self,
        campaign: Campaign,
        callback: Optional[Callable[[int, GenerationRecord], None]],
        journaled: Any,
    ) -> None:
        self.campaign = campaign
        self.callback = callback
        self.journaled = journaled
        config = campaign.config
        self.result = CampaignResult(config=config)
        #: how each run was obtained
        self.run_counts = dict.fromkeys(
            ("runs_restored", "runs_resumed", "runs_fresh"), 0
        )
        campaign.tracer.event(
            "campaign.start",
            n_runs=config.n_runs,
            pop_size=config.pop_size,
            generations=config.generations,
            seed=config.base_seed,
        )
        status = campaign.status
        if status.enabled:
            status.update(
                mode=config.mode,
                n_runs=config.n_runs,
                pop_size=config.pop_size,
                generations=config.generations,
                base_seed=config.base_seed,
            )
        if campaign.journal is not None and journaled is None:
            campaign.journal.begin_campaign(config)
        self._seeds = enumerate(
            seeds_for_runs(config.base_seed, config.n_runs)
        )
        #: the open run: (index, its span, its loop, restored records)
        self._run: Optional[tuple[int, Any, Any, list]] = None
        self.done = False
        self._next_run()

    def run(self) -> CampaignResult:
        """Step until done; the result."""
        while not self.done:
            self.step(None)
        return self.result

    def step(self, timeout: Optional[float] = None) -> bool:
        """Step the open run (see
        :meth:`repro.evo.algorithm.DriverLoop.step`); whether it
        moved."""
        if self.done:
            return False
        index, span, loop, restored = self._run
        with span.current():
            moved = loop.step(timeout)
        if loop.done:
            span.end()
            self.result.runs.append(restored + loop.records)
            if self.campaign.journal is not None:
                self.campaign.journal.end_run(index)
            self._next_run()
        return moved

    def _next_run(self) -> None:
        """Restore the fully journaled runs ahead, then open the next
        run to step — or close the campaign."""
        campaign, config = self.campaign, self.campaign.config
        journal, counts = campaign.journal, self.run_counts
        earlier = self.journaled.runs if self.journaled is not None else {}
        for run_index, seed in self._seeds:
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
                self.result.runs.append(_restored_run(docs).records)
                counts["runs_restored"] += 1
                continue
            problem = campaign.problem_factory(seed)
            resume_from: Optional[RestoredRun] = None
            tags: dict[str, Any] = {}
            #: where ``run_resume`` says this session picks the run up
            resumed_at: Optional[int] = None
            evaluations = prior.evaluations if prior else []
            if docs or evaluations:
                # interrupted mid-run: restore, continue after it
                resume_from = _restored_run(docs, problem, evaluations)
                resumed_at = len(docs) - 1
                tags = dict(
                    resumed_from=resumed_at,
                    replayed_evaluations=len(evaluations),
                )
            counts[
                "runs_fresh" if resumed_at is None else "runs_resumed"
            ] += 1
            if journal is not None and resumed_at is None:
                journal.begin_run(run_index, int(seed))
            elif journal is not None:
                journal.resume_run(run_index, resumed_at)
            if campaign.status.enabled:
                campaign.status.begin_run(run_index, seed=int(seed))
            span = campaign.tracer.span(
                "campaign.run",
                run=run_index,
                seed=int(seed),
                mode=config.mode,
                **tags,
            ).start()
            callback = self.callback
            with span.current():
                loop = deployment_loop(
                    config.mode,
                    problem=problem,
                    settings=config.nsga2_settings(),
                    client=campaign.client,
                    rng=seed,
                    callback=(
                        (lambda rec, ri=run_index: callback(ri, rec))
                        if callback is not None
                        else None
                    ),
                    tracer=campaign.tracer,
                    journal=journal,
                    resume_from=resume_from,
                    status=campaign.status,
                )
            restored = resume_from.records if resume_from else []
            self._run = (run_index, span, loop, restored)
            return
        self._run = None
        if journal is not None:
            journal.end_campaign()
        self.done = True


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
