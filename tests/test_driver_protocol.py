"""The ask/tell driver protocol and the one loop around it.

The contract (DESIGN.md "Driver protocol"): a driver proposes and
digests candidates, :func:`repro.evo.algorithm.run_driver` owns the
engine, spans, write-ahead journal, telemetry, callback, stopper and
pipelining, and ``restore`` is the exact inverse of what the journal
keeps — from any committed record, the continuation is bit-identical
to the uninterrupted run.  ``Campaign.run`` over the journal of an
earlier session is all there is to resuming a campaign.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.evo.algorithm import (
    Driver,
    NSGA2Driver,
    RestoredRun,
    random_initial_population,
    run_driver,
)
from repro.evo.nsga2 import nsga2_select
from repro.evo.pso import PSODriver
from repro.evo.surrogate import SurrogateDriver
from repro.hpo.campaign import CAMPAIGN_MODES, Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation as REP
from repro.obs.trace import Tracer
from repro.store.journal import (
    CampaignJournal,
    JournalState,
    journal_path,
    read_journal,
    record_from_doc,
    restore_rng,
)
from repro.store.resume import resume_campaign

POP = 6
GENERATIONS = 3
SEED = 17


class RandomSearch(Driver):
    """A whole new optimizer: random proposals, elitist pool."""

    span_name = "random.iteration"
    best = ()

    def ask(self):
        return random_initial_population(
            POP, self.init_ranges, self.problem, self.decoder, rng=self.rng
        )

    def tell(self, evaluated):
        self.best = nsga2_select([*self.best, *evaluated], POP)
        return self.record(self.best, evaluated, np.zeros(len(self.ranges)))

    def restore(self, run):
        super().restore(run)
        self.best = run.records[-1].population


def _driver(cls, **hyper):
    return lambda problem, rng=None: cls(
        problem,
        REP.init_ranges,
        POP,
        REP.bounds,
        REP.decoder(),
        rng=rng,
        **hyper,
    )


DRIVERS = {
    "nsga2": _driver(NSGA2Driver, initial_std=REP.mutation_std),
    "pso": _driver(PSODriver),
    "surrogate": _driver(SurrogateDriver, initial_std=REP.mutation_std),
    "random": _driver(RandomSearch),
}


def _strip(doc):
    """A journal doc without what differs between two sessions."""
    if isinstance(doc, dict):
        return {
            k: _strip(v)
            for k, v in doc.items()
            if k not in ("ts", "uuid", "uuids", "dedup_of")
        }
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _journaled_run(path, driver, **loop):
    """Run ``driver`` under the loop with a real journal; the records
    and the generation docs the journal kept."""
    with CampaignJournal(path) as journal:
        journal.begin_run(0, SEED)
        records = run_driver(driver, GENERATIONS, journal=journal, **loop)
    kept = read_journal(path).runs[0].generations
    return records, [kept[g] for g in sorted(kept)]


def _restored(docs, problem):
    return RestoredRun(
        records=[
            record_from_doc(doc, decoder=REP.decoder(), problem=problem)
            for doc in docs
        ],
        driver_state=docs[-1].get("driver_state"),
        rng=restore_rng(docs[-1]["rng_state"]),
    )


@pytest.mark.parametrize("k", range(GENERATIONS + 1))
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_restore_inverts_the_journal_at_every_cut(tmp_path, name, k):
    """Genomes, fitnesses, ``std``, journaled RNG state and
    ``driver_state`` of every record after the cut equal the
    uninterrupted run's."""
    problem = SurrogateDeepMDProblem(seed=3)
    _, docs = _journaled_run(tmp_path / "a", DRIVERS[name](problem, SEED))
    assert [doc["generation"] for doc in docs] == list(
        range(GENERATIONS + 1)
    )
    assert ("driver_state" in docs[0]) == (name == "pso")
    prefix = _restored(docs[: k + 1], problem)
    fresh = DRIVERS[name](problem)
    fresh.restore(prefix)
    assert fresh.generation == k + 1
    new, continued = _journaled_run(tmp_path / "b", fresh)
    assert [rec.generation for rec in new] == list(
        range(k + 1, GENERATIONS + 1)
    )
    assert _strip(continued) == _strip(docs[k + 1 :])


class StopAt:
    def __init__(self, generation):
        self.generation = generation

    def observe(self, record):
        return record.generation == self.generation


def test_a_new_driver_gets_journal_pipeline_stopper_and_restore(tmp_path):
    """``RandomSearch`` writes none of them."""
    problem = SurrogateDeepMDProblem(seed=3)
    tracer = Tracer()
    records, docs = _journaled_run(
        tmp_path / "plain", DRIVERS["random"](problem, SEED), tracer=tracer
    )
    assert len(records) == len(docs) == GENERATIONS + 1
    assert all(doc["rng_state"] for doc in docs)
    spans = tracer.spans("random.iteration")
    assert [s["tags"]["generation"] for s in spans] == [0, 1, 2, 3]
    assert all(s["tags"]["evaluated"] == POP for s in spans)
    # each record's span carries what the engine did for it
    assert all(
        s["tags"]["fresh"] + s["tags"]["cache_hits"] + s["tags"]["dedup_hits"]
        == POP
        for s in spans
    )
    # pipelined: same journal, each commit one record late
    seen = []
    piped, piped_docs = _journaled_run(
        tmp_path / "piped",
        DRIVERS["random"](problem, SEED),
        pipeline=True,
        callback=lambda rec: seen.append(rec.generation),
    )
    assert _strip(piped_docs) == _strip(docs)
    assert seen == [0, 1, 2, 3] and len(piped) == len(records)
    # stopped: a committed prefix, also when the last commit was pending
    for pipeline in (False, True):
        _, stopped = _journaled_run(
            tmp_path / f"stopped{pipeline}",
            DRIVERS["random"](problem, SEED),
            stopper=StopAt(1),
            pipeline=pipeline,
        )
        assert _strip(stopped) == _strip(docs[:2])
    # restored through the loop's own ``resume_from``
    new, continued = _journaled_run(
        tmp_path / "resumed",
        DRIVERS["random"](problem),
        resume_from=_restored(docs[:2], problem),
        pipeline=True,
    )
    assert [rec.generation for rec in new] == [2, 3]
    assert _strip(continued) == _strip(docs[2:])


# ----------------------------------------------------------------------
# the campaign loop over a journal
# ----------------------------------------------------------------------
def _factory(seed):
    return SurrogateDeepMDProblem(seed=seed)


def _config(mode):
    return CampaignConfig(
        n_runs=3, pop_size=POP, generations=2, base_seed=23, mode=mode
    )


def _journal_docs(directory):
    return [
        json.loads(line)
        for line in journal_path(directory).read_text().splitlines()
    ]


def _campaign(directory, mode, *run_args):
    directory.mkdir()
    with CampaignJournal(
        journal_path(directory), problem_spec={"backend": "surrogate"}
    ) as journal:
        return Campaign(_factory, _config(mode), journal=journal).run(
            *run_args
        )


def _views(result):
    return [
        [
            (
                [ind.genome.tolist() for ind in rec.population],
                [ind.fitness.tolist() for ind in rec.population],
            )
            for rec in run
        ]
        for run in result.runs
    ]


@pytest.mark.parametrize("mode", CAMPAIGN_MODES)
def test_run_over_an_empty_journal_is_a_fresh_run(tmp_path, mode):
    _campaign(tmp_path / "fresh", mode)
    _campaign(tmp_path / "empty", mode, None, JournalState())
    fresh = _strip(_journal_docs(tmp_path / "fresh"))
    assert fresh[0]["type"] == "campaign_begin"
    assert _strip(_journal_docs(tmp_path / "empty")) == fresh[1:]


def _cut_second_run_short(directory, target):
    """Copy a 3-run journal up to the middle of run 1: run 0 complete,
    run 1 half done, run 2 unstarted."""
    kept, progress = [], 0
    for line in journal_path(directory).read_text().splitlines():
        kept.append(line)
        doc = json.loads(line)
        if doc.get("run") == 1 and doc["type"] in ("generation", "evaluation"):
            progress += 1
            # one committed generation, or a third of the evaluations
            if progress == (1 if doc["type"] == "generation" else POP):
                break
    target.mkdir()
    journal_path(target).write_text("\n".join(kept) + "\n")


@pytest.mark.parametrize("mode", CAMPAIGN_MODES)
def test_resume_restores_continues_and_starts_runs(tmp_path, mode):
    base = _campaign(tmp_path / "full", mode)
    _cut_second_run_short(tmp_path / "full", tmp_path / "cut")
    tracer = Tracer()
    resumed = resume_campaign(
        tmp_path / "cut", problem_factory=_factory, tracer=tracer
    )
    (span,) = tracer.spans("store.resume")
    assert (
        span["tags"]["runs_restored"],
        span["tags"]["runs_resumed"],
        span["tags"]["runs_fresh"],
    ) == (1, 1, 1)
    runs = {s["tags"]["run"]: s["tags"] for s in tracer.spans("campaign.run")}
    assert sorted(runs) == [1, 2]
    # steady-state: cut after window 0's evaluations, before its record
    replayed = POP if mode == "steady-state" else 0
    assert runs[1]["replayed_evaluations"] == replayed
    assert runs[1]["resumed_from"] == (-1 if replayed else 0)
    assert _views(resumed) == _views(base)
    kinds = [doc["type"] for doc in _journal_docs(tmp_path / "cut")]
    assert kinds.count("campaign_begin") == 1
    assert kinds.count("run_resume") == 1
    assert kinds.count("run_end") == 3 and kinds[-1] == "campaign_end"


# ----------------------------------------------------------------------
# an interrupted resume
# ----------------------------------------------------------------------
def _open_fds(path):
    target = os.path.realpath(path)
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.path.realpath(f"/proc/self/fd/{fd}") == target:
                fds.append(fd)
        except OSError:
            pass
    return fds


class Interrupt(Exception):
    pass


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_interrupted_resume_closes_the_journal(tmp_path):
    """A callback that raises mid-resume (the service's cancel and
    shutdown signals) leaves no handle on the journal, and the next
    resume over the same directory completes bit-identically."""
    base = _campaign(tmp_path / "full", "generational")
    _cut_second_run_short(tmp_path / "full", tmp_path / "cut")

    def interrupt(run_index, record):
        raise Interrupt

    with pytest.raises(Interrupt) as excinfo:
        resume_campaign(
            tmp_path / "cut", problem_factory=_factory, callback=interrupt
        )
    # checked while the traceback (and so every frame that held the
    # journal) is still alive: closing must not be left to collection
    assert excinfo.traceback
    assert _open_fds(journal_path(tmp_path / "cut")) == []
    resumed = resume_campaign(tmp_path / "cut", problem_factory=_factory)
    assert _views(resumed) == _views(base)
