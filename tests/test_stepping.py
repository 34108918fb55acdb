"""The loops that step: a driver's, a campaign's and a resumed
campaign's.

``step(None)`` waits for completions as ``run_driver`` always did;
``step(0)`` only polls, so one thread (the campaign service's owner)
can step many loops in turn.  Either way a loop commits the records,
journals and spans of running it to its end in one go, and a span it
keeps open across steps is current only within a step.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.engine import EvaluationEngine, InlineBackend
from repro.evo.algorithm import (
    Driver,
    DriverLoop,
    NSGA2Driver,
    random_initial_population,
    run_driver,
)
from repro.evo.asynchronous import SteadyStateDriver
from repro.evo.nsga2 import nsga2_select
from repro.evo.pso import PSODriver
from repro.evo.surrogate import SurrogateDriver
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation as REP
from repro.obs import CampaignStatus, MetricsRegistry, get_status
from repro.obs.live import NULL_STATUS
from repro.obs.trace import Tracer
from repro.store.journal import CampaignJournal, journal_path
from repro.store.resume import resume_campaign, resume_loop

POP = 6
GENERATIONS = 3
SEED = 29


class RandomSearch(Driver):
    """Random proposals into an elitist pool."""

    span_name = "random.iteration"
    best = ()

    def ask(self):
        return random_initial_population(
            POP, self.init_ranges, self.problem, self.decoder, rng=self.rng
        )

    def tell(self, evaluated):
        self.best = nsga2_select([*self.best, *evaluated], POP)
        return self.record(self.best, evaluated, np.zeros(len(self.ranges)))


def _driver(cls, **hyper):
    return lambda: cls(
        SurrogateDeepMDProblem(seed=3),
        REP.init_ranges,
        POP,
        REP.bounds,
        REP.decoder(),
        rng=SEED,
        **hyper,
    )


BARRIER_DRIVERS = {
    "nsga2": _driver(NSGA2Driver, initial_std=REP.mutation_std),
    "pso": _driver(PSODriver),
    "surrogate": _driver(SurrogateDriver, initial_std=REP.mutation_std),
    "random": _driver(RandomSearch),
}


def _view(records):
    return [
        (
            rec.generation,
            [ind.genome.tolist() for ind in rec.population],
            [ind.fitness.tolist() for ind in rec.population],
        )
        for rec in records
    ]


class Gated:
    """A backend whose chunks run inline but read as unfinished until
    the test opens the gate: work stays in flight between polls, as on
    a pool."""

    is_execution_backend = True

    def __init__(self):
        self.inner = InlineBackend()
        self.open = False
        self.submitted = []

    def submit_batch(self, individuals, tag=None):
        self.submitted += individuals
        return _GatedFuture(self, self.inner.submit_batch(individuals, tag))

    def on_cache_hit(self, individual):
        pass


class _GatedFuture:
    def __init__(self, backend, future):
        self.backend = backend
        self.future = future

    def done(self):
        return self.backend.open and self.future.done()

    def result(self, timeout=None):
        return self.future.result(timeout)


# ----------------------------------------------------------------------
# the driver loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BARRIER_DRIVERS))
def test_a_blocking_step_commits_one_record(name):
    """With a barrier, ``step(None)`` asks, waits for the whole ask and
    commits the record its tell closes: one record a step, the records
    of ``run_driver``, and nothing more once done."""
    loop = DriverLoop(BARRIER_DRIVERS[name](), GENERATIONS)
    for generation in range(GENERATIONS + 1):
        assert not loop.done
        assert loop.step(None)
        assert [rec.generation for rec in loop.records] == list(
            range(generation + 1)
        )
    assert loop.done
    assert not loop.step(None)
    assert not loop.step(0)
    assert _view(loop.records) == _view(
        run_driver(BARRIER_DRIVERS[name](), GENERATIONS)
    )


def test_a_polling_step_returns_while_work_is_in_flight():
    """``step(0)`` asks once, then only polls: it neither blocks nor
    asks again while the ask is out, and tells it the step after the
    work lands."""
    backend = Gated()
    loop = DriverLoop(BARRIER_DRIVERS["nsga2"](), GENERATIONS, client=backend)
    assert loop.step(0)  # asked
    assert len(backend.submitted) == POP
    start = time.monotonic()
    for _ in range(20):
        assert not loop.step(0)
    assert time.monotonic() - start < 1.0
    assert loop.records == [] and not loop.done
    assert len(backend.submitted) == POP  # nothing asked twice
    backend.open = True
    assert loop.step(0)
    assert [rec.generation for rec in loop.records] == [0]


def test_a_bounded_step_waits_at_most_its_timeout():
    backend = Gated()
    loop = DriverLoop(BARRIER_DRIVERS["pso"](), GENERATIONS, client=backend)
    loop.step(0)
    start = time.monotonic()
    assert not loop.step(0.05)
    assert 0.04 <= time.monotonic() - start < 1.0
    assert loop.records == []


def test_polling_and_blocking_steps_give_the_same_bits():
    polled = DriverLoop(BARRIER_DRIVERS["surrogate"](), GENERATIONS)
    while not polled.done:
        polled.step(0)
    assert _view(polled.records) == _view(
        DriverLoop(BARRIER_DRIVERS["surrogate"](), GENERATIONS).run()
    )


def test_a_steady_state_step_tells_one_completion():
    """Without a barrier each step tells one completion; a record
    closes every ``pop_size`` of them."""

    def driver():
        return SteadyStateDriver(
            SurrogateDeepMDProblem(seed=3),
            REP.init_ranges,
            POP,
            REP.bounds,
            REP.decoder(),
            initial_std=REP.mutation_std,
            max_evaluations=3 * POP,
            rng=SEED,
        )

    loop = DriverLoop(driver(), driver().last_generation)
    steps = 0
    while not loop.done:
        assert loop.step(None)
        steps += 1
        assert len(loop.records) == steps // POP
    assert steps == 3 * POP
    assert _view(loop.records) == _view(
        run_driver(driver(), driver().last_generation)
    )


def test_a_record_span_is_current_only_within_a_step():
    """The loop's record span stays open across steps but is nobody's
    parent between them."""
    tracer = Tracer()
    loop = DriverLoop(
        BARRIER_DRIVERS["random"](), GENERATIONS, client=Gated(),
        tracer=tracer,
    )
    loop.step(0)
    assert tracer.current_span_id() is None
    assert tracer.spans("random.iteration") == []  # open, not recorded
    loop.engine.backend.open = True
    loop.run()
    spans = tracer.spans("random.iteration")
    assert [s["tags"]["generation"] for s in spans] == [0, 1, 2, 3]
    assert all(s["parent"] is None for s in spans)


def test_a_loop_publishes_into_the_status_it_was_built_with():
    """A loop's engine and telemetry bind the status given when it is
    built, whatever the process-wide one is."""
    mine = CampaignStatus(campaign_id="stepped-7")
    registry = MetricsRegistry()
    loop = DriverLoop(
        BARRIER_DRIVERS["nsga2"](),
        GENERATIONS,
        engine=EvaluationEngine(metrics=registry, status=mine),
        status=mine,
    )
    assert get_status() is NULL_STATUS
    loop.run()
    snap = mine.snapshot()
    assert snap["generation"] == GENERATIONS
    assert snap["engine"]["completed"] == POP * (GENERATIONS + 1)
    assert len(snap["hypervolume_series"]) == GENERATIONS + 1
    assert 'engine_inflight{campaign_id="stepped-7"}' in registry.snapshot()
    assert get_status() is NULL_STATUS


# ----------------------------------------------------------------------
# the campaign loop and the resume loop
# ----------------------------------------------------------------------
def _factory(seed):
    return SurrogateDeepMDProblem(seed=seed)


def _config(mode="generational"):
    return CampaignConfig(
        n_runs=2, pop_size=POP, generations=2, base_seed=41, mode=mode
    )


def _journal_docs(directory):
    """The journal's records minus wall-clock and identity keys."""

    def strip(doc):
        if isinstance(doc, dict):
            return {
                k: strip(v)
                for k, v in doc.items()
                if k not in ("ts", "uuid", "uuids", "dedup_of")
            }
        if isinstance(doc, list):
            return [strip(v) for v in doc]
        return doc

    lines = journal_path(directory).read_text().splitlines()
    return [strip(json.loads(line)) for line in lines]


def _journaled(directory, mode, step=None):
    """Run a journaled campaign, by ``Campaign.run`` or by stepping its
    loop with ``step``."""
    directory.mkdir()
    with CampaignJournal(journal_path(directory)) as journal:
        campaign = Campaign(_factory, _config(mode), journal=journal)
        if step is None:
            return campaign.run()
        loop = campaign.start()
        while not loop.done:
            loop.step(step)
        return loop.result


@pytest.mark.parametrize("mode", ["generational", "steady-state", "pso"])
def test_a_polled_campaign_writes_the_journal_of_its_run(tmp_path, mode):
    ran = _journaled(tmp_path / "ran", mode)
    polled = _journaled(tmp_path / "polled", mode, step=0)
    assert _journal_docs(tmp_path / "polled") == _journal_docs(
        tmp_path / "ran"
    )
    assert [_view(run) for run in polled.runs] == [
        _view(run) for run in ran.runs
    ]


def test_a_campaign_loop_runs_its_runs_one_after_another():
    tracer = Tracer()
    loop = Campaign(_factory, _config(), tracer=tracer).start()
    assert loop.run_counts == {
        "runs_restored": 0, "runs_resumed": 0, "runs_fresh": 1,
    }  # the first run is open
    seen = []
    while not loop.done:
        loop.step(None)
        seen.append(len(loop.result.runs))
    assert seen == sorted(seen) and seen[-1] == 2
    assert loop.run_counts["runs_fresh"] == 2
    runs = tracer.spans("campaign.run")
    assert [s["tags"]["run"] for s in runs] == [0, 1]
    assert runs[0]["mono"] + runs[0]["dur"] <= runs[1]["mono"]
    assert not loop.step(0)


def test_a_resume_loop_closes_its_journal_and_span_once_done(tmp_path):
    """Stepped to its end, a resume loop tags and ends its
    ``store.resume`` span once and leaves the journal closed; the
    result is the uninterrupted campaign's."""
    base = _journaled(tmp_path / "full", "generational")
    lines = journal_path(tmp_path / "full").read_text().splitlines()
    (tmp_path / "cut").mkdir()
    # campaign_begin, run_begin and generation 0 of run 0
    journal_path(tmp_path / "cut").write_text("\n".join(lines[:3]) + "\n")
    tracer = Tracer()
    loop = resume_loop(tmp_path / "cut", problem_factory=_factory, tracer=tracer)
    assert tracer.spans("store.resume") == []
    assert tracer.current_span_id() is None
    while not loop.done:
        loop.step(0)
        assert tracer.current_span_id() is None
    assert not loop.step(0)
    (span,) = tracer.spans("store.resume")
    assert (
        span["tags"]["runs_restored"],
        span["tags"]["runs_resumed"],
        span["tags"]["runs_fresh"],
    ) == (0, 1, 1)
    assert loop.campaign.journal._file.closed
    assert [_view(run) for run in loop.result.runs] == [
        _view(run) for run in base.runs
    ]
    assert [_view(run) for run in resume_campaign(
        tmp_path / "full", problem_factory=_factory
    ).runs] == [_view(run) for run in base.runs]


# ----------------------------------------------------------------------
# spans a loop keeps open
# ----------------------------------------------------------------------
def test_a_started_span_parents_only_what_opens_within_current():
    tracer = Tracer()
    outer = tracer.span("outer").start()
    assert tracer.current_span_id() is None
    with outer.current():
        with tracer.span("inside"):
            pass
    with tracer.span("between"):
        pass
    with outer.current():
        tracer.event("mark")
    assert tracer.spans("outer") == []
    outer.end()
    (recorded,) = tracer.spans("outer")
    assert recorded["status"] == "ok" and recorded["dur"] >= 0
    assert tracer.spans("inside")[0]["parent"] == recorded["id"]
    assert tracer.spans("between")[0]["parent"] is None


def test_an_exception_within_current_ends_the_span_as_failed():
    tracer = Tracer()
    span = tracer.span("step").start()
    with pytest.raises(KeyError):
        with span.current():
            raise KeyError("lost")
    (recorded,) = tracer.spans("step")
    assert recorded["status"] == "err"
    assert recorded["tags"]["error"] == "KeyError"
    assert tracer.current_span_id() is None
