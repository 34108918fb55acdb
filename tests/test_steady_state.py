"""Steady-state under the one completion loop.

The barrier-free driver commits a record every ``pop_size``
completions (so the callback, the service's cancel and the stopper see
the run as it goes), journals each evaluation as it is told, and
resumes by record replay: the run restarts from its seed and is told
its journaled outcomes, so nothing journaled is evaluated again and
each uuid is journaled once.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import InlineBackend, ProcessPoolBackend
from repro.evo.algorithm import NSGA2Driver, run_driver
from repro.evo.asynchronous import SteadyStateDriver
from repro.exceptions import StoreError
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation as REP
from repro.store import EvaluationCache
from repro.store.journal import CampaignJournal, journal_path, read_journal
from repro.store.resume import resume_campaign


class CountingSurrogate(SurrogateDeepMDProblem):
    """Counts the evaluations that reach the landscape."""

    evaluations = 0

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        CountingSurrogate.evaluations += len(phenomes)
        return super().evaluate_batch_with_metadata(phenomes, uuids)


def surrogate(seed):
    return SurrogateDeepMDProblem(seed=seed)


def counting(seed):
    return CountingSurrogate(seed=seed)


class CountingJournal(CampaignJournal):
    """Counts the evaluation records appended."""

    evaluations = 0

    def append_evaluation(self, individual):
        super().append_evaluation(individual)
        self.evaluations += 1


def _config(runs, pop):
    return CampaignConfig(
        n_runs=runs,
        pop_size=pop,
        generations=2,
        base_seed=31,
        mode="steady-state",
    )


def _campaign(directory, config, factory, client=None):
    directory.mkdir()
    with CampaignJournal(
        journal_path(directory), problem_spec={"backend": "surrogate"}
    ) as journal:
        return Campaign(
            factory, config, journal=journal, client=client
        ).run()


def _cut(directory, target, share=0.45):
    """The first ``share`` of ``directory``'s journal lines."""
    lines = journal_path(directory).read_text().splitlines()
    target.mkdir()
    keep = lines[: int(len(lines) * share)]
    journal_path(target).write_text("\n".join(keep) + "\n")


def _views(result):
    return [
        [
            (
                [ind.genome.tobytes() for ind in rec.population],
                [ind.fitness.tobytes() for ind in rec.population],
                [ind.genome.tobytes() for ind in rec.evaluated],
            )
            for rec in run
        ]
        for run in result.runs
    ]


def _journaled_uuids(directory):
    state = read_journal(journal_path(directory))
    return {
        index: [doc["uuid"] for doc in run.evaluations]
        for index, run in state.runs.items()
    }


def test_windows_commit_as_the_run_goes(tmp_path):
    """1 × (1+2) × 40: the callback fires after 40, 80 and 120
    journaled evaluations, not three times at the end."""
    seen = []
    with CountingJournal(journal_path(tmp_path)) as journal:
        result = Campaign(
            surrogate, _config(1, 40), journal=journal
        ).run(lambda run, record: seen.append(journal.evaluations))
    assert seen == [40, 80, 120]
    assert [len(rec.evaluated) for rec in result.runs[0]] == [40, 40, 40]


class WholeChunks(InlineBackend):
    """An inline backend that hints one chunk per submit and records
    the size of every chunk it is handed."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def batch_chunk_hint(self, n):
        return n

    def submit_batch(self, individuals, tag=None):
        self.chunks.append(len(individuals))
        return super().submit_batch(individuals, tag)


@pytest.mark.parametrize("cls", [NSGA2Driver, SteadyStateDriver])
def test_a_driver_without_a_barrier_crosses_one_candidate_per_task(cls):
    """No chunk size given: a barrier driver takes the backend's hint
    (here its whole ask), the steady-state driver, whose completion
    order is part of its bits, one candidate per task."""
    backend = WholeChunks()
    hyper = {} if cls.barrier else dict(max_evaluations=24)
    driver = cls(
        SurrogateDeepMDProblem(seed=3),
        REP.init_ranges,
        8,
        REP.bounds,
        REP.decoder(),
        rng=5,
        initial_std=REP.mutation_std,
        **hyper,
    )
    records = run_driver(driver, 2, client=backend)
    assert sum(len(rec.evaluated) for rec in records) == 24
    assert backend.chunks == ([8, 8, 8] if cls.barrier else [1] * 24)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("runs,pop", [(3, 12), (1, 40)], ids=["3x", "1x"])
def test_resume_replays_the_journal(tmp_path, runs, pop, cached):
    """A journal cut at 45 % resumes to the uninterrupted run's records,
    journals every uuid once, and — without a cache — evaluates exactly
    what the journal lacks."""
    config = _config(runs, pop)
    full = _campaign(tmp_path / "full", config, surrogate)
    _cut(tmp_path / "full", tmp_path / "cut")
    journaled = sum(map(len, _journaled_uuids(tmp_path / "cut").values()))
    assert 0 < journaled < runs * pop * 3
    CountingSurrogate.evaluations = 0
    cache = EvaluationCache(tmp_path / "cache") if cached else None
    resumed = resume_campaign(
        tmp_path / "cut", problem_factory=counting, cache=cache
    )
    assert _views(resumed) == _views(full)
    uuids = _journaled_uuids(tmp_path / "cut")
    for index, run in enumerate(resumed.runs):
        told = [ind.uuid for rec in run for ind in rec.evaluated]
        assert uuids[index] == told
    assert CountingSurrogate.evaluations == runs * pop * 3 - journaled


def test_pool_resume_tells_the_journal_first(tmp_path):
    """On a process pool the completion order is the pool's; a resumed
    run is told its journaled evaluations first, in journaled order,
    then what it asked for but never journaled."""
    config = _config(1, 40)
    with ProcessPoolBackend(workers=2) as pool:
        _campaign(tmp_path / "full", config, surrogate, client=pool)
        _cut(tmp_path / "full", tmp_path / "cut")
        (before,) = _journaled_uuids(tmp_path / "cut").values()
        resumed = resume_campaign(
            tmp_path / "cut", problem_factory=surrogate, client=pool
        )
    told = [ind.uuid for rec in resumed.runs[0] for ind in rec.evaluated]
    assert told[: len(before)] == before
    (after,) = _journaled_uuids(tmp_path / "cut").values()
    assert after == told and len(set(after)) == 120


def test_replay_rejects_a_foreign_journal(tmp_path):
    """A journaled evaluation this run never asks for is an error, not
    a silently different run."""
    config = _config(1, 12)
    _campaign(tmp_path / "full", config, surrogate)
    _cut(tmp_path / "full", tmp_path / "cut")
    path = journal_path(tmp_path / "cut")
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    for doc in docs:
        if doc["type"] == "evaluation":
            doc["genome"][0] += 1.0
            break
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    with pytest.raises(StoreError, match="no candidate"):
        resume_campaign(tmp_path / "cut", problem_factory=surrogate)
