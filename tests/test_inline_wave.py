"""The inline backend's wave: queued chunks, one problem call.

``InlineBackend.submit_batch`` only queues; the first poll of any
queued future evaluates every queued chunk in submission order through
one batch call.  Under test: the call count that buys (a paper-scale
campaign at chunk size 1 enters its problem once per generation), slot
order across chunks, cancelled chunks still running, and an escaping
exception leaving no future unresolved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import Fault, FaultPlan
from repro.engine import EvaluationEngine, InlineBackend
from repro.evo.individual import MAXINT, Individual
from repro.evo.problem import WithMetadataProblem
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.injection import use_injector
from repro.obs import MetricsRegistry
from repro.service import FairShareScheduler, Tenant


class EchoProblem(WithMetadataProblem):
    """Fitness ``[x, -x]`` for phenome ``x``; records every batch."""

    n_objectives = 2

    def __init__(self):
        self.batches = []

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        self.batches.append([float(p[0]) for p in phenomes])
        return [
            (np.array([p[0], -p[0]]), {"x": float(p[0])}) for p in phenomes
        ]


class BrokenBatchProblem(WithMetadataProblem):
    """A batch call that fails as a whole, not per slot."""

    n_objectives = 2

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        raise RuntimeError("the batch call itself died")


def _individuals(problem, xs):
    return [Individual(np.array([float(x)]), problem=problem) for x in xs]


class TestQueue:
    def test_slots_come_back_in_submission_order_across_chunks(self):
        problem = EchoProblem()
        backend = InlineBackend()
        chunks = [[1, 2], [3], [4, 5, 6]]
        futures = [
            backend.submit_batch(_individuals(problem, xs)) for xs in chunks
        ]
        assert problem.batches == []  # nothing runs at submit
        # polling the middle future runs the whole wave, once
        assert futures[1].done()
        assert problem.batches == [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
        for xs, future in zip(chunks, futures):
            slots = future.result()
            assert [meta["x"] for _, meta in slots] == [float(x) for x in xs]
        # a later chunk is the next wave
        later = backend.submit_batch(_individuals(problem, [7]))
        later.result()
        assert problem.batches[1:] == [[7.0]]

    def test_an_engine_generation_at_chunk_size_1_is_one_call(self):
        problem = EchoProblem()
        engine = EvaluationEngine()
        done = engine.evaluate(_individuals(problem, range(10)))
        assert problem.batches == [[float(x) for x in range(10)]]
        assert [ind.fitness[0] for ind in done] == list(map(float, range(10)))
        assert engine.stats.fresh == 10

    def test_a_chunk_the_engine_cancels_is_still_evaluated(self):
        """An injected ``eval_timeout`` fails its member without polling
        its chunk; the engine then cancels the chunk, and inline work
        cannot be stopped — it runs, as it did at submit before."""
        problem = EchoProblem()
        plan = FaultPlan([Fault(kind="eval_timeout", at=1)])
        with use_injector(plan.injector()):
            engine = EvaluationEngine()
            done = engine.evaluate(_individuals(problem, [1, 2, 3]))
        assert problem.batches == [[1.0, 2.0, 3.0]]
        assert np.all(done[1].fitness == MAXINT)
        assert "TrainingTimeoutError" in done[1].metadata["failure_cause"]
        assert done[2].fitness[0] == 3.0
        assert engine.stats.timeouts == 1

        # a wave with only a cancelled chunk runs at the cancel
        problem = EchoProblem()
        with use_injector(FaultPlan([Fault(kind="eval_timeout")]).injector()):
            engine = EvaluationEngine()
            engine.evaluate(_individuals(problem, [4]))
        assert problem.batches == [[4.0]]

    def test_an_escaping_exception_resolves_every_future(self):
        problem = BrokenBatchProblem()
        backend = InlineBackend()
        futures = [
            backend.submit_batch(_individuals(problem, xs))
            for xs in ([1], [2, 3])
        ]
        with pytest.raises(RuntimeError, match="batch call itself"):
            futures[1].result()
        for future, n in zip(futures, (1, 2)):
            assert future.done()
            slots = future.result()
            assert len(slots) == n
            assert all(isinstance(s, RuntimeError) for s in slots)

    def test_an_escaping_exception_reaches_the_engine_caller(self):
        engine = EvaluationEngine()
        with pytest.raises(RuntimeError, match="batch call itself"):
            engine.evaluate(_individuals(BrokenBatchProblem(), [1, 2]))

    def test_the_service_resolves_a_failed_wave_to_its_futures(self):
        """The service's dispatcher polls the wave, so the exception
        reaches each campaign's future, not the dispatcher thread."""
        scheduler = FairShareScheduler(
            InlineBackend(), total_slots=4, metrics=MetricsRegistry()
        )
        queue = scheduler.register("c1", Tenant(max_in_flight=4))
        futures = [
            queue.submit(ind)
            for ind in _individuals(BrokenBatchProblem(), [1, 2, 3])
        ]
        assert scheduler.tick() == 3
        scheduler.tick()
        for future in futures:
            with pytest.raises(RuntimeError, match="batch call itself"):
                future.result(timeout=0)


@pytest.mark.parametrize("mode", ["generational", "steady-state"])
def test_paper_campaign_enters_the_surrogate_once_per_generation(mode):
    """5 runs x (1 + 6) generations x 100 at chunk size 1: 35 batch
    calls of 100 phenomes, not 3500 calls of one."""
    calls = []

    class Counting(SurrogateDeepMDProblem):
        def evaluate_batch_with_metadata(self, phenomes, uuids=None):
            calls.append(len(phenomes))
            return super().evaluate_batch_with_metadata(phenomes, uuids)

    config = CampaignConfig(n_runs=5, pop_size=100, generations=6, mode=mode)
    result = Campaign(lambda seed: Counting(seed=seed), config).run()
    assert result.n_trainings == 3500
    assert calls == [100] * 35
