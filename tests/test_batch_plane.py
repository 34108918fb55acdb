"""Batch-first evaluation data plane: bit-identity and isolation.

The contract under test (DESIGN.md "Evaluation data plane"): the chunk
size a population crosses the backend at — 1 (``evaluate``, streaming
``submit``), any k, or the whole population — changes nothing
observable: same fronts, same journal records, same engine statistics.
Failure isolation is per-slot in-process and per-chunk across the pool
(a worker crash re-runs only the chunk it held).
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import Fault, FaultPlan
from repro.engine import EvaluationEngine, call_problem, call_problem_batch
from repro.engine.pool import ProcessPoolBackend
from repro.evo.algorithm import NSGA2Driver, run_driver
from repro.evo.individual import RobustIndividual
from repro.evo.problem import WithMetadataProblem
from repro.evo.pso import PSODriver
from repro.evo.surrogate import SurrogateDriver
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation
from repro.injection import use_injector
from repro.obs import Tracer, use_tracer
from repro.store import CachedProblem, EvaluationCache
from repro.store.cache import CachedFailure


class CountingSurrogate(SurrogateDeepMDProblem):
    """Surrogate that counts batch-path invocations (and, by
    subclassing nothing else, still takes the vectorized path)."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.batch_calls = 0

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        self.batch_calls += 1
        return super().evaluate_batch_with_metadata(phenomes, uuids=uuids)


class FlakyProblem(WithMetadataProblem):
    """Deterministic per-phenome pass/fail for isolation tests."""

    n_objectives = 2

    def evaluate_with_metadata(self, phenome, uuid=None):
        x = float(phenome["x"])
        if x < 0:
            raise ValueError(f"negative input {x}")
        return np.array([x, x * x]), {"phenome": dict(phenome), "failed": False}


class CountingFlaky(FlakyProblem):
    def __init__(self):
        self.calls = 0

    def evaluate_with_metadata(self, phenome, uuid=None):
        self.calls += 1
        return super().evaluate_with_metadata(phenome, uuid)


class DictDecoder:
    """Genome ``[x]`` → phenome ``{"x": x}`` (module-level: picklable)."""

    def decode(self, genome):
        return {"x": float(genome[0])}


class CollapsingDecoder:
    """Genome ``[x]`` → phenome ``{"x": x // 2}``: distinct genomes
    (which dedup keeps apart) share one phenome, hence one cache key —
    as two fractions of one categorical gene do."""

    def decode(self, genome):
        return {"x": float(genome[0] // 2)}


class SurrogateGenomeDecoder:
    """Genome ``[rcut]`` → a full valid surrogate phenome."""

    def decode(self, genome):
        return {
            "rcut": float(genome[0]),
            "rcut_smth": 1.0,
            "start_lr": 0.001,
            "stop_lr": 1e-8,
            "fitting_activ_func": "tanh",
            "desc_activ_func": "tanh",
            "scale_by_worker": "none",
        }


def _flaky_individuals(xs):
    problem = FlakyProblem()
    decoder = DictDecoder()
    return [
        RobustIndividual(np.array([float(x)]), decoder=decoder, problem=problem)
        for x in xs
    ]


class RecordingJournal:
    """Duck-typed CampaignJournal capturing generation commits."""

    def __init__(self):
        self.entries = []

    def append_generation(self, record, rng_state=None):
        self.entries.append(
            (
                record.generation,
                record.fitness_matrix().copy(),
                record.evaluated_fitness_matrix().copy(),
                record.std.copy(),
                record.n_failures,
                rng_state,
            )
        )


class SwarmJournal(RecordingJournal):
    """...that also takes the ``driver_state`` a swarm journals."""

    def append_generation(self, record, rng_state=None, driver_state=None):
        super().append_generation(record, rng_state)
        pbest = driver_state["pbest"]
        self.entries[-1] += (
            driver_state["velocities"], pbest["genomes"], pbest["fitness"]
        )


def _stats_tuple(stats):
    return (
        stats.submitted,
        stats.completed,
        stats.fresh,
        stats.cache_hits,
        stats.dedup_hits,
        stats.failures,
        stats.timeouts,
    )


def _run_driver(seed, driver_cls, hyper, journal, **mode):
    rep = DeepMDRepresentation
    engine = EvaluationEngine(dedup=True, dedup_scope="batch")
    #: candidates the engine had seen when each record's callback fired
    journal.submitted_at_callback = []
    driver = driver_cls(
        SurrogateDeepMDProblem(seed=7),
        rep.init_ranges,
        8,
        rep.bounds,
        rep.decoder(),
        rng=np.random.default_rng(seed),
        **hyper,
    )
    records = run_driver(
        driver,
        2,
        engine=engine,
        journal=journal,
        callback=lambda rec: journal.submitted_at_callback.append(
            engine.stats.submitted
        ),
        **mode,
    )
    return records, journal, engine


def _evaluation_entry(individual):
    """What an evaluation record keeps of one handed-back individual."""
    meta = individual.metadata
    return (
        float(individual.genome[0]),
        individual.fitness.tobytes(),
        meta.get("failed", False),
        meta.get("error"),
        meta.get("cache_hit", False),
        "dedup_of" in meta,
    )


def _run_engine(
    xs, primed, faults, directory, mode, decoder, cache_failures
):
    """One population through one fresh engine; ``mode`` is a chunk
    size, ``"evaluate"`` (the chunk-size-1 entry) or ``"stream"``
    (``submit`` per candidate, collected with ``wait_any``)."""
    problem = CachedProblem(
        FlakyProblem(),
        EvaluationCache(directory, cache_failures=cache_failures),
    )
    for x in sorted(primed):
        try:
            call_problem(problem, decoder.decode([float(x)]))
        except (ValueError, CachedFailure):
            pass  # a failure primes only under cache_failures
    individuals = [
        RobustIndividual(np.array([float(x)]), decoder=decoder, problem=problem)
        for x in xs
    ]
    plan = FaultPlan([Fault(kind=kind, at=at) for kind, at in faults])
    with use_injector(plan.injector()):
        engine = EvaluationEngine(dedup=True, dedup_scope="batch")
        if mode == "evaluate":
            done = engine.evaluate(individuals)
        elif mode == "stream":
            for individual in individuals:
                engine.submit(individual)
            done = []
            while engine.has_pending():
                done.extend(engine.wait_any())
            # inline, everything has resolved by the first wait: the
            # hand-back order is the submission order
            assert [id(i) for i in done] == [id(i) for i in individuals]
        else:
            done = engine.evaluate_batch(individuals, chunk_size=mode)
    return (
        [(i.fitness.tobytes(), sorted(i.metadata)) for i in done],
        [_evaluation_entry(i) for i in done],
        _stats_tuple(engine.stats),
        problem.cache.stats(),
    )


class TestBatchBitIdentity:
    """Chunk size 1, k, n or streamed: everything observable
    matches."""

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=8, deadline=None)
    def test_modes_bit_identical(self, seed):
        # the swarm drivers are run at the backend's hint only: just
        # their commit instants are checked
        std = dict(initial_std=DeepMDRepresentation.mutation_std)
        for driver_cls, hyper, journal_cls, modes in (
            (
                NSGA2Driver,
                std,
                RecordingJournal,
                (("one per task", dict(chunk_size=1)),),
            ),
            (PSODriver, {}, SwarmJournal, ()),
            (SurrogateDriver, std, RecordingJournal, ()),
        ):
            recs_a, journal_a, eng_a = _run_driver(
                seed, driver_cls, hyper, journal_cls()
            )
            assert journal_a.submitted_at_callback == [8, 16, 24]
            for name, mode in modes:
                name = f"{driver_cls.__name__} {name}"
                recs_b, journal_b, eng_b = _run_driver(
                    seed, driver_cls, hyper, journal_cls(), **mode
                )
                assert len(recs_a) == len(recs_b), name
                for ra, rb in zip(recs_a, recs_b):
                    assert ra.generation == rb.generation
                    assert np.array_equal(
                        ra.fitness_matrix(), rb.fitness_matrix()
                    ), name
                    assert np.array_equal(
                        ra.evaluated_fitness_matrix(),
                        rb.evaluated_fitness_matrix(),
                    ), name
                    assert np.array_equal(ra.std, rb.std)
                    assert ra.n_failures == rb.n_failures
                # journal: same records, same order, same RNG states
                # (and, for the swarm, the same ``driver_state``)
                assert len(journal_a.entries) == len(journal_b.entries)
                for ea, eb in zip(journal_a.entries, journal_b.entries):
                    assert ea[0] == eb[0]
                    assert np.array_equal(ea[1], eb[1])
                    assert np.array_equal(ea[2], eb[2])
                    assert ea[5:] == eb[5:], f"{name}: state diverged"
                assert _stats_tuple(eng_a.stats) == _stats_tuple(
                    eng_b.stats
                )
                # each commit runs before the next batch is submitted
                assert journal_b.submitted_at_callback == [8, 16, 24], name

    @given(
        xs=st.lists(
            st.integers(min_value=-5, max_value=5), min_size=1, max_size=12
        ),
        primed=st.sets(st.integers(min_value=-5, max_value=5), max_size=4),
        faults=st.lists(
            st.tuples(
                st.sampled_from(["eval_exception", "eval_timeout"]),
                st.integers(min_value=0, max_value=11),
            ),
            max_size=3,
        ),
        k=st.integers(min_value=2, max_value=5),
        collapse=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("cache_failures", [False, True])
    def test_engine_chunk_sizes_and_streaming_bit_identical(
        self, xs, primed, faults, k, collapse, cache_failures
    ):
        """Duplicates, failures, cache hits, injected faults and their
        order survive every dispatch granularity: results, what an
        evaluation record keeps of each, in hand-back order,
        ``EngineStats`` and the cache's stats are equal at chunk size
        1, k and n, and when streamed — also when distinct genomes
        decode to one phenome, with and without cached failures."""
        decoder = CollapsingDecoder() if collapse else DictDecoder()
        outcomes = {}
        for mode in ("evaluate", 1, k, len(xs), "stream"):
            with tempfile.TemporaryDirectory() as directory:
                outcomes[mode] = _run_engine(
                    xs, primed, faults, directory, mode, decoder,
                    cache_failures,
                )
        for mode, outcome in outcomes.items():
            assert outcome == outcomes["evaluate"], mode


class TestBatchWrappers:
    def test_default_batch_isolates_failing_slot(self):
        problem = FlakyProblem()
        outcomes = call_problem_batch(
            problem, [{"x": 1.0}, {"x": -2.0}, {"x": 3.0}]
        )
        assert isinstance(outcomes[1], ValueError)
        fit0, meta0 = outcomes[0]
        assert np.array_equal(fit0, [1.0, 1.0])
        assert meta0["failed"] is False
        fit2, _ = outcomes[2]
        assert np.array_equal(fit2, [3.0, 9.0])

    def test_cached_problem_batch_executes_only_misses(self, tmp_path):
        inner = CountingSurrogate(seed=3)
        cached = CachedProblem(inner, EvaluationCache(tmp_path / "c"))
        dec = SurrogateGenomeDecoder()
        phenomes = [dec.decode([6.0 + 0.1 * i]) for i in range(6)]
        # prime half the cache through the scalar path
        primed = [call_problem(cached, p) for p in phenomes[:3]]
        evals_before = inner.evaluations
        outcomes = cached.evaluate_batch_with_metadata(phenomes)
        assert inner.evaluations - evals_before == 3  # only the misses
        for (fit_scalar, _), slot in zip(primed, outcomes[:3]):
            fit_batch, meta = slot
            assert np.array_equal(fit_scalar, fit_batch)
            assert meta["cache_hit"] is True
        for slot in outcomes[3:]:
            _, meta = slot
            assert "cache_hit" not in meta
        # a second batch is all hits: the inner problem is not called
        calls_before = inner.batch_calls
        again = cached.evaluate_batch_with_metadata(phenomes)
        assert inner.batch_calls == calls_before
        for a, b in zip(outcomes, again):
            assert np.array_equal(a[0], b[0])

    def test_cached_problem_batch_replays_memoized_failures(self, tmp_path):
        problem = FlakyProblem()
        cached = CachedProblem(
            problem, EvaluationCache(tmp_path / "c", cache_failures=True)
        )
        first = cached.evaluate_batch_with_metadata([{"x": -1.0}, {"x": 2.0}])
        assert isinstance(first[0], ValueError)
        replay = cached.evaluate_batch_with_metadata([{"x": -1.0}, {"x": 2.0}])
        assert isinstance(replay[0], CachedFailure)
        assert replay[0].metadata["cache_hit"] is True
        _, meta = replay[1]
        assert meta["cache_hit"] is True

    @pytest.mark.parametrize("cache_failures", [False, True])
    def test_cached_problem_batch_repeats_a_key_like_consecutive_calls(
        self, tmp_path, cache_failures
    ):
        """A key repeated inside one batch is looked up after the
        earlier slot's insert: a hit when that result was cached, a
        second execution when it was not (an uncached failure) —
        the same slots, cache files and counts as one call per slot."""
        phenomes = [{"x": x} for x in (1.0, -1.0, 1.0, 2.0, -1.0, -1.0, 2.0)]
        runs = {}
        for name in ("batch", "consecutive"):
            inner = CountingFlaky()
            cached = CachedProblem(
                inner,
                EvaluationCache(
                    tmp_path / name, cache_failures=cache_failures
                ),
            )
            if name == "batch":
                slots = cached.evaluate_batch_with_metadata(phenomes)
            else:
                slots = [
                    cached.evaluate_batch_with_metadata([p])[0]
                    for p in phenomes
                ]
            files = {
                p.relative_to(tmp_path / name): p.read_bytes()
                for p in sorted((tmp_path / name).glob("??/*.json"))
            }
            runs[name] = (
                [
                    (type(s).__name__, str(s), s.metadata)
                    if isinstance(s, BaseException)
                    else (s[0].tobytes(), s[1])
                    for s in slots
                ],
                files,
                cached.cache.stats(),
                inner.calls,
            )
        assert runs["batch"] == runs["consecutive"]
        slots, _, stats, calls = runs["batch"]
        assert slots[2][1]["cache_hit"] is True
        assert stats["hits"] == (4 if cache_failures else 2)
        assert calls == (3 if cache_failures else 5)

    @pytest.mark.parametrize("chunk_size", [1, None])
    def test_two_fractions_of_one_category_train_once(
        self, tmp_path, chunk_size
    ):
        """``desc_activ_func`` 4.1 and 4.7 both decode to ``tanh``:
        two genomes (dedup keeps them apart), one phenome, one
        training and one cache hit at any chunk size."""
        rep = DeepMDRepresentation
        base = np.array([1e-3, 1e-6, 8.5, 3.0, 2.5, 4.1, 4.5])
        inner = SurrogateDeepMDProblem(seed=0)
        problem = CachedProblem(inner, EvaluationCache(tmp_path))
        individuals = [
            RobustIndividual(genome, decoder=rep.decoder(), problem=problem)
            for genome in (base, np.where(np.arange(7) == 5, 4.7, base))
        ]
        engine = EvaluationEngine()
        engine.evaluate_batch(individuals, chunk_size=chunk_size)
        assert (engine.stats.fresh, engine.stats.cache_hits) == (1, 1)
        assert problem.cache.stats()["inserts"] == 1
        assert inner.evaluations == 1
        assert np.array_equal(individuals[0].fitness, individuals[1].fitness)

    def test_surrogate_batch_slots_match_scalar_calls(self):
        problem = SurrogateDeepMDProblem(seed=13)
        dec = SurrogateGenomeDecoder()
        phenomes = [dec.decode([5.5 + 0.25 * i]) for i in range(8)]
        # include a deterministic failure: rcut_smth >= rcut
        phenomes.append({**phenomes[0], "rcut_smth": 99.0})
        batch = call_problem_batch(problem, phenomes)
        for phenome, slot in zip(phenomes, batch):
            try:
                fit, meta = call_problem(problem, phenome)
            except Exception as exc:
                assert isinstance(slot, BaseException)
                assert str(slot) == str(exc)
                assert slot.metadata["failure_cause"] == (
                    exc.metadata["failure_cause"]
                )
            else:
                assert np.array_equal(fit, slot[0])
                assert meta == slot[1]


@pytest.mark.slow
class TestPoolChunkIsolation:
    def test_worker_crash_reruns_only_its_chunk(self):
        """A worker death at chunk granularity costs the chunk it held
        one run: the chunk is re-run on the respawned worker and its
        members land the same fitness as inline; nothing fails."""
        problem = SurrogateDeepMDProblem(seed=7)
        decoder = SurrogateGenomeDecoder()

        def individuals():
            return [
                RobustIndividual(
                    np.array([6.0 + 0.1 * i]), decoder=decoder, problem=problem
                )
                for i in range(9)
            ]

        reference = EvaluationEngine().evaluate_batch(
            individuals(), chunk_size=3
        )
        plan = FaultPlan([Fault(kind="worker_death", at=0, worker="pool-1")])
        tracer = Tracer()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(workers=3) as backend:
                engine = EvaluationEngine(client=backend)
                done = engine.evaluate_batch(individuals(), chunk_size=3)
        # lowest-index-first dispatch: pool-1 held the second chunk
        (requeued,) = tracer.events("task.requeued")
        assert requeued["tags"]["from_worker"] == "pool-1"
        assert engine.stats.failures == 0
        assert engine.stats.completed == 9
        assert [ind.fitness.tobytes() for ind in done] == [
            ind.fitness.tobytes() for ind in reference
        ]
        for ind in done:
            assert ind.metadata["failed"] is False
