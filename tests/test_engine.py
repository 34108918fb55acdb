"""The unified evaluation engine (repro.engine).

The load-bearing guarantees under test:

* every optimizer driver — generational, steady-state, and all three
  baselines — resolves a repeated phenome from the evaluation cache
  instead of retraining it;
* the engine is the only place the exception→MAXINT failure policy
  lives (an AST guard bans direct ``Problem.evaluate`` calls and
  inline failure-fitness construction everywhere else in ``src/``);
* a killed steady-state campaign resumes by replaying its journaled
  evaluations, and its journal records every evaluation once.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    EvaluationEngine,
    InlineBackend,
    as_backend,
    call_problem,
    failure_fitness,
)
from repro.evo.algorithm import run_driver
from repro.evo.asynchronous import SteadyStateDriver
from repro.evo.individual import MAXINT, Individual, RobustIndividual
from repro.evo.problem import Problem
from repro.exceptions import EvaluationError
from repro.hpo.baselines import (
    grid_search,
    random_search,
    weighted_sum_ea,
)
from repro.hpo.driver import NSGA2Settings, run_deepmd_nsga2
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation
from repro.store import CachedProblem, EvaluationCache
from repro.store.journal import CampaignJournal, read_journal

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class IdentityDecoder:
    def decode(self, genome):
        return genome


class CountingProblem(Problem):
    n_objectives = 2

    def __init__(self):
        self.calls = 0

    def evaluate_with_metadata(self, phenome, uuid=None):
        self.calls += 1
        values = (
            list(phenome.values())
            if isinstance(phenome, dict)
            else phenome
        )
        x = float(np.sum(np.asarray(values, dtype=np.float64)))
        return np.array([x, x * 2.0]), {"calls": self.calls}


class BoomProblem(Problem):
    n_objectives = 2

    def evaluate_with_metadata(self, phenome, uuid=None):
        raise EvaluationError("deterministic boom")


def _ind(genome, problem, cls=Individual):
    ind = cls(
        np.asarray(genome, dtype=np.float64),
        decoder=IdentityDecoder(),
        problem=problem,
    )
    ind.n_objectives = problem.n_objectives
    return ind


# ----------------------------------------------------------------------
# engine semantics
# ----------------------------------------------------------------------
class TestEngineCore:
    def test_batch_dedup_one_call_per_genome(self):
        problem = CountingProblem()
        pop = [_ind([1.0, 2.0], problem) for _ in range(3)]
        pop.append(_ind([3.0, 4.0], problem))
        engine = EvaluationEngine(dedup=True)
        out = engine.evaluate(pop)
        assert out == pop
        assert problem.calls == 2
        assert engine.stats.submitted == 4
        assert engine.stats.fresh == 2
        assert engine.stats.dedup_hits == 2
        dups = [i for i in pop if i.metadata.get("dedup_of")]
        assert len(dups) == 2
        rep_uuid = pop[0].uuid
        assert all(d.metadata["dedup_of"] == rep_uuid for d in dups)
        assert all(
            np.array_equal(i.fitness, pop[0].fitness) for i in pop[:3]
        )

    def test_batch_scope_forgets_between_batches(self):
        problem = CountingProblem()
        engine = EvaluationEngine(dedup=True, dedup_scope="batch")
        engine.evaluate([_ind([1.0, 2.0], problem)])
        engine.evaluate([_ind([1.0, 2.0], problem)])
        assert problem.calls == 2
        assert engine.stats.dedup_hits == 0

    def test_run_scope_remembers_across_batches(self):
        problem = CountingProblem()
        engine = EvaluationEngine(dedup=True, dedup_scope="run")
        engine.evaluate([_ind([1.0, 2.0], problem)])
        engine.evaluate([_ind([1.0, 2.0], problem)])
        assert problem.calls == 1
        assert engine.stats.dedup_hits == 1

    def test_invalid_dedup_scope_rejected(self):
        with pytest.raises(ValueError):
            EvaluationEngine(dedup_scope="generation")

    def test_failure_policy_plain_individual(self):
        ind = _ind([1.0], BoomProblem())
        engine = EvaluationEngine()
        engine.evaluate([ind])
        assert np.all(ind.fitness == MAXINT)
        assert ind.metadata["failed"] is True
        assert "boom" in ind.metadata["failure_cause"]
        assert engine.stats.failures == 1
        assert not ind.is_viable

    def test_failure_policy_robust_individual_same_outcome(self):
        ind = _ind([1.0], BoomProblem(), cls=RobustIndividual)
        engine = EvaluationEngine()
        engine.evaluate([ind])
        assert np.all(ind.fitness == MAXINT)
        assert engine.stats.failures == 1

    def test_streaming_submit_wait_any(self):
        problem = CountingProblem()
        engine = EvaluationEngine(dedup=True, dedup_scope="run")
        engine.submit(_ind([1.0, 1.0], problem))
        engine.submit(_ind([1.0, 1.0], problem))
        assert engine.has_pending()
        done = engine.wait_any()
        assert len(done) == 2
        assert not engine.has_pending()
        assert engine.wait_any() == []
        assert engine.stats.fresh == 1
        assert engine.stats.dedup_hits == 1

    def test_stats_delta(self):
        problem = CountingProblem()
        engine = EvaluationEngine()
        engine.evaluate([_ind([1.0, 2.0], problem)])
        before = engine.stats.copy()
        engine.evaluate([_ind([3.0, 4.0], problem)])
        used = engine.stats.delta(before)
        assert used.submitted == 1
        assert engine.stats.submitted == 2

    def test_as_backend_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_backend(object())
        assert isinstance(as_backend(None), InlineBackend)

    def test_call_problem_plain_evaluate_problem(self):
        class Plain:
            def evaluate(self, phenome):
                return [1.0, 2.0]

        fitness, meta = call_problem(Plain(), {"x": 1})
        assert np.array_equal(fitness, [1.0, 2.0])
        assert meta == {}

    def test_failure_fitness_shape_and_value(self):
        f = failure_fitness(3)
        assert f.shape == (3,)
        assert np.all(f == MAXINT)


# ----------------------------------------------------------------------
# the cache-probe fast path
# ----------------------------------------------------------------------
class TestEngineCacheProbe:
    def _cached_problem(self, tmp_path):
        return CachedProblem(
            CountingProblem(), EvaluationCache(tmp_path / "cache")
        )

    def test_repeated_phenome_is_cache_hit_not_fresh(self, tmp_path):
        problem = self._cached_problem(tmp_path)
        engine = EvaluationEngine()
        engine.evaluate([_ind([1.0, 2.0], problem, RobustIndividual)])
        engine.evaluate([_ind([1.0, 2.0], problem, RobustIndividual)])
        assert problem.problem.calls == 1
        assert engine.stats.fresh == 1
        assert engine.stats.cache_hits == 1

    def test_cache_hit_never_reaches_backend(self, tmp_path):
        problem = self._cached_problem(tmp_path)
        engine = EvaluationEngine()
        engine.evaluate([_ind([1.0, 2.0], problem, RobustIndividual)])

        submitted = []

        class SpyBackend(InlineBackend):
            def submit(self, individual):
                submitted.append(individual)
                return super().submit(individual)

            def on_cache_hit(self, individual):
                submitted.append("cache-hit-notification")

        warm = EvaluationEngine(client=SpyBackend())
        warm.evaluate([_ind([1.0, 2.0], problem, RobustIndividual)])
        assert submitted == ["cache-hit-notification"]
        assert warm.stats.cache_hits == 1


# ----------------------------------------------------------------------
# every driver resolves repeats through the cache (the acceptance bar)
# ----------------------------------------------------------------------
class TestCacheHitInEveryDriver:
    def _factory(self, tmp_path):
        # cache_failures=True: a deterministic failure replays from the
        # cache instead of re-executing, so replay counts stay exact
        cache = EvaluationCache(tmp_path / "cache", cache_failures=True)
        return cache, (
            lambda: CachedProblem(SurrogateDeepMDProblem(seed=3), cache)
        )

    def test_steady_state(self, tmp_path):
        cache, make = self._factory(tmp_path)
        rep = DeepMDRepresentation

        def run(engine):
            driver = SteadyStateDriver(
                problem=make(),
                init_ranges=rep.init_ranges,
                pop_size=5,
                hard_bounds=rep.bounds,
                decoder=rep.decoder(),
                rng=11,
                initial_std=rep.mutation_std,
                max_evaluations=15,
            )
            return run_driver(driver, driver.last_generation, engine=engine)

        cold = EvaluationEngine(dedup=True, dedup_scope="run")
        first = run(cold)
        assert cold.stats.fresh == 15
        assert cold.stats.cache_hits == 0
        warm = EvaluationEngine(dedup=True, dedup_scope="run")
        replay = run(warm)
        # deterministic inline replay: every candidate is served from
        # the cache, zero retraining
        assert warm.stats.fresh == 0
        assert warm.stats.cache_hits == warm.stats.completed == 15
        assert sorted(
            tuple(i.fitness) for r in first for i in r.evaluated
        ) == sorted(tuple(i.fitness) for r in replay for i in r.evaluated)

    def test_steady_state_campaign_replays_over_uncached_failures(
        self, tmp_path
    ):
        """A warm re-run consumes candidates in the cold run's order
        even when some of them execute (failures are not cached by
        default) while their neighbours are served at submit time: it
        misses exactly the failures and reproduces the front."""
        from repro.hpo.campaign import Campaign, CampaignConfig

        config = CampaignConfig(
            n_runs=2, pop_size=40, generations=3, mode="steady-state"
        )

        def front(result):
            return sorted(
                (ind.genome.tobytes(), ind.fitness.tobytes())
                for ind in result.aggregate_pareto_front()
            )

        plain = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), config
        ).run()
        failed = sum(plain.failures_by_generation())
        assert failed > 0
        cache = EvaluationCache(tmp_path / "cache")

        def factory(seed):
            return CachedProblem(SurrogateDeepMDProblem(seed=seed), cache)

        cold = Campaign(factory, config).run()
        assert front(cold) == front(plain)
        before = cache.stats()
        with CampaignJournal(tmp_path / "warm.jsonl") as journal:
            warm = Campaign(factory, config, journal=journal).run()
        after = cache.stats()
        assert after["misses"] - before["misses"] == failed
        assert after["inserts"] == before["inserts"]
        assert front(warm) == front(plain)
        # the journal holds the evaluations in the order the driver
        # consumed them — cache hits and retrained failures alike
        state = read_journal(tmp_path / "warm.jsonl")
        for index, run in enumerate(warm.runs):
            assert [doc["uuid"] for doc in state.runs[index].evaluations] == [
                ind.uuid for rec in run for ind in rec.evaluated
            ]

    def test_generational(self, tmp_path):
        cache, make = self._factory(tmp_path)
        settings = NSGA2Settings(pop_size=5, generations=2)
        run_deepmd_nsga2(problem=make(), settings=settings, rng=11)
        inserts = cache.stats()["inserts"]
        assert inserts > 0
        run_deepmd_nsga2(problem=make(), settings=settings, rng=11)
        stats = cache.stats()
        # bit-identical replay: every insert comes back as a hit and
        # nothing new is trained
        assert stats["hits"] == inserts
        assert stats["inserts"] == inserts

    def test_grid_search(self, tmp_path):
        cache, make = self._factory(tmp_path)
        first = grid_search(make(), points_per_gene=2, budget=10, rng=5)
        # distinct lattice nodes may decode to the same phenome, so
        # some candidates are cache hits even within the first sweep
        assert first.fresh + first.cache_hits == 10
        assert first.fresh == cache.stats()["inserts"]
        again = grid_search(make(), points_per_gene=2, budget=10, rng=5)
        assert again.fresh == 0
        assert again.cache_hits == again.evaluations == 10

    def test_random_search(self, tmp_path):
        cache, make = self._factory(tmp_path)
        first = random_search(make(), budget=8, rng=5)
        assert first.fresh == 8
        again = random_search(make(), budget=8, rng=5)
        assert again.fresh == 0
        assert again.cache_hits == 8

    def test_weighted_sum_ea(self, tmp_path):
        cache, make = self._factory(tmp_path)
        kwargs = dict(pop_size=5, generations=2, rng=5)
        first = weighted_sum_ea(make(), **kwargs)
        assert first.evaluations == 15
        assert first.fresh == 15
        # the scalarized problem caches through its inner problem; the
        # cache_hit marker propagates out through the scalarization, so
        # a rerun retrains nothing
        again = weighted_sum_ea(make(), **kwargs)
        assert again.fresh == 0
        assert again.cache_hits == 15


# ----------------------------------------------------------------------
# steady-state accounting and windows
# ----------------------------------------------------------------------
class TestSteadyStateAccounting:
    def test_record_counts_and_windows(self):
        rep = DeepMDRepresentation
        engine = EvaluationEngine(dedup=True, dedup_scope="run")
        seen = []
        driver = SteadyStateDriver(
            problem=SurrogateDeepMDProblem(seed=0),
            init_ranges=rep.init_ranges,
            pop_size=4,
            hard_bounds=rep.bounds,
            decoder=rep.decoder(),
            rng=0,
            initial_std=rep.mutation_std,
            max_evaluations=12,
        )
        assert driver.last_generation == 2
        records = run_driver(
            driver,
            driver.last_generation,
            engine=engine,
            callback=lambda rec: seen.append(engine.stats.completed),
        )
        assert engine.stats.completed == 12
        assert engine.stats.fresh == 12  # no cache, no repeats
        assert [r.generation for r in records] == [0, 1, 2]
        assert all(len(r.evaluated) == 4 for r in records)
        assert all(len(r.population) == 4 for r in records)
        # a window commits once its completions are in, not at the end
        assert seen[0] < seen[1] < seen[2] == 12
        # std anneals by the factor per window
        assert np.allclose(records[1].std, records[0].std * 0.85)

    def test_a_partial_last_window_closes_a_record(self):
        rep = DeepMDRepresentation
        driver = SteadyStateDriver(
            problem=SurrogateDeepMDProblem(seed=0),
            init_ranges=rep.init_ranges,
            pop_size=4,
            rng=0,
            initial_std=rep.mutation_std,
            max_evaluations=10,
        )
        assert driver.last_generation == 2
        records = run_driver(driver, driver.last_generation)
        assert [len(r.evaluated) for r in records] == [4, 4, 2]

    def test_budget_must_cover_initial_population(self):
        rep = DeepMDRepresentation
        with pytest.raises(ValueError):
            SteadyStateDriver(
                problem=SurrogateDeepMDProblem(seed=0),
                init_ranges=rep.init_ranges,
                pop_size=10,
                initial_std=rep.mutation_std,
                max_evaluations=5,
            )


# ----------------------------------------------------------------------
# the AST guard: one failure policy, one evaluation entry point
# ----------------------------------------------------------------------
#: modules allowed to call Problem.evaluate* / build MAXINT fitness —
#: the engine itself and the Problem base class's default batch
#: fallback loop
_GUARD_WHITELIST = (
    "repro/engine/",
    "repro/evo/problem.py",
)

#: receiver names that denote the engine itself, not a problem
_ENGINE_RECEIVERS = {"eng", "engine"}

#: sanctioned per-evaluation helpers that must not be looped over —
#: batch work goes through `engine.evaluate_batch` / `call_problem_batch`
_LOOPED_HELPERS = {"call_problem", "evaluate_individual"}


def _receiver_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _loop_bodies(tree):
    """Yield every AST node nested inside a loop or comprehension."""
    loop_types = (
        ast.For,
        ast.AsyncFor,
        ast.While,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )
    for node in ast.walk(tree):
        if isinstance(node, loop_types):
            for child in ast.walk(node):
                if child is not node:
                    yield child


def _guard_violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("evaluate", "evaluate_with_metadata"):
                receiver = _receiver_name(func.value)
                if receiver not in _ENGINE_RECEIVERS:
                    violations.append(
                        f"{path}:{node.lineno}: .{func.attr}() call"
                    )
            if func.attr == "full" and any(
                isinstance(a, ast.Name) and a.id == "MAXINT"
                for a in node.args
            ):
                violations.append(
                    f"{path}:{node.lineno}: inline MAXINT fitness"
                )
    # per-individual evaluation loops: ban looping the scalar helpers
    # outside the engine and the Problem base fallback
    looped = set()
    for node in _loop_bodies(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _LOOPED_HELPERS
            and id(node) not in looped
        ):
            looped.add(id(node))
            violations.append(
                f"{path}:{node.lineno}: {node.func.id}() in a loop "
                "(use the batch path)"
            )
    return violations


class TestFailurePolicyGuard:
    def test_no_direct_evaluation_outside_engine(self):
        src_root = Path(SRC)
        violations = []
        for path in sorted(src_root.rglob("*.py")):
            rel = path.relative_to(src_root).as_posix()
            if any(rel.startswith(w) or rel == w.rstrip("/") for w in _GUARD_WHITELIST):
                continue
            violations.extend(_guard_violations(path))
        assert not violations, (
            "Problem evaluation / failure fitness outside repro.engine "
            "(route through EvaluationEngine, call_problem, or "
            "failure_fitness):\n" + "\n".join(violations)
        )

    def test_guard_actually_detects_violations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "def f(problem, phenome, MAXINT):\n"
            "    fit = problem.evaluate(phenome)\n"
            "    return np.full(2, MAXINT)\n"
        )
        found = _guard_violations(bad)
        assert len(found) == 2

    def test_loop_guard_detects_scalar_helper_in_loop(self, tmp_path):
        bad = tmp_path / "bad_loop.py"
        bad.write_text(
            "def f(problems, phenomes):\n"
            "    out = []\n"
            "    for problem, phenome in zip(problems, phenomes):\n"
            "        out.append(call_problem(problem, phenome))\n"
            "    comp = [evaluate_individual(i) for i in phenomes]\n"
            "    return out, comp\n"
        )
        found = _guard_violations(bad)
        loops = [v for v in found if "in a loop" in v]
        assert len(loops) == 2
        # the same helpers outside a loop are fine
        good = tmp_path / "good_call.py"
        good.write_text(
            "def g(problem, phenome):\n"
            "    return call_problem(problem, phenome)\n"
        )
        assert not [
            v for v in _guard_violations(good) if "in a loop" in v
        ]


# ----------------------------------------------------------------------
# killed steady-state campaign: record-replay resume
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSteadyStateKillResume:
    def _run_cli(self, args, cwd):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.hpo.cli", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_killed_steady_state_resumes_by_replay(self, tmp_path):
        common = [
            "run",
            "--mode", "steady-state",
            "--runs", "2",
            "--pop-size", "6",
            "--generations", "2",
            "--seed", "7",
        ]
        base = self._run_cli(common + ["--save", "base"], cwd=tmp_path)
        assert base.returncode == 0, base.stderr
        killed = self._run_cli(
            common + ["--save", "killed", "--kill-after-evals", "10"],
            cwd=tmp_path,
        )
        assert killed.returncode == 137, killed.stderr
        n_cached = len(
            list((tmp_path / "killed" / "cache").glob("??/*.json"))
        )
        cut = read_journal(tmp_path / "killed" / "journal.jsonl")
        # successes journaled before the kill: the resume replays them
        # from the journal without looking them up
        n_journaled = sum(
            1
            for rs in cut.runs.values()
            for doc in rs.evaluations
            if not doc["metadata"].get("failed")
        )
        assert n_journaled >= 3
        resumed = self._run_cli(["resume", "killed"], cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        # only what finished but was never journaled comes back as a
        # cache hit; nothing is retrained
        assert f"'hits': {n_cached - n_journaled}," in resumed.stdout

        from repro.io import load_campaign

        a = load_campaign(tmp_path / "base")
        b = load_campaign(tmp_path / "killed")
        # inline steady-state replay is deterministic, so the resumed
        # campaign matches the never-killed one
        front = lambda r: sorted(  # noqa: E731
            (tuple(i.genome), tuple(i.fitness))
            for i in r.aggregate_pareto_front()
        )
        assert front(a) == front(b)

        # the journal holds every evaluation of the campaign, once
        state = read_journal(tmp_path / "killed" / "journal.jsonl")
        for index, run in enumerate(b.runs):
            journaled = [doc["uuid"] for doc in state.runs[index].evaluations]
            assert len(journaled) == len(set(journaled))
            assert sorted(journaled) == sorted(
                i.uuid for rec in run for i in rec.evaluated
            )

    def test_pool_kill_counts_each_evaluation_once(self, tmp_path):
        """The journal-side kill counts an evaluation once, although a
        steady-state window's record repeats the evaluations already
        journaled one by one."""
        killed = self._run_cli(
            [
                "run",
                "--mode", "steady-state",
                "--runs", "1",
                "--pop-size", "6",
                "--generations", "2",
                "--seed", "7",
                "--backend", "pool",
                "--pool-workers", "2",
                "--save", "killed",
                "--kill-after-evals", "10",
            ],
            cwd=tmp_path,
        )
        assert killed.returncode == 137, killed.stderr
        state = read_journal(tmp_path / "killed" / "journal.jsonl")
        assert len(state.runs[0].evaluations) == 10
        assert sorted(state.runs[0].generations) == [0]


class TestKillAfterEvaluations:
    """``--kill-after-evals N`` finishes exactly N evaluations, whichever
    entry point the engine uses."""

    @pytest.mark.parametrize("path", ["scalar", "batch"])
    def test_exactly_n_evaluations_finish(self, monkeypatch, path):
        from repro.hpo.cli import _KillAfterEvaluations

        class Killed(Exception):
            pass

        def exit_(code):
            raise Killed(code)

        monkeypatch.setattr(os, "_exit", exit_)
        inner = CountingProblem()
        wrapped = _KillAfterEvaluations(inner, 5)
        phenomes = [[float(i)] for i in range(8)]
        with pytest.raises(Killed):
            if path == "scalar":
                for phenome in phenomes:
                    wrapped.evaluate_with_metadata(phenome)
            else:
                wrapped.evaluate_batch_with_metadata(phenomes[:3])
                wrapped.evaluate_batch_with_metadata(phenomes[3:])
        assert inner.calls == 5

    def test_served_hits_count(self, monkeypatch, tmp_path):
        """The engine's probe reaches the cache through the wrapper: a
        served hit is a finished evaluation, a miss is not."""
        from repro.hpo.cli import _KillAfterEvaluations
        from repro.store import CachedProblem, EvaluationCache

        class Killed(BaseException):
            """Like ``os._exit``, nothing on the way may swallow it."""

        def exit_(code):
            raise Killed(code)

        cached = CachedProblem(CountingProblem(), EvaluationCache(tmp_path))
        EvaluationEngine().evaluate(
            [_ind([float(i)], cached) for i in range(4)]
        )
        monkeypatch.setattr(os, "_exit", exit_)
        wrapped = _KillAfterEvaluations(cached, 3)
        engine = EvaluationEngine()
        with pytest.raises(Killed):
            engine.evaluate([_ind([float(i)], wrapped) for i in range(9)])
        # two hits served, the third killed the process
        assert engine.stats.cache_hits == 2
        assert cached.cache.stats()["hits"] == 3
        assert wrapped.serve(np.array([99.0])) is None
        assert wrapped._done == 3
