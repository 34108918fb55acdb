"""Durable campaign state: cache, journal, resume (repro.store).

The load-bearing guarantees under test:

* the evaluation cache never crashes on torn/garbage entries and never
  memoizes failures unless asked;
* the write-ahead journal parses cleanly when truncated at *any* byte
  offset;
* resuming a killed campaign reproduces the uninterrupted campaign's
  final Pareto front bit-identically, serving already-finished
  evaluations of the interrupted generation from the cache.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.evo.individual import MAXINT, RobustIndividual
from repro.evo.ops import eval_pool
from repro.evo.problem import Problem
from repro.exceptions import EvaluationError, StoreError
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation
from repro.store import (
    CachedFailure,
    CachedProblem,
    CampaignJournal,
    EvaluationCache,
    canonical_json,
    evaluation_key,
    journal_path,
    read_journal,
    restore_rng,
    resume_campaign,
)
from repro.store.journal import rng_state_of

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _phenome(lr=1e-3):
    genome = np.array([lr, 1e-5, 7.0, 3.0, 0.5, 1.5, 2.5])
    return DeepMDRepresentation.decoder().decode(genome)


class CountingProblem(Problem):
    """Deterministic two-objective problem that counts evaluations."""

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


class FailingProblem(Problem):
    n_objectives = 2

    def __init__(self):
        self.calls = 0

    def evaluate_with_metadata(self, phenome, uuid=None):
        self.calls += 1
        raise EvaluationError("deterministic boom")


# ----------------------------------------------------------------------
# canonical keys
# ----------------------------------------------------------------------
class TestCanonicalKeys:
    def test_key_order_insensitive(self):
        a = evaluation_key({"a": 1.5, "b": 2}, {"s": 1})
        b = evaluation_key({"b": 2, "a": 1.5}, {"s": 1})
        assert a == b

    def test_numpy_scalars_match_python(self):
        a = evaluation_key({"x": np.float64(0.1)}, {"s": np.int64(3)})
        b = evaluation_key({"x": 0.1}, {"s": 3})
        assert a == b

    def test_distinct_phenomes_distinct_keys(self):
        assert evaluation_key({"x": 1.0}, {}) != evaluation_key(
            {"x": 1.0 + 1e-15}, {}
        )

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_float_roundtrip_bit_exact(self):
        x = 0.1 + 0.2  # not representable prettily
        assert json.loads(canonical_json({"x": x}))["x"] == x


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class TestEvaluationCache:
    def test_roundtrip(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        assert cache.insert("ab" + "0" * 62, [1.0, 2.0], {"note": "hi"})
        entry = cache.lookup("ab" + "0" * 62)
        assert entry is not None
        assert entry.fitness == [1.0, 2.0]
        assert entry.metadata["note"] == "hi"
        assert len(cache) == 1
        assert cache.contains("ab" + "0" * 62)
        assert not cache.contains("cd" + "0" * 62)

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        for i in range(5):
            cache.insert(f"{i:02d}" + "0" * 62, [float(i)])
        assert not list(tmp_path.rglob("*.tmp"))

    def test_garbage_entry_skipped_not_raised(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        key = "ee" + "1" * 62
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{definitely not json")
        assert cache.lookup(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_torn_entry_skipped(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        key = "ff" + "2" * 62
        cache.insert(key, [3.0])
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text(path.read_text()[:20])  # torn mid-write
        fresh = EvaluationCache(tmp_path)  # cold index
        assert fresh.lookup(key) is None
        assert fresh.stats()["corrupt"] == 1

    def test_foreign_version_skipped(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        key = "aa" + "3" * 62
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"version": 999, "key": key, "fitness": [1]}))
        assert cache.lookup(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_mismatched_key_is_corrupt(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        good = "bb" + "4" * 62
        cache.insert(good, [1.0])
        impostor = "bb" + "5" * 62
        src = tmp_path / good[:2] / f"{good}.json"
        (tmp_path / impostor[:2]).mkdir(exist_ok=True)
        (tmp_path / impostor[:2] / f"{impostor}.json").write_text(
            src.read_text()
        )
        fresh = EvaluationCache(tmp_path)
        assert fresh.lookup(impostor) is None
        assert fresh.stats()["corrupt"] == 1

    def test_failures_refused_by_default(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        assert not cache.insert("cc" + "6" * 62, [MAXINT], failed=True)
        assert cache.stats()["skipped_failures"] == 1
        assert len(cache) == 0

    def test_cache_failures_opt_in(self, tmp_path):
        cache = EvaluationCache(tmp_path, cache_failures=True)
        key = "dd" + "7" * 62
        assert cache.insert(key, [MAXINT], failed=True, error="boom")
        entry = cache.lookup(key)
        assert entry.failed and entry.error == "boom"

    def test_index_is_bounded(self, tmp_path):
        cache = EvaluationCache(tmp_path, max_index_entries=3)
        for i in range(10):
            cache.insert(f"{i:02d}" + "8" * 62, [float(i)])
        assert len(cache._index) <= 3
        # evicted entries still come back from disk
        assert cache.lookup("00" + "8" * 62).fitness == [0.0]

    def test_nan_metadata_becomes_null(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        key = "ab" + "9" * 62
        cache.insert(key, [1.0], {"runtime": float("nan")})
        fresh = EvaluationCache(tmp_path)
        assert fresh.lookup(key).metadata["runtime"] is None


class TestCachedProblem:
    def test_hit_skips_inner_evaluation(self, tmp_path):
        inner = CountingProblem()
        prob = CachedProblem(inner, EvaluationCache(tmp_path))
        ph = {"x": 1.0}
        f1, m1 = prob.evaluate_with_metadata(ph)
        f2, m2 = prob.evaluate_with_metadata(ph)
        assert inner.calls == 1
        assert np.array_equal(f1, f2)
        assert "cache_hit" not in m1 and m2["cache_hit"] is True

    def test_failure_not_replayed_by_default(self, tmp_path):
        inner = FailingProblem()
        prob = CachedProblem(inner, EvaluationCache(tmp_path))
        for _ in range(2):
            with pytest.raises(EvaluationError):
                prob.evaluate_with_metadata({"x": 1.0})
        assert inner.calls == 2  # re-ran: failure was not memoized

    def test_failure_replayed_when_opted_in(self, tmp_path):
        inner = FailingProblem()
        cache = EvaluationCache(tmp_path, cache_failures=True)
        prob = CachedProblem(inner, cache)
        with pytest.raises(EvaluationError):
            prob.evaluate_with_metadata({"x": 1.0})
        with pytest.raises(CachedFailure) as exc_info:
            prob.evaluate_with_metadata({"x": 1.0})
        assert inner.calls == 1
        assert exc_info.value.metadata["cache_hit"] is True
        assert exc_info.value.metadata["failed"] is True

    def test_failure_flag_reaches_individual_metadata(self, tmp_path):
        prob = CachedProblem(
            FailingProblem(), EvaluationCache(tmp_path, cache_failures=True)
        )
        for _ in range(2):  # live failure, then replayed failure
            ind = RobustIndividual(np.zeros(2), problem=prob)
            ind.evaluate()
            assert not ind.is_viable
            assert ind.metadata["failed"] is True
            assert "failure_cause" in ind.metadata

    def test_delegates_to_inner(self, tmp_path):
        inner = CountingProblem()
        prob = CachedProblem(inner, EvaluationCache(tmp_path))
        assert prob.calls == 0  # delegated attribute
        assert prob.n_objectives == 2

    def test_surrogate_fingerprint_distinguishes_seeds(self, tmp_path):
        a = CachedProblem(
            SurrogateDeepMDProblem(seed=1), EvaluationCache(tmp_path)
        )
        b = CachedProblem(
            SurrogateDeepMDProblem(seed=2), EvaluationCache(tmp_path)
        )
        ph = _phenome()
        assert a.cache_key(ph) != b.cache_key(ph)


# ----------------------------------------------------------------------
# dedup within a generation
# ----------------------------------------------------------------------
class TestDedup:
    def _offspring(self, problem, genomes):
        return [
            RobustIndividual(g, problem=problem) for g in genomes
        ]

    def test_duplicates_evaluated_once(self):
        problem = CountingProblem()
        inds = self._offspring(
            problem, [np.zeros(3), np.zeros(3), np.ones(3), np.zeros(3)]
        )
        out = eval_pool(size=4, dedup=True)(iter(inds))
        assert problem.calls == 2  # two distinct genomes
        assert out is not None and len(out) == 4
        dups = [i for i in out if "dedup_of" in i.metadata]
        assert len(dups) == 2
        for ind in out:
            assert ind.fitness is not None
        # duplicates share values but not storage
        zeros = [i for i in out if np.all(i.genome == 0.0)]
        assert np.array_equal(zeros[0].fitness, zeros[1].fitness)
        assert zeros[0].fitness is not zeros[1].fitness

    def test_dedup_off_evaluates_all(self):
        problem = CountingProblem()
        inds = self._offspring(problem, [np.zeros(3)] * 3)
        eval_pool(size=3, dedup=False)(iter(inds))
        assert problem.calls == 3


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
def _journaled_campaign(tmp_path, name="camp", **cfg_kwargs):
    cfg = CampaignConfig(
        n_runs=cfg_kwargs.pop("n_runs", 2),
        pop_size=cfg_kwargs.pop("pop_size", 6),
        generations=cfg_kwargs.pop("generations", 3),
        base_seed=cfg_kwargs.pop("base_seed", 11),
    )
    d = tmp_path / name
    d.mkdir()
    journal = CampaignJournal(
        journal_path(d), problem_spec={"backend": "surrogate"}
    )
    campaign = Campaign(
        lambda seed: SurrogateDeepMDProblem(seed=seed), cfg, journal=journal
    )
    result = campaign.run()
    journal.close()
    return d, cfg, result


class TestJournal:
    def test_roundtrip(self, tmp_path):
        d, cfg, _ = _journaled_campaign(tmp_path)
        state = read_journal(journal_path(d))
        assert state.n_torn == 0
        assert state.campaign_complete
        assert state.config_doc["pop_size"] == cfg.pop_size
        assert state.problem_spec == {"backend": "surrogate"}
        for run in range(cfg.n_runs):
            rs = state.runs[run]
            assert rs.complete
            # generations 0..N journaled contiguously
            assert len(rs.contiguous_generations()) == cfg.generations + 1

    def test_every_line_is_strict_json(self, tmp_path):
        d, _, _ = _journaled_campaign(tmp_path)
        for line in journal_path(d).read_text().splitlines():
            doc = json.loads(line)  # raises on NaN/Infinity literals
            assert "type" in doc

    def test_generation_records_carry_rng_state(self, tmp_path):
        d, _, _ = _journaled_campaign(tmp_path)
        state = read_journal(journal_path(d))
        for rs in state.runs.values():
            for doc in rs.generations.values():
                assert doc["rng_state"] is not None

    def test_truncation_at_any_byte_offset_parses(self, tmp_path):
        d, _, _ = _journaled_campaign(
            tmp_path, n_runs=1, pop_size=4, generations=2
        )
        raw = journal_path(d).read_bytes()
        whole = read_journal(journal_path(d)).n_records
        # a spread of offsets including line boundaries and mid-record
        offsets = sorted(
            {1, 17, len(raw) // 3, len(raw) // 2, len(raw) - 5, len(raw)}
        )
        for cut in offsets:
            p = tmp_path / f"cut{cut}.jsonl"
            p.write_bytes(raw[:cut])
            state = read_journal(p)  # must never raise
            assert state.n_records <= whole

    def test_missing_file_is_empty_state(self, tmp_path):
        state = read_journal(tmp_path / "nope.jsonl")
        assert state.n_records == 0 and not state.runs

    def test_unknown_record_types_skipped(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text(
            json.dumps({"type": "from_the_future", "x": 1})
            + "\n"
            + json.dumps({"type": "run_begin", "run": 0, "seed": 5})
            + "\n"
        )
        state = read_journal(p)
        assert state.runs[0].seed == 5

    def test_append_generation_requires_run(self, tmp_path):
        rec = type("R", (), {"generation": 0})()
        with CampaignJournal(tmp_path / "j.jsonl") as journal:
            with pytest.raises(RuntimeError):
                journal.append_generation(rec)

    def test_rng_state_roundtrip(self):
        rng = np.random.default_rng(123)
        rng.random(7)  # advance
        state = json.loads(json.dumps(rng_state_of(rng)))
        clone = restore_rng(state)
        assert np.array_equal(rng.random(5), clone.random(5))


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------
def _fronts(result):
    return sorted(
        (tuple(i.genome), tuple(i.fitness))
        for i in result.aggregate_pareto_front()
    )


def _populations(result):
    return [
        [
            (tuple(i.genome), tuple(i.fitness))
            for i in rec.population
        ]
        for run in result.runs
        for rec in run
    ]


#: what two runs of one campaign may differ in: stamps, UUIDs, and
#: whether an evaluation was served (a served failure's ``error``
#: names the replay)
_VOLATILE = ("ts", "uuid", "uuids", "dedup_of", "cache_hit", "error")


def _scrub(value):
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if k not in _VOLATILE}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


class TestResume:
    def test_complete_journal_restores_verbatim(self, tmp_path):
        d, _, base = _journaled_campaign(tmp_path)
        restored = resume_campaign(d)
        assert _populations(restored) == _populations(base)
        assert _fronts(restored) == _fronts(base)

    def test_truncated_journal_resumes_bit_identically(self, tmp_path):
        d, cfg, base = _journaled_campaign(tmp_path)
        raw = journal_path(d).read_text().splitlines()
        # cut after the second generation record of run 1: run 0 is
        # complete, run 1 is interrupted mid-flight
        kept, run1_gens = [], 0
        for line in raw:
            kept.append(line)
            doc = json.loads(line)
            if doc.get("type") == "generation" and doc.get("run") == 1:
                run1_gens += 1
                if run1_gens == 2:
                    break
        d2 = tmp_path / "cut"
        d2.mkdir()
        journal_path(d2).write_text("\n".join(kept) + "\n")
        resumed = resume_campaign(
            d2, problem_factory=lambda seed: SurrogateDeepMDProblem(seed=seed)
        )
        assert _populations(resumed) == _populations(base)
        assert _fronts(resumed) == _fronts(base)
        # the resumed journal is itself complete and resumable again
        again = resume_campaign(d2)
        assert _fronts(again) == _fronts(base)

    def test_torn_tail_resumes_with_warning(self, tmp_path):
        d, _, base = _journaled_campaign(tmp_path)
        raw = journal_path(d).read_bytes()
        d2 = tmp_path / "torn"
        d2.mkdir()
        # chop mid-record: the torn line must be dropped, not parsed
        journal_path(d2).write_bytes(raw[: int(len(raw) * 0.6)])
        with pytest.warns(UserWarning, match="torn tail"):
            resumed = resume_campaign(
                d2,
                problem_factory=lambda seed: SurrogateDeepMDProblem(
                    seed=seed
                ),
            )
        assert _fronts(resumed) == _fronts(base)

    def test_resume_after_torn_tail_leaves_a_whole_journal(self, tmp_path):
        d, _, base = _journaled_campaign(
            tmp_path, n_runs=2, pop_size=20, generations=4
        )
        whole = read_journal(journal_path(d)).n_records
        raw = journal_path(d).read_bytes()
        cut = int(len(raw) * 0.45)
        d2 = tmp_path / "torn"
        d2.mkdir()
        journal_path(d2).write_bytes(raw[:cut])
        before = read_journal(journal_path(d2))
        assert before.n_torn == 1 and not before.campaign_complete
        evaluated = []

        def factory(seed):
            problem = SurrogateDeepMDProblem(seed=seed)
            inner = problem.evaluate_batch_with_metadata

            def counted(*args, **kwargs):
                evaluated.append(seed)
                return inner(*args, **kwargs)

            problem.evaluate_batch_with_metadata = counted
            return problem

        with pytest.warns(UserWarning, match="torn tail"):
            resumed = resume_campaign(d2, problem_factory=factory)
        assert evaluated and _fronts(resumed) == _fronts(base)
        # every record the resume appended is readable: nothing fused
        # with the torn fragment
        after = read_journal(journal_path(d2))
        assert after.n_torn == 0 and after.campaign_complete
        assert all(after.runs[run].complete for run in range(2))
        # what the finished campaign journaled, plus run 0's resume marker
        assert after.n_records == whole + 1
        intact = raw[: raw.rindex(b"\n", 0, cut) + 1]
        assert journal_path(d2).read_bytes().startswith(intact)
        del evaluated[:]
        again = resume_campaign(d2, problem_factory=factory)
        assert not evaluated and _fronts(again) == _fronts(base)

    def test_append_keeps_a_last_record_that_lost_its_newline(
        self, tmp_path
    ):
        d, _, _ = _journaled_campaign(tmp_path)
        path = journal_path(d)
        whole = read_journal(path).n_records
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        journal = CampaignJournal(path, mode="a")
        journal.resume_run(0, 0)
        journal.close()
        state = read_journal(path)
        assert state.n_torn == 0 and state.n_records == whole + 1

    def test_resume_replays_interrupted_generation_from_cache(
        self, tmp_path
    ):
        cfg = CampaignConfig(
            n_runs=1, pop_size=6, generations=3, base_seed=13
        )
        d = tmp_path / "camp"
        d.mkdir()
        cache = EvaluationCache(d / "cache")
        journal = CampaignJournal(
            journal_path(d), problem_spec={"backend": "surrogate"}
        )
        factory = lambda seed: CachedProblem(  # noqa: E731
            SurrogateDeepMDProblem(seed=seed), cache
        )
        base = Campaign(factory, cfg, journal=journal).run()
        journal.close()
        evals_cached = cache.stats()["inserts"]
        # simulate a kill during the last generation: the journal loses
        # its final records, but the cache kept every finished result
        raw = journal_path(d).read_text().splitlines()
        gen_lines = [
            i
            for i, line in enumerate(raw)
            if json.loads(line).get("type") == "generation"
        ]
        journal_path(d).write_text(
            "\n".join(raw[: gen_lines[-1]]) + "\n"
        )
        warm = EvaluationCache(d / "cache")
        resumed = resume_campaign(
            d,
            problem_factory=lambda seed: SurrogateDeepMDProblem(seed=seed),
            cache=warm,
        )
        assert _fronts(resumed) == _fronts(base)
        stats = warm.stats()
        # every replayed evaluation of the lost generation was already
        # on disk: served from cache, nothing retrained
        assert stats["misses"] == 0
        assert stats["hits"] == cfg.pop_size
        assert stats["hits"] <= evals_cached

    def test_unreadable_directory_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="no campaign journal"):
            resume_campaign(tmp_path)

    def test_journal_without_config_raises(self, tmp_path):
        journal_path(tmp_path).write_text(
            json.dumps({"type": "run_begin", "run": 0, "seed": 1}) + "\n"
        )
        with pytest.raises(StoreError, match="campaign_begin"):
            resume_campaign(tmp_path)

    def test_config_doc_tolerates_unknown_fields(self, tmp_path):
        d, cfg, base = _journaled_campaign(tmp_path, n_runs=1)
        lines = journal_path(d).read_text().splitlines()
        first = json.loads(lines[0])
        first["config"]["from_the_future"] = 42
        lines[0] = json.dumps(first)
        journal_path(d).write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="unknown campaign config"):
            restored = resume_campaign(d)
        assert _fronts(restored) == _fronts(base)


# ----------------------------------------------------------------------
# pool fast path
# ----------------------------------------------------------------------
class TestPoolCachedFastPath:
    def _pooled(self, problem, genomes):
        """``eval_pool`` over a one-worker pool; the pool's counters."""
        from repro.engine import ProcessPoolBackend
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with ProcessPoolBackend(workers=1, metrics=registry) as pool:
            inds = [RobustIndividual(g, problem=problem) for g in genomes]
            out = eval_pool(client=pool, size=len(inds))(iter(inds))
        return out, {
            "cached": registry.counter("pool_cache_hits_total").value,
            "dispatched": registry.counter(
                "pool_tasks_dispatched_total"
            ).value,
        }

    def test_cached_individuals_skip_the_pool(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        problem = CachedProblem(CountingProblem(), cache)
        genomes = [np.full(3, float(i)) for i in range(4)]
        # warm the cache with half the genomes
        for g in genomes[:2]:
            RobustIndividual(g, problem=problem).evaluate()
        out, stats = self._pooled(problem, genomes)
        assert stats == {"cached": 2, "dispatched": 2}
        for ind in out:
            assert ind.fitness is not None and ind.is_viable

    def test_uncached_problems_submit_normally(self):
        _, stats = self._pooled(
            CountingProblem(), [np.full(3, float(i)) for i in range(3)]
        )
        assert stats == {"cached": 0, "dispatched": 3}


# ----------------------------------------------------------------------
# the CLI: kill → resume, end to end
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCliKillResume:
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

    def test_killed_campaign_resumes_bit_identically(self, tmp_path):
        common = [
            "campaign",
            "--runs", "2",
            "--pop-size", "6",
            "--generations", "3",
            "--seed", "7",
        ]
        base = self._run_cli(
            common + ["--save", "base"], cwd=tmp_path
        )
        assert base.returncode == 0, base.stderr
        killed = self._run_cli(
            common + ["--save", "killed", "--kill-after-evals", "20"],
            cwd=tmp_path,
        )
        assert killed.returncode == 137, killed.stderr
        resumed = self._run_cli(["resume", "killed"], cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        from repro.io import load_campaign

        a = load_campaign(tmp_path / "base")
        b = load_campaign(tmp_path / "killed")
        assert _fronts(a) == _fronts(b)
        assert _populations(a) == _populations(b)
        # the interrupted generation's finished evaluations were cache
        # hits, not re-trainings (2 evals were done past the last
        # journaled generation: 20 total minus 18 journaled)
        assert "'hits': 2" in resumed.stdout

    def test_a_warm_kill_lands_where_a_cold_one_does(self, tmp_path):
        """A served cache hit is a finished evaluation to
        ``--kill-after-evals``, as it was when it re-entered the
        problem: over a complete cache the kill fires at the same
        evaluation, after the same journaled prefix."""
        common = [
            "campaign",
            "--runs", "2",
            "--pop-size", "6",
            "--generations", "3",
            "--seed", "7",
        ]
        full = self._run_cli(
            common + ["--save", "full", "--cache-dir", "warm"], cwd=tmp_path
        )
        assert full.returncode == 0, full.stderr
        journals = {}
        for name, cache in (("cold", "fresh"), ("warm", "warm")):
            killed = self._run_cli(
                common
                + ["--save", name, "--cache-dir", cache]
                + ["--kill-after-evals", "20"],
                cwd=tmp_path,
            )
            assert killed.returncode == 137, killed.stderr
            assert "20 evaluations done" in killed.stderr
            journals[name] = [
                _scrub(doc)
                for doc in (
                    json.loads(line)
                    for line in (tmp_path / name / "journal.jsonl")
                    .read_text()
                    .splitlines()
                )
            ]
        assert journals["warm"] == journals["cold"]
        assert sum(doc["type"] == "generation" for doc in journals["warm"]) == 3


# ----------------------------------------------------------------------
# campaign snapshot schema (satellite 1)
# ----------------------------------------------------------------------
class TestSnapshotSchema:
    def _save(self, tmp_path):
        from repro.io import save_campaign

        cfg = CampaignConfig(
            n_runs=1, pop_size=4, generations=1, base_seed=3
        )
        result = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), cfg
        ).run()
        save_campaign(result, tmp_path / "camp")
        return result

    def test_snapshot_carries_schema_version(self, tmp_path):
        from repro.io.campaign_store import SCHEMA_VERSION

        self._save(tmp_path)
        doc = json.loads((tmp_path / "camp" / "campaign.json").read_text())
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_load_warns_on_unknown_fields(self, tmp_path):
        from repro.io import load_campaign

        base = self._save(tmp_path)
        path = tmp_path / "camp" / "campaign.json"
        doc = json.loads(path.read_text())
        doc["future_field"] = {"x": 1}
        doc["config"]["future_knob"] = 9
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning):
            loaded = load_campaign(tmp_path / "camp")
        assert _populations(loaded) == _populations(base)

    def test_load_warns_on_newer_schema(self, tmp_path):
        from repro.io import load_campaign

        self._save(tmp_path)
        path = tmp_path / "camp" / "campaign.json"
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="newer"):
            load_campaign(tmp_path / "camp")
