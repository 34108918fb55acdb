"""The store's per-evaluation path: same bytes, one read, honest probe.

``repro.store`` hashes only the phenome per key, reads each entry file
once (the dispatcher's probe primes the index for the problem's counted
lookup) and walks each record once on its way to disk.  None of that
may change a byte or a counter, so the tests here hold the live code to
the encoders it replaced (``store_reference``) and to a cache + journal
the parent commit left on disk (``tests/data/store_v1``), and pin the
one behaviour that did change: a torn entry is a miss at the probe.
"""

import hashlib
import inspect
import json
import os
import shutil
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EvaluationEngine,
    InlineBackend,
    apply_failure,
    evaluate_individual,
    serve_from_cache,
)
from repro.evo.algorithm import GenerationRecord
from repro.evo.individual import Individual, RobustIndividual
from repro.evo.problem import Problem
from repro.exceptions import EvaluationError
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.evaluator import DeepMDProblem
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.obs.metrics import get_registry
from repro.store import (
    CachedFailure,
    CachedProblem,
    CampaignJournal,
    CanonicalFingerprint,
    EvaluationCache,
    canonical_json,
    evaluation_key,
    journal_path,
    read_journal,
    resume_campaign,
)
from repro.store.resume import RETIRED_CONFIG_FIELDS
from tests import store_reference as ref

FIXTURE = Path(__file__).parent / "data" / "store_v1"

#: the ledger's TRAIN_PHENOME: tanh/tanh at the paper's rcut
PAPER_PHENOME = {
    "start_lr": 3e-3,
    "stop_lr": 1e-4,
    "rcut": 8.5,
    "rcut_smth": 2.0,
    "scale_by_worker": "none",
    "desc_activ_func": "tanh",
    "fitting_activ_func": "tanh",
}


class Opaque:
    """Something only ``str`` can spell."""

    def __str__(self):
        return "<opaque>"


# ----------------------------------------------------------------------
# (a) + (b): the address cannot drift
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    finite,
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(
        np.float32
    ),
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(finite, min_size=1, max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(
        lambda v: np.array(v, dtype=np.int32)
    ),
)


def _nest(children):
    # one key type per mapping: mixed str/int keys do not sort, at the
    # parent or now.  True / False / None keys are the one spelling the
    # C encoder and the walk disagree on ("true" against "True")
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.integers(-50, 50), children, max_size=4),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
    )


documents = st.recursive(scalars, _nest, max_leaves=12)


class TestAddress:
    @settings(max_examples=200, deadline=None)
    @given(phenome=documents, fingerprint=documents)
    def test_key_matches_the_reference(self, phenome, fingerprint):
        expected = ref.evaluation_key(phenome, fingerprint)
        assert evaluation_key(phenome, fingerprint) == expected
        # the pre-canonicalised form is the same address
        prefix = CanonicalFingerprint(fingerprint)
        assert evaluation_key(phenome, prefix) == expected
        assert canonical_json(phenome) == ref.canonical_json(phenome)

    def test_pinned_digests(self):
        fingerprint = SurrogateDeepMDProblem(seed=0).cache_fingerprint()
        paper = (
            "48e51f78b7e8477167e9f909e7c1be1d"
            "7d6fe752679210501fd4b8af2bb91a90"
        )
        assert evaluation_key(PAPER_PHENOME, fingerprint) == paper
        assert evaluation_key({"a": 1.5, "b": (1, 2)}, {"s": 1}) == (
            "f992a300f81b6eece31bc19cda47ee8b"
            "a425e4e6780afafb40f6b67eb5bda196"
        )
        cached = CachedProblem(
            SurrogateDeepMDProblem(seed=0), cache=None
        )
        assert cached.cache_key(dict(PAPER_PHENOME)) == paper

    def test_int_keys_sort_as_the_reference_sorts_them(self):
        # 9 < 10 as ints but "10" < "9" as strings: the encoder's
        # sort_keys has the last word, as it always had
        doc = {10: "a", 9: "b"}
        assert canonical_json(doc) == ref.canonical_json(doc)
        assert canonical_json(doc) == '{"10":"a","9":"b"}'

    def test_nan_is_refused_in_either_half(self):
        with pytest.raises(ValueError):
            evaluation_key({"x": float("nan")}, {})
        with pytest.raises(ValueError):
            evaluation_key({}, {"x": float("inf")})

    def test_prefix_survives_pickling(self):
        import pickle

        problem = CachedProblem(SurrogateDeepMDProblem(seed=4), cache=None)
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.cache_key(PAPER_PHENOME) == problem.cache_key(
            PAPER_PHENOME
        )


# ----------------------------------------------------------------------
# (c): the bytes cannot drift
# ----------------------------------------------------------------------
AWKWARD_METADATA = {
    "runtime_minutes": np.float64(12.5),
    "nan": float("nan"),
    "neg_inf": -np.inf,
    "np_nan": np.float32("nan"),
    "steps": np.int64(40000),
    "converged": np.bool_(True),
    "phenome": dict(PAPER_PHENOME, widths=(25, 50, 100)),
    "curve": np.array([[1.0, np.nan], [0.5, 0.25]]),
    "nested": {"z": [1, {"y": None, "x": (np.inf, "s")}], "a": {}},
    3: "int key",
    "failed": False,
}


class TestEntryBytes:
    def _written(self, tmp_path, key, *args, **kwargs):
        cache = EvaluationCache(tmp_path, cache_failures=True)
        assert cache.insert(key, *args, **kwargs)
        return cache, (tmp_path / key[:2] / f"{key}.json").read_text()

    def test_awkward_metadata_matches_the_reference(self, tmp_path):
        meta = {k: v for k, v in AWKWARD_METADATA.items() if k != 3}
        key = "ab" + "1" * 62
        cache, text = self._written(
            tmp_path, key, np.array([1.5, 2.25]), meta
        )
        assert text == ref.entry_text(key, np.array([1.5, 2.25]), meta)
        json.loads(text, parse_constant=pytest.fail)  # strict JSON
        # what the index serves is what a fresh reader parses
        served = cache.lookup(key)
        reread = EvaluationCache(tmp_path).lookup(key)
        assert served.metadata == reread.metadata
        assert served.fitness == reread.fitness == [1.5, 2.25]

    def test_int_keys_failures_and_scalars(self, tmp_path):
        cases = [
            ("cd" + "2" * 62, 3.0, {7: "x", 10: "y"}, False, None),
            ("ef" + "3" * 62, [9.2e18, 9.2e18], {"failed": True}, True,
             "TrainingDivergedError: boom"),
            ("0a" + "4" * 62, (np.float32(0.5), 1), None, False, None),
        ]  # fmt: skip
        for key, fitness, meta, failed, error in cases:
            _, text = self._written(
                tmp_path, key, fitness, meta, failed=failed, error=error
            )
            assert text == ref.entry_text(key, fitness, meta, failed, error)

    @settings(max_examples=100, deadline=None)
    @given(
        metadata=st.dictionaries(st.text(max_size=5), documents, max_size=4)
    )
    def test_any_metadata_matches_the_reference(self, metadata):
        import tempfile

        key = "aa" + "5" * 62
        with tempfile.TemporaryDirectory() as tmp:
            _, text = self._written(Path(tmp), key, [1.0], metadata)
        assert text == ref.entry_text(key, [1.0], metadata)

    def test_what_json_cannot_say_is_still_refused(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        with pytest.raises(TypeError):
            cache.insert("ab" + "6" * 62, [1.0], {"obj": Opaque()})
        with pytest.raises(ValueError):
            cache.insert("ab" + "7" * 62, [float("nan")], {})
        assert cache.stats()["inserts"] == 0
        assert not list(tmp_path.rglob("*.json"))
        assert not list(tmp_path.rglob("*.tmp"))


def _individual(genome, fitness, metadata):
    ind = RobustIndividual(np.asarray(genome, dtype=float))
    ind.fitness = None if fitness is None else np.asarray(fitness, float)
    ind.metadata = metadata
    return ind


class TestJournalBytes:
    def _lines(self, tmp_path, write):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path, problem_spec={"backend": "x"}) as journal:
            write(journal)
        return path.read_text().splitlines()

    def _record(self):
        members = [
            _individual([1e-3, 7.0], [0.5, 0.25], dict(AWKWARD_METADATA)),
            _individual([2.0, 3.0], None, {"obj": Opaque(), "t": (1, 2)}),
            _individual([np.nan, 1.0], [np.inf, 1.0], {}),
        ]
        return GenerationRecord(
            generation=2,
            population=members[:2],
            evaluated=members,
            std=np.array([0.1, np.nan]),
            n_failures=1,
        )

    def test_generation_line_matches_the_reference(self, tmp_path):
        record = self._record()
        rng_state = np.random.default_rng(3).bit_generator.state
        driver_state = {
            "velocities": [[0.5, float("inf")]],
            "note": Opaque(),
            4: np.arange(3),
        }

        def write(journal):
            journal.begin_run(0, 17)
            journal.append_generation(
                record, rng_state=rng_state, driver_state=driver_state
            )

        lines = self._lines(tmp_path, write)
        assert lines[1] == ref.journal_line(
            ref.generation_doc(0, record, rng_state, driver_state)
        )
        doc = json.loads(lines[1], parse_constant=pytest.fail)
        assert doc["evaluated"]["genomes"][2] == [None, 1.0]
        assert doc["evaluated"]["fitness"][2] == [None, 1.0]
        assert doc["std"] == [0.1, None]
        assert doc["population"]["metadata"][1]["obj"] == "<opaque>"

    def test_clean_generation_line_matches_the_reference(self, tmp_path):
        # the common case never leaves the fast encoder
        members = [
            _individual([1e-3, 7.0 + i], [0.5, 0.25 * i],
                        {"phenome": dict(PAPER_PHENOME), "failed": False})
            for i in range(4)
        ]  # fmt: skip
        record = GenerationRecord(
            generation=0, population=members[:2], evaluated=members,
            std=np.array([0.1, 0.2]), n_failures=0,
        )  # fmt: skip

        def write(journal):
            journal.begin_run(3, 1)
            journal.append_generation(record)

        lines = self._lines(tmp_path, write)
        assert lines[1] == ref.journal_line(ref.generation_doc(3, record))

    def test_evaluation_and_marker_lines(self, tmp_path):
        individual = _individual(
            [0.5, np.inf], [1.0, 2.0], dict(AWKWARD_METADATA)
        )
        odd_uuid = _individual([1.0], [1.0], {})
        odd_uuid.uuid = Opaque()

        def write(journal):
            journal.begin_run(1, 5)
            journal.append_evaluation(individual)
            journal.append_evaluation(odd_uuid)
            journal.end_run(1)

        lines = self._lines(tmp_path, write)
        assert lines[0] == '{"type": "run_begin", "run": 1, "seed": 5}'
        assert lines[1] == ref.journal_line(ref.evaluation_doc(1, individual))
        assert lines[2] == ref.journal_line(ref.evaluation_doc(1, odd_uuid))
        assert lines[3] == '{"type": "run_end", "run": 1}'

    @settings(max_examples=150, deadline=None)
    @given(
        metadata=st.dictionaries(
            st.text(max_size=5),
            st.recursive(
                st.one_of(
                    scalars,
                    st.floats(),  # NaN and the infinities too
                    st.builds(Opaque),
                    st.floats(width=32).map(np.float32),
                ),
                _nest,
                max_leaves=10,
            ),
            max_size=4,
        )
    )
    def test_any_metadata_line_matches_the_reference(self, metadata):
        import tempfile

        individual = _individual([1.0, 2.0], [0.5], metadata)
        with tempfile.TemporaryDirectory() as tmp:
            lines = self._lines(
                Path(tmp),
                lambda journal: (
                    journal.begin_run(0, 1),
                    journal.append_evaluation(individual),
                ),
            )
        assert lines[1] == ref.journal_line(ref.evaluation_doc(0, individual))

    def test_keys_the_encoder_spells_otherwise_are_walked(self, tmp_path):
        metadata = {
            "flags": {True: "on", False: "off"},
            "none": {None: 1.5},
            "clash": {1: "int", "1": "str"},
            "deep": [{"ok": {True: [1]}}],
        }
        individual = _individual([1.0], [0.5], metadata)

        def write(journal):
            journal.begin_run(0, 1)
            journal.append_evaluation(individual)

        lines = self._lines(tmp_path, write)
        assert lines[1] == ref.journal_line(ref.evaluation_doc(0, individual))
        doc = json.loads(lines[1])["metadata"]
        assert doc["flags"] == {"True": "on", "False": "off"}
        assert doc["none"] == {"None": 1.5}
        assert doc["clash"] == {"1": "str"}

    @settings(max_examples=100, deadline=None)
    @given(
        members=st.lists(
            st.tuples(
                st.lists(st.floats(), min_size=1, max_size=3),
                st.one_of(
                    st.none(), st.lists(st.floats(), min_size=1, max_size=3)
                ),
                st.dictionaries(
                    st.text(max_size=5),
                    st.recursive(
                        st.one_of(scalars, st.floats(), st.builds(Opaque)),
                        _nest,
                        max_leaves=8,
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        velocities=st.lists(
            st.lists(st.floats(), min_size=1, max_size=3), max_size=3
        ),
    )
    def test_any_generation_line_matches_the_reference(
        self, members, velocities
    ):
        """Groups and a PSO-style ``driver_state`` (velocities plus a
        personal-best group built by the journal's own group encoder)."""
        import tempfile

        from repro.store.journal import _group_doc

        group = [_individual(*member) for member in members]
        record = GenerationRecord(
            generation=1,
            population=group[:2],
            evaluated=group,
            std=np.array([0.1, 0.2]),
            n_failures=0,
        )
        rng_state = np.random.default_rng(5).bit_generator.state
        pbest = group[::-1]

        def write(journal):
            journal.begin_run(2, 9)
            journal.append_generation(
                record,
                rng_state=rng_state,
                driver_state={
                    "velocities": velocities,
                    "pbest": _group_doc(pbest),
                },
            )

        with tempfile.TemporaryDirectory() as tmp:
            lines = self._lines(Path(tmp), write)
        expected = ref.generation_doc(
            2,
            record,
            rng_state,
            {"velocities": velocities, "pbest": ref.group_doc(pbest)},
        )
        assert lines[1] == ref.journal_line(expected)

    def test_campaign_begin_line(self, tmp_path):
        spec = {"backend": "real", "frames": np.int64(8), "tag": Opaque()}
        path = tmp_path / "journal.jsonl"
        config = CampaignConfig(n_runs=1, pop_size=4, generations=1)
        with CampaignJournal(path, problem_spec=spec) as journal:
            journal.begin_campaign(config)
        doc = json.loads(path.read_text())
        import dataclasses

        expected = json.loads(
            ref.journal_line(
                {
                    "type": "campaign_begin",
                    "schema_version": 1,
                    "ts": doc["ts"],
                    "config": dataclasses.asdict(config),
                    "problem_spec": spec,
                }
            )
        )
        assert doc == expected
        assert list(doc) == list(expected)


# ----------------------------------------------------------------------
# (d): what the parent commit left on disk
# ----------------------------------------------------------------------
def _front_doc(result):
    return sorted(
        [
            np.asarray(ind.genome, dtype=np.float64).tobytes().hex(),
            np.asarray(ind.fitness, dtype=np.float64).tobytes().hex(),
        ]
        for ind in result.aggregate_pareto_front()
    )


#: what differs between two runs of the same campaign: wall-clock
#: stamps and UUIDs
VOLATILE = ("ts", "uuid", "uuids", "dedup_of")


def _scrub(value, drop=VOLATILE):
    if isinstance(value, dict):
        return {
            k: _scrub(v, drop) for k, v in value.items() if k not in drop
        }
    if isinstance(value, list):
        return [_scrub(v, drop) for v in value]
    return value


def _records(path, drop=VOLATILE):
    return [
        _scrub(json.loads(line), drop)
        for line in Path(path).read_text().splitlines()
    ]


def _fixture_records(drop=VOLATILE):
    """The fixture's journal as this version writes it: the parent's
    ``campaign_begin`` config also carried the since-retired fields."""
    docs = _records(journal_path(FIXTURE), drop)
    docs[0]["config"] = {
        k: v
        for k, v in docs[0]["config"].items()
        if k not in RETIRED_CONFIG_FIELDS
    }
    return docs


def _tree_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(Path(directory).glob("??/*.json")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestParentWrittenFixture:
    @pytest.fixture
    def expected(self):
        return json.loads((FIXTURE / "expected.json").read_text())

    def _campaign(self, directory, cache, expected):
        journal = CampaignJournal(
            journal_path(directory), problem_spec={"backend": "surrogate"}
        )
        try:
            return Campaign(
                lambda seed: CachedProblem(
                    SurrogateDeepMDProblem(seed=seed), cache
                ),
                CampaignConfig(**expected["config"]),
                journal=journal,
            ).run()
        finally:
            journal.close()

    def test_served_with_every_lookup_a_hit(self, tmp_path, expected):
        shutil.copytree(FIXTURE / "cache", tmp_path / "cache")
        cache = EvaluationCache(tmp_path / "cache", cache_failures=True)
        result = self._campaign(tmp_path, cache, expected)
        stats = cache.stats()
        assert stats == {
            "hits": expected["stats"]["misses"],
            "misses": 0,
            "corrupt": 0,
            "inserts": 0,
            "skipped_failures": 0,
        }
        assert _front_doc(result) == expected["front"]
        # the memoized failures replayed, flags and all
        assert sum(result.failures_by_generation()) == 3
        # and its journal is the cold one's, but for the provenance: a
        # hit is flagged, and a replayed failure's ``error`` names the
        # replay (``CachedFailure: ...``), its ``failure_cause`` the cause
        served = VOLATILE + ("cache_hit", "error")
        assert _records(journal_path(tmp_path), served) == _fixture_records(
            served
        )

    def test_rewritten_from_scratch_byte_for_byte(self, tmp_path, expected):
        cache = EvaluationCache(tmp_path / "cache", cache_failures=True)
        self._campaign(tmp_path, cache, expected)
        assert cache.stats() == expected["stats"]
        assert sorted(
            p.name for p in (tmp_path / "cache").glob("??/*.json")
        ) == sorted(p.name for p in (FIXTURE / "cache").glob("??/*.json"))
        assert _tree_digest(tmp_path / "cache") == _tree_digest(
            FIXTURE / "cache"
        )
        # the journal too, key order included
        ours, theirs = (
            [json.dumps(doc) for doc in docs]
            for docs in (_records(journal_path(tmp_path)), _fixture_records())
        )
        assert ours == theirs

    @pytest.mark.parametrize("fraction", [0.3, 0.45, 0.8])
    def test_resumes_bit_identically(self, tmp_path, expected, fraction):
        shutil.copytree(FIXTURE / "cache", tmp_path / "cache")
        data = journal_path(FIXTURE).read_bytes()
        journal_path(tmp_path).write_bytes(data[: int(len(data) * fraction)])
        cache = EvaluationCache(tmp_path / "cache", cache_failures=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the torn tail
            resumed = resume_campaign(tmp_path, cache=cache)
        assert _front_doc(resumed) == expected["front"]
        stats = cache.stats()
        assert stats["misses"] == stats["corrupt"] == stats["inserts"] == 0
        # every generation the resumed journal holds is the one the
        # uninterrupted campaign committed
        whole = read_journal(journal_path(FIXTURE))
        again = read_journal(journal_path(tmp_path))
        assert again.campaign_complete and again.n_torn == 0
        served = VOLATILE + ("cache_hit", "error")
        for run, state in whole.runs.items():
            assert _scrub(again.runs[run].generations, served) == _scrub(
                state.generations, served
            )


# ----------------------------------------------------------------------
# the probe: validated, uncounted, one read
# ----------------------------------------------------------------------
class CountingProblem(Problem):
    n_objectives = 2

    def __init__(self):
        self.calls = 0

    def evaluate_with_metadata(self, phenome, uuid=None):
        self.calls += 1
        x = float(np.sum(phenome))
        return np.array([x, 2.0 * x]), {"calls": self.calls}


class BoomProblem(Problem):
    n_objectives = 2

    def __init__(self):
        self.calls = 0

    def evaluate_with_metadata(self, phenome, uuid=None):
        self.calls += 1
        raise EvaluationError("deterministic boom")


class Wrapper:
    """A problem wrapper that delegates everything it lacks."""

    def __init__(self, problem):
        self.problem = problem
        self.n_objectives = problem.n_objectives

    def __getattr__(self, name):
        return getattr(self.__dict__["problem"], name)


class RecordingBackend(InlineBackend):
    def __init__(self):
        super().__init__()
        self.submitted = []
        self.cache_hits = 0

    def submit_batch(self, individuals):
        self.submitted.extend(individuals)
        return super().submit_batch(individuals)

    def on_cache_hit(self, individual):
        self.cache_hits += 1


def _entry_path(cache, key):
    return Path(cache.directory) / key[:2] / f"{key}.json"


DAMAGE = {
    "torn": lambda text: text[:20],
    "garbage": lambda text: "not json at all {",
    "binary": lambda text: b"\xff\xfe\x00\x80garbage",
    "foreign-version": lambda text: text.replace(
        '"version": 1', '"version": 99'
    ),
    "misaddressed": lambda text: text.replace('"key": "', '"key": "0'),
    "empty": lambda text: "",
}


class TestProbe:
    def test_contains_counts_nothing_and_primes_the_index(self, tmp_path):
        writer = EvaluationCache(tmp_path)
        key = "ab" + "0" * 62
        writer.insert(key, [1.0, 2.0], {"note": "hi"})
        reader = EvaluationCache(tmp_path)
        assert reader.contains(key)
        assert not reader.contains("cd" + "0" * 62)
        assert not any(reader.stats().values())
        # the counted lookup that follows needs no file
        _entry_path(reader, key).unlink()
        entry = reader.lookup(key)
        assert entry.fitness == [1.0, 2.0]
        assert entry.metadata == {"note": "hi"}
        assert reader.stats()["hits"] == 1 and reader.stats()["misses"] == 0

    def test_a_hit_reads_its_file_once(self, tmp_path, monkeypatch):
        cache = EvaluationCache(tmp_path)
        problem = CachedProblem(CountingProblem(), cache)
        evaluate_individual(RobustIndividual([1.0, 2.0], problem=problem))
        warm_problem = CachedProblem(
            CountingProblem(), EvaluationCache(tmp_path)
        )
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        engine = EvaluationEngine()
        (out,) = engine.evaluate(
            [RobustIndividual([1.0, 2.0], problem=warm_problem)]
        )
        monkeypatch.undo()
        assert out.metadata["cache_hit"] is True
        assert len([p for p in opened if p.endswith(".json")]) == 1
        assert warm_problem.cache.stats()["hits"] == 1
        assert warm_problem.problem.calls == 0

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_contains_agrees_with_lookup_on_damaged_files(
        self, tmp_path, damage
    ):
        cache = EvaluationCache(tmp_path)
        key = "ab" + "9" * 62
        cache.insert(key, [3.0], {"m": 1})
        path = _entry_path(cache, key)
        damaged = DAMAGE[damage](path.read_text())
        if isinstance(damaged, bytes):
            path.write_bytes(damaged)
        else:
            path.write_text(damaged)
        fresh = EvaluationCache(tmp_path)
        assert not fresh.contains(key)
        assert not any(fresh.stats().values())
        assert fresh.lookup(key) is None
        assert fresh.stats()["corrupt"] == 1
        assert fresh.stats()["misses"] == 1

    def test_torn_entry_is_dispatched_by_the_engine(self, tmp_path):
        """A torn file used to pass the ``exists()`` probe: the engine
        booked a cache hit and the training ran inline in the driver
        process, with no worker, timeout or requeue around it."""
        cache = EvaluationCache(tmp_path)
        inner = CountingProblem()
        problem = CachedProblem(inner, cache)
        genome = [1.0, 2.0]
        evaluate_individual(RobustIndividual(genome, problem=problem))
        key = problem.cache_key(np.asarray(genome))
        path = _entry_path(cache, key)
        path.write_text(path.read_text()[:20])

        warm_cache = EvaluationCache(tmp_path)
        warm_problem = CachedProblem(inner, warm_cache)
        backend = RecordingBackend()
        engine = EvaluationEngine(client=backend)
        candidate = RobustIndividual(genome, problem=warm_problem)
        assert serve_from_cache(candidate) is None
        engine.evaluate([candidate])
        assert backend.submitted == [candidate]
        assert backend.cache_hits == 0
        assert engine.stats.fresh == 1 and engine.stats.cache_hits == 0
        assert inner.calls == 2
        assert warm_cache.stats() == {
            "hits": 0,
            "misses": 1,
            "corrupt": 1,
            "inserts": 1,
            "skipped_failures": 0,
        }
        # repaired: the next candidate is a plain hit again
        again = RobustIndividual(genome, problem=warm_problem)
        engine.evaluate([again])
        assert backend.submitted == [candidate]
        assert engine.stats.cache_hits == 1
        assert json.loads(path.read_text())["key"] == key

    def test_memoized_failure_replays_without_the_backend(self, tmp_path):
        cache = EvaluationCache(tmp_path, cache_failures=True)
        inner = BoomProblem()
        problem = CachedProblem(inner, cache)
        first = RobustIndividual([1.0, 2.0], problem=problem)
        EvaluationEngine().evaluate([first])
        assert inner.calls == 1 and cache.stats()["inserts"] == 1

        warm_problem = CachedProblem(
            inner, EvaluationCache(tmp_path, cache_failures=True)
        )
        with pytest.raises(CachedFailure):
            warm_problem.evaluate_with_metadata(np.array([1.0, 2.0]))
        backend = RecordingBackend()
        engine = EvaluationEngine(client=backend)
        replay = RobustIndividual([1.0, 2.0], problem=warm_problem)
        engine.evaluate([replay])
        assert backend.submitted == [] and backend.cache_hits == 1
        assert inner.calls == 1
        assert engine.stats.cache_hits == 1 and engine.stats.fresh == 0
        assert engine.stats.failures == 1
        assert replay.metadata["failed"] is True
        assert replay.metadata["cache_hit"] is True
        assert replay.metadata["error"].startswith("CachedFailure")
        assert not replay.is_viable

    def test_wrappers_that_delegate_are_probed_too(self, tmp_path):
        problem = CachedProblem(CountingProblem(), EvaluationCache(tmp_path))
        wrapped = Wrapper(problem)
        candidate = RobustIndividual([1.0, 2.0], problem=wrapped)
        assert serve_from_cache(candidate) is None
        evaluate_individual(candidate)
        fitness, metadata = serve_from_cache(
            RobustIndividual([1.0, 2.0], problem=wrapped)
        )
        assert fitness.tobytes() == candidate.fitness.tobytes()
        assert metadata == {**candidate.metadata, "cache_hit": True}
        # no cache, no decoder output to hash, nothing to probe
        assert (
            serve_from_cache(RobustIndividual([1.0], problem=CountingProblem()))
            is None
        )
        assert serve_from_cache(object()) is None
        # a problem with no cache behind it serves nothing either
        orphan = CachedProblem(CountingProblem(), cache=None)
        assert serve_from_cache(RobustIndividual([1.0], problem=orphan)) is None


# ----------------------------------------------------------------------
# a served hit: one decode, one key, no re-entry, the same landing
# ----------------------------------------------------------------------
class ReentryEngine(EvaluationEngine):
    """The engine as it served a hit before its probe answered: probe
    the cache, then re-enter the problem for the memoized entry."""

    def _cache_probe(self, individual):
        problem = getattr(individual, "problem", None)
        try:
            key = problem.cache_key(individual.decode())
            if not problem.cache.contains(key):
                return False
        except Exception:  # noqa: BLE001
            return False
        try:
            evaluate_individual(individual)
        except Exception as exc:  # noqa: BLE001
            apply_failure(individual, exc)
        self.backend.on_cache_hit(individual)
        return True


class CountingDecoder:
    def __init__(self):
        self.calls = 0

    def decode(self, genome):
        self.calls += 1
        return {"x": float(genome[0]), "y": float(genome[1])}


class ValueProblem(Problem):
    n_objectives = 2

    def __init__(self):
        self.calls = 0

    def evaluate_with_metadata(self, phenome, uuid=None):
        self.calls += 1
        x = float(phenome["x"]) + float(phenome["y"])
        if x > 10.0:
            raise EvaluationError(f"deterministic failure at {x}")
        return np.array([x, 2.0 * x]), {"calls": self.calls, "x": x}


GENOMES = [[1.0, 2.0], [3.0, 4.0], [8.0, 9.0], [0.5, 0.25]]


class TestServedHit:
    def _warm(self, tmp_path, torn=False):
        """A cache with every genome of ``GENOMES`` in it (the one
        failure memoized), and ``torn`` the second one damaged."""
        cache = EvaluationCache(tmp_path / "cold", cache_failures=True)
        problem = CachedProblem(ValueProblem(), cache)
        decoder = CountingDecoder()
        EvaluationEngine().evaluate(
            [
                RobustIndividual(g, decoder=decoder, problem=problem)
                for g in GENOMES
            ]
        )
        if torn:
            key = problem.cache_key(decoder.decode(GENOMES[1]))
            path = _entry_path(cache, key)
            path.write_text(path.read_text()[:20])
        return tmp_path / "cold"

    def _run(self, engine_cls, directory, individual_cls, wrap):
        cache = EvaluationCache(directory, cache_failures=True)
        problem = CachedProblem(ValueProblem(), cache)
        decoder = CountingDecoder()
        target = Wrapper(problem) if wrap else problem
        individuals = [
            individual_cls(g, decoder=decoder, problem=target)
            for g in GENOMES
        ]
        backend = RecordingBackend()
        engine = engine_cls(client=backend)
        engine.evaluate(individuals)
        stats = engine.stats.as_dict()
        stats.pop("wall_time")
        return {
            "fitness": [ind.fitness.tobytes() for ind in individuals],
            "width": [ind.fitness.shape for ind in individuals],
            "metadata": [ind.metadata for ind in individuals],
            "engine": stats,
            "cache": cache.stats(),
            "backend": (len(backend.submitted), backend.cache_hits),
            "executed": problem.problem.calls,
            "decodes": decoder.calls,
        }

    @pytest.mark.parametrize("wrap", [False, True], ids=["plain", "wrapper"])
    @pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
    @pytest.mark.parametrize(
        "individual_cls", [Individual, RobustIndividual]
    )
    def test_served_equals_reentered(
        self, tmp_path, individual_cls, torn, wrap
    ):
        cold = self._warm(tmp_path, torn=torn)
        copies = {}
        for name in ("served", "reentered"):
            shutil.copytree(cold, tmp_path / name)
            copies[name] = tmp_path / name
        served = self._run(
            EvaluationEngine, copies["served"], individual_cls, wrap
        )
        reentered = self._run(
            ReentryEngine, copies["reentered"], individual_cls, wrap
        )
        decodes = served.pop("decodes"), reentered.pop("decodes")
        assert served == reentered
        # one decode per served hit (the re-entry path made two); a torn
        # entry is decoded at the probe and again by the backend
        hits = 3 if torn else 4
        assert decodes == (4 + (len(GENOMES) - hits), 4 + len(GENOMES))
        assert served["engine"]["cache_hits"] == hits
        assert served["engine"]["failures"] == 1
        assert served["cache"]["hits"] == hits
        assert served["backend"] == (len(GENOMES) - hits, hits)
        # the memoized failure comes back as wide as the problem
        assert served["width"] == [(2,)] * len(GENOMES)
        assert served["metadata"][2]["failed"] is True
        assert served["metadata"][2]["error"].startswith("CachedFailure")

    def test_a_hit_hashes_and_decodes_once_and_never_enters_the_problem(
        self, tmp_path, monkeypatch
    ):
        import repro.store.cache as cache_module

        cold = self._warm(tmp_path)
        hashed = []
        real_key = cache_module.evaluation_key

        def counting_key(phenome, fingerprint):
            hashed.append(phenome)
            return real_key(phenome, fingerprint)

        def no_reentry(self, phenomes, uuids=None):
            raise AssertionError("a served hit re-entered the problem")

        monkeypatch.setattr(cache_module, "evaluation_key", counting_key)
        monkeypatch.setattr(
            CachedProblem, "evaluate_batch_with_metadata", no_reentry
        )
        result = self._run(EvaluationEngine, cold, RobustIndividual, False)
        assert len(hashed) == result["decodes"] == len(GENOMES)
        assert result["engine"]["cache_hits"] == len(GENOMES)
        assert result["executed"] == 0

    def test_three_objective_memoized_failure_is_three_wide(self, tmp_path):
        class ThreeWide(ValueProblem):
            n_objectives = 3

            def evaluate_with_metadata(self, phenome, uuid=None):
                self.calls += 1
                raise EvaluationError("always")

        cache = EvaluationCache(tmp_path, cache_failures=True)
        problem = CachedProblem(ThreeWide(), cache)
        decoder = CountingDecoder()
        parent = RobustIndividual([1.0, 2.0], decoder=decoder, problem=problem)
        parent.n_objectives = 3
        EvaluationEngine().evaluate([parent])
        assert parent.fitness.shape == (3,)
        # an offspring clone, served from the cache by the probe
        child = parent.clone()
        engine = EvaluationEngine()
        engine.evaluate([child])
        assert engine.stats.cache_hits == 1 and engine.stats.failures == 1
        assert child.fitness.shape == (3,)
        assert child.metadata["cache_hit"] is True
        assert problem.problem.calls == 1


# ----------------------------------------------------------------------
# (e): threads, and a shard that disappears
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_eight_threads_on_one_cache(self, tmp_path):
        cache = EvaluationCache(tmp_path, max_index_entries=16)
        keys = [f"{i % 7:02x}" + f"{i:062x}" for i in range(48)]
        errors = []
        barrier = threading.Barrier(8)

        def work(worker):
            try:
                barrier.wait()
                for round_ in range(3):
                    for i, key in enumerate(keys):
                        if (i + worker + round_) % 3 == 0:
                            cache.insert(key, [float(i), 1.0], {"i": i})
                        elif cache.contains(key):
                            entry = cache.lookup(key)
                            # an entry is whole or absent, never torn
                            if entry is not None:
                                assert entry.fitness == [float(i), 1.0]
                                assert entry.metadata == {"i": i}
                        else:
                            cache.lookup(key)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave inside the store's calls
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        stats = cache.stats()
        assert stats["corrupt"] == 0
        assert stats["inserts"] == 8 * 3 * 16
        assert len(cache) == len(keys)
        assert len(cache._index) <= 16
        assert not list(tmp_path.rglob("*.tmp"))
        fresh = EvaluationCache(tmp_path)
        assert all(fresh.contains(key) for key in keys)

    def test_shard_removed_between_two_inserts(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache")
        first, second = "ab" + "1" * 62, "ab" + "2" * 62
        cache.insert(first, [1.0])
        shutil.rmtree(tmp_path / "cache" / "ab")
        assert cache.insert(second, [2.0])
        assert EvaluationCache(tmp_path / "cache").lookup(second).fitness == [
            2.0
        ]
        # the whole directory, even
        shutil.rmtree(tmp_path / "cache")
        assert cache.insert(first, [1.0])
        assert len(cache) == 1

    def test_shard_is_made_once(self, tmp_path, monkeypatch):
        cache = EvaluationCache(tmp_path)
        made = []
        real = os.makedirs

        def counting(path, *args, **kwargs):
            made.append(str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counting)
        for i in range(5):
            cache.insert("ab" + f"{i:062x}", [float(i)])
        assert len(made) == 1


# ----------------------------------------------------------------------
# durability is what it was
# ----------------------------------------------------------------------
class TestDurability:
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = EvaluationCache(tmp_path)
        key = "ab" + "3" * 62

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            cache.insert(key, [1.0], {"m": 1})
        monkeypatch.undo()
        assert not list(tmp_path.rglob("*.tmp"))
        assert not list(tmp_path.rglob("*.json"))
        assert cache.stats()["inserts"] == 0
        assert cache.lookup(key) is None  # and nothing in the index
        assert cache.insert(key, [1.0], {"m": 1})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_entries_go_through_a_temp_file_and_replace(
        self, tmp_path, monkeypatch
    ):
        cache = EvaluationCache(tmp_path)
        moves = []
        real = os.replace

        def recording(src, dst):
            moves.append((os.path.basename(src), os.path.basename(dst)))
            assert json.loads(Path(src).read_text())["key"] == key
            return real(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        key = "ab" + "4" * 62
        cache.insert(key, [1.0])
        (move,) = moves
        assert move[0].startswith(".") and move[0].endswith(".tmp")
        assert move[1] == f"{key}.json"

    def test_one_fsync_per_journal_record(self, tmp_path, monkeypatch):
        synced = []
        real = os.fsync

        def recording(fd):
            synced.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", recording)
        cache = EvaluationCache(tmp_path / "cache")
        journal = CampaignJournal(
            journal_path(tmp_path), problem_spec={"backend": "surrogate"}
        )
        Campaign(
            lambda seed: CachedProblem(
                SurrogateDeepMDProblem(seed=seed), cache
            ),
            CampaignConfig(n_runs=2, pop_size=6, generations=2, base_seed=3),
            journal=journal,
        ).run()
        journal.close()
        state = read_journal(journal_path(tmp_path))
        assert state.n_records == len(synced) == 2 + 2 * (2 + 3)


# ----------------------------------------------------------------------
# observability: per-record commit latencies
# ----------------------------------------------------------------------
def _prometheus_counts(text, name):
    return {
        line.split()[0]: float(line.split()[1])
        for line in text.splitlines()
        if line.startswith(name)
    }


class TestJournalHistograms:
    def test_one_observation_per_record_on_the_registry(self, tmp_path):
        registry = get_registry()
        names = (
            "store_journal_commit_seconds",
            "store_journal_fsync_seconds",
        )
        journal = CampaignJournal(
            journal_path(tmp_path), problem_spec={"backend": "surrogate"}
        )
        before = {n: registry.histogram(n).count for n in names}
        sums = {n: registry.histogram(n).sum for n in names}
        Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed),
            CampaignConfig(n_runs=1, pop_size=6, generations=2, base_seed=3),
            journal=journal,
        ).run()
        journal.close()
        records = read_journal(journal_path(tmp_path)).n_records
        assert records == 2 + 2 + 3
        text = registry.to_prometheus()
        for name in names:
            assert f"# TYPE {name} histogram" in text
            series = _prometheus_counts(text, name)
            assert series[f"{name}_count"] - before[name] == records
            assert series[f'{name}_bucket{{le="+Inf"}}'] == series[
                f"{name}_count"
            ]
            assert registry.histogram(name).sum > sums[name]
        # the fsync is part of the commit
        commit, fsync = (registry.histogram(n).sum - sums[n] for n in names)
        assert 0.0 < fsync < commit


# ----------------------------------------------------------------------
# one knob fewer
# ----------------------------------------------------------------------
def test_deepmd_problem_has_no_private_cache():
    parameters = list(inspect.signature(DeepMDProblem.__init__).parameters)
    assert parameters == ["self", "dataset", "base_dir", "settings"]
    assert not hasattr(DeepMDProblem, "cache_key")
    assert hasattr(DeepMDProblem, "cache_fingerprint")
