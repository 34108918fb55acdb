"""Self-test of the performance ledger (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Runs every workload at ``--smoke`` size; under a minute in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, SpanRecorder, Target, installed, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_ledger(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the declaration and what the command prints
# ----------------------------------------------------------------------
def test_declaration_matches_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert DECLARED["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert run.parse_args(["--workload", "train_160atom"]).seconds == float(
        DECLARED["run_seconds"]
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]
    ] == layers.PER_LAYER
    assert DECLARED["paths"] == ["benchmarks/ledger"]
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload: str, trace: int):
    result = last_json(
        run_ledger(
            "--workload", workload, "--seed", "5", "--seconds", "0.2",
            "--trace", str(trace), "--smoke",
        )
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["harness.attributed_ratio"]["value"] > 0.9
        assert (ROOT / "bench-reports" / "ledger" / f"{workload}.spans.jsonl").exists()
    # scratch files were inside the checkout and are gone
    assert not list(harness.SCRATCH.glob(f"{workload}-*"))


def test_nothing_to_measure_is_an_error(tmp_path: Path):
    """In a directory with only BENCHMARK.json and the ledger's own
    files the command fails without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_ledger(
        "--workload", "paper_campaign_save", "--smoke",
        cwd=tmp_path, script=bare / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_no_process_outlives_a_run():
    """``stop_children`` ends a worker left behind and the resource
    tracker that ``spawn`` started with it and leaves to die on its own."""
    script = (
        "import multiprocessing, os, sys, time\n"
        "from multiprocessing import resource_tracker\n"
        "import harness\n"
        "worker = multiprocessing.get_context('spawn').Process(\n"
        "    target=time.sleep, args=(60,))\n"
        "worker.start()\n"
        "started = [worker.pid, resource_tracker._resource_tracker._pid]\n"
        "assert None not in started\n"
        "harness.stop_children()\n"
        "sys.exit(any(os.path.exists(f'/proc/{pid}') for pid in started))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True,
        text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    #  root 0..10 | a 1..4 (a1 2..3) | b 5..9 | other thread: c 0..2
    spans = [
        Span("root", "harness", 1, 0, -1, 0.0, 10.0),
        Span("a", "x", 1, 1, 0, 1.0, 4.0),
        Span("a1", "y", 1, 2, 1, 2.0, 3.0),
        Span("b", "x", 1, 3, 0, 5.0, 9.0),
        Span("c", "y", 2, 0, -1, 0.0, 2.0),
    ]
    own = self_times(spans)
    assert [own[id(s)] for s in spans] == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert sum(own[id(s)] for s in spans if s.thread == 1) == 10.0
    # a slice without the root: a and b lose nothing, a1 still nests
    own = self_times(spans[1:])
    assert [own[id(s)] for s in spans[1:]] == [2.0, 1.0, 4.0, 2.0]


def test_wrappers_nest_and_come_off_again():
    import repro.store.cache as cache_module
    from repro.store import evaluation_key

    before = cache_module.evaluation_key
    recorder = SpanRecorder()
    target = Target("repro.store.cache:evaluation_key", "key", "store.cache")
    with installed(recorder, [target], [ROOT / "src" / "repro", HERE]):
        assert cache_module.evaluation_key is not before
        with recorder.span("outer", "harness"):
            cache_module.evaluation_key({"a": 1}, "f")
    assert cache_module.evaluation_key is before is evaluation_key
    outer, key = recorder.all_spans()
    assert (outer.name, outer.parent) == ("outer", -1)
    assert (key.name, key.parent) == ("key", outer.index)
    assert outer.start <= key.start <= key.end <= outer.end


def test_unit_wall_takes_each_segment_at_its_minimum():
    def unit(*marks: float) -> harness.Unit:
        return harness.Unit(work=1, marks=list(marks))

    units = [unit(0, 1, 3), unit(0, 2, 3), unit(0, 3, 5)]
    # segment 1: 1, 2, 3; segment 2: 2, 1, 2 - no single unit was that fast
    assert harness.unit_floor(units) == 2.0
    assert min(u.wall for u in units) == 3.0
    with pytest.raises(ValueError):
        harness.unit_floor([unit(0, 1), unit(0, 1, 2)])


# ----------------------------------------------------------------------
# correctness checks and seeds
# ----------------------------------------------------------------------
@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    harness.pin_threads()
    return tmp_path


def test_a_perturbed_front_trips_the_check(workdir: Path):
    workload = WORKLOADS["paper_campaign_save"](7, workdir, smoke=True)
    workload.setup()
    assert workload.run_unit(0).error is None
    genome, fitness = workload.oracle_front[0]
    flipped = bytes([fitness[0] ^ 1]) + fitness[1:]
    workload.oracle_front[0] = (genome, flipped)
    unit = workload.run_unit(1)
    assert "front differs" in unit.error
    assert unit.work == workload.work  # every operation of it counts as failed


def test_seed_changes_the_inputs_not_the_work(workdir: Path):
    a, b = (
        WORKLOADS["paper_campaign_save"](seed, workdir / str(seed), smoke=True)
        for seed in (1, 2)
    )
    a.setup(), b.setup()
    assert a.oracle_front != b.oracle_front
    assert a.work == b.work
    c, d = (
        WORKLOADS["train_160atom"](seed, workdir / f"t{seed}", smoke=True)
        for seed in (1, 2)
    )
    c.setup(), d.setup()
    assert (c.dataset.train[0].positions != d.dataset.train[0].positions).any()
    assert c.work == d.work


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
