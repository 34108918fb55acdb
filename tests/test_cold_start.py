"""Start-up pays only for what runs.

Three checks:

* the entry points import neither ``scipy`` (only the reference force
  field's ``erfc`` needs it) nor ``http.server`` (only an HTTP
  endpoint does);
* a pool worker, after a real evaluation and a surrogate batch, has
  imported no ``repro`` module its forkserver did not preload
  (:data:`repro.engine.pool.WORKER_PRELOAD`), and no ``scipy``;
* a process that builds a pool leaves nothing behind: its workers, its
  forkserver and its resource tracker are gone soon after it exits,
  and its workers saw its environment, working directory and
  ``sys.path``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.engine import ProcessPoolBackend
from repro.engine.pool import WORKER_PRELOAD
from repro.evo.individual import Individual
from repro.hpo.evaluator import DeepMDProblem, EvaluatorSettings
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation
from repro.obs.metrics import MetricsRegistry
from repro.store import CachedProblem, EvaluationCache
from tests.pool_problems import ModuleProbe

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent


def _fresh(code: str, **kwargs) -> str:
    """stdout of ``code`` run by a fresh interpreter that finds
    ``repro`` and ``tests``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        **kwargs,
    ).stdout


def test_entry_points_load_neither_scipy_nor_http_server():
    loaded = json.loads(
        _fresh(
            "import json, sys\n"
            "import repro.engine.pool, repro.hpo.cli, repro.hpo.evaluator\n"
            "import repro.hpo.landscape\n"
            "print(json.dumps([m for m in ('scipy', 'http.server')"
            " if m in sys.modules]))"
        )
    )
    assert loaded == []


def test_a_worker_imports_nothing_beyond_the_preload(small_dataset, tmp_path):
    preloaded = json.loads(
        _fresh(
            "import json, sys\n"
            f"for name in {list(WORKER_PRELOAD)!r}: __import__(name)\n"
            "print(json.dumps(sorted(sys.modules)))"
        )
    )
    decoder = DeepMDRepresentation.decoder()
    genome = DeepMDRepresentation.init_ranges.mean(axis=1)
    real = CachedProblem(
        DeepMDProblem(
            small_dataset,
            base_dir=tmp_path / "runs",
            settings=EvaluatorSettings(numb_steps=8, disp_freq=8),
        ),
        EvaluationCache(tmp_path / "cache"),
    )
    surrogate = SurrogateDeepMDProblem(seed=0)
    with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
        (fitness, _), = pool.submit_batch(
            [Individual(genome, decoder=decoder, problem=real)]
        ).result(120)
        assert np.all(np.isfinite(fitness))
        slots = pool.submit_batch(
            [
                Individual(genome * scale, decoder=decoder, problem=surrogate)
                for scale in (0.9, 1.0, 1.1)
            ]
        ).result(120)
        assert len(slots) == 3
        (_, report), = pool.submit_batch(
            [Individual(np.zeros(2), problem=ModuleProbe(preloaded))]
        ).result(120)
    assert report == {"scipy": False, "beyond": []}


def _alive(pid: int) -> bool:
    """``pid`` runs (a zombie, waiting to be reaped, does not)."""
    if Path("/proc").is_dir():
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            return False
        return stat.rsplit(")", 1)[1].split()[0] not in "ZX"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


CHILD = """
import json, os, sys
import numpy as np
os.environ["POOL_PROBE_VARIABLE"] = "set before the pool"
sys.path.append({extra!r})
from multiprocessing import forkserver, resource_tracker
from repro.engine import ProcessPoolBackend
from repro.evo.individual import Individual
from tests.pool_problems import EnvironmentProbe

with ProcessPoolBackend(workers=2) as pool:
    (_, report), = pool.submit_batch(
        [Individual(np.zeros(2), problem=EnvironmentProbe("POOL_PROBE_VARIABLE"))]
    ).result(60)
    workers = [handle.process.pid for handle in pool._workers.values()]
print(json.dumps({{
    "report": report,
    "cwd": os.getcwd(),
    "sys_path": sys.path,
    "workers": workers,
    "server": forkserver._forkserver._forkserver_pid,
    "tracker": resource_tracker._resource_tracker._pid,
}}))
"""


def test_workers_see_the_parent_and_nothing_outlives_it(tmp_path):
    extra = str(tmp_path / "an-entry-added-in-process")
    seen = json.loads(_fresh(CHILD.format(extra=extra), cwd=tmp_path))
    report = seen["report"]
    assert report["variable"] == "set before the pool"
    assert report["cwd"] == seen["cwd"] == str(tmp_path)
    # as with spawn, the entry '' (the working directory) comes resolved
    assert report["sys_path"] == [p or seen["cwd"] for p in seen["sys_path"]]
    assert extra in report["sys_path"]
    assert report["pid"] in seen["workers"]
    assert seen["server"] is not None  # the workers came from a forkserver
    pids = seen["workers"] + [seen["server"], seen["tracker"]]
    deadline = time.monotonic() + 2.0
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if _alive(pid)] == []
