"""Picklable problems for the process-pool tests.

A pool worker imports the module that defines each class it
unpickles, so these live apart from the test modules: a worker that
rebuilds them imports NumPy and one ``repro`` module, not pytest and
the chaos harness.
"""

import multiprocessing
import os
import shutil
import sys
import tempfile
import time
import weakref

import numpy as np

from repro.evo.individual import Individual


class Echo:
    """Fitness ``(x0 + offset, 2)``: which genome a slot came from is
    readable from its fitness."""

    n_objectives = 2

    def __init__(self, offset: float = 0.0) -> None:
        self.offset = offset

    def evaluate(self, phenome):
        return np.array([phenome[0] + self.offset, 2.0])


class Scratch(Echo):
    """An :class:`Echo` that owns a temporary directory, removed when
    the instance is collected and never by a pickled copy — the way a
    real problem owns its run directories."""

    def __init__(self, offset: float = 0.0) -> None:
        super().__init__(offset)
        self.directory = tempfile.mkdtemp(prefix="repro-pool-test-")
        weakref.finalize(self, shutil.rmtree, self.directory, True)


class Sleepy:
    n_objectives = 2

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def evaluate(self, phenome):
        time.sleep(self.seconds)
        return np.array([1.0, 2.0])


class Picky:
    """Rejects the phenome whose first gene is 1."""

    n_objectives = 2

    def evaluate(self, phenome):
        if phenome[0] == 1.0:
            raise ValueError("bad hyperparameters")
        return np.array([phenome[0], 2.0])


class WorkerHostile(Individual):
    """Builds in the driver, raises when a worker rebuilds it: the
    whole chunk fails inside a live worker."""

    def __init__(self, genome, decoder=None, problem=None) -> None:
        if multiprocessing.parent_process() is not None:
            raise RuntimeError("cannot be rebuilt in a worker")
        super().__init__(genome, decoder=decoder, problem=problem)


class ModuleProbe:
    """Reports what the worker that runs it has imported: whether
    ``scipy`` is loaded, and the ``repro`` modules outside ``known``."""

    n_objectives = 2

    def __init__(self, known=()) -> None:
        self.known = frozenset(known)

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        report = {
            "scipy": "scipy" in sys.modules,
            "beyond": sorted(
                name
                for name in sys.modules
                if name.partition(".")[0] == "repro" and name not in self.known
            ),
        }
        return [(np.zeros(2), report) for _ in phenomes]


class EnvironmentProbe:
    """Reports the worker's view of its process: one environment
    variable, its working directory, its ``sys.path`` and its pid."""

    n_objectives = 2

    def __init__(self, variable: str) -> None:
        self.variable = variable

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        report = {
            "variable": os.environ.get(self.variable),
            "cwd": os.getcwd(),
            "sys_path": list(sys.path),
            "pid": os.getpid(),
        }
        return [(np.zeros(2), report) for _ in phenomes]
