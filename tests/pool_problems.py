"""Picklable problems for the process-pool tests.

A spawn-started worker imports the module that defines each class it
unpickles, so these live apart from the test modules: a worker that
rebuilds them imports NumPy and one ``repro`` module, not pytest and
the chaos harness.
"""

import multiprocessing
import time

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
