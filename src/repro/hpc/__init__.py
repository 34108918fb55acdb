"""Discrete-event model of a Summit-like allocation.

The paper ran on 100 nodes of Summit (IBM AC922: six V100 GPUs and 42
usable POWER9 cores per node, §2.1.1) inside 12-hour batch jobs, with
each Dask worker owning one node and each fitness evaluation being one
DeePMD training capped at two hours.  This subpackage models that
envelope so that campaign-level questions — does 7 generations × 100
trainings fit a 12-hour job? what do node failures cost with and
without nannies? — can be answered without the machine, under the
scheduling rules the process pool runs (:mod:`repro.engine.policy`).
"""

from repro.hpc.runtime_model import TrainingRuntimeModel
from repro.hpc.cluster import (
    BatchJob,
    ClusterSimulation,
    GenerationTrace,
    SimulationReport,
)

__all__ = [
    "TrainingRuntimeModel",
    "BatchJob",
    "ClusterSimulation",
    "GenerationTrace",
    "SimulationReport",
]
