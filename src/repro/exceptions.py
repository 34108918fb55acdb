"""Exception hierarchy shared across the package.

The paper's evaluation workflow (§2.2.4) distinguishes several failure
modes — training timeouts, bad hyperparameter combinations, and node
failures — all of which must be caught and converted into ``MAXINT``
fitness values so that NSGA-II's sorting remains well defined.  The
exception types below let each substrate signal its failure mode
precisely while the HPO layer treats them uniformly.
"""

from __future__ import annotations

import numpy as np

#: The failure fitness: large, finite, and totally ordered — unlike NaN.
#: §2.2.4's replacement for LEAP's NaN-on-failure default, hoisted here
#: as the single source of truth for every layer (re-exported from
#: :mod:`repro.evo.individual` for compatibility).
MAXINT: float = float(np.iinfo(np.int64).max)


class ReproError(Exception):
    """Base class for all package-specific errors."""


class EvaluationError(ReproError):
    """A fitness evaluation failed for any reason.

    Mirrors the situations in §2.2.4 where "the unique combination of
    hyperparameter values will cause training to fail".
    """


class TrainingTimeoutError(EvaluationError):
    """Training exceeded its wall-clock budget (the paper's 2-hour cap)."""

    def __init__(self, elapsed: float, limit: float) -> None:
        super().__init__(
            f"training exceeded time limit: {elapsed:.1f}s > {limit:.1f}s"
        )
        self.elapsed = elapsed
        self.limit = limit

    def __reduce__(self):
        # rebuild from the constructor's own arguments (the default
        # replays ``args``, the formatted message), keeping attributes
        # attached later such as ``metadata``
        return type(self), (self.elapsed, self.limit), self.__dict__


class TrainingDivergedError(EvaluationError):
    """Training produced non-finite losses (a fatal hyperparameter combo)."""


class InjectedFaultError(EvaluationError):
    """A transient evaluator crash simulated by the chaos harness.

    Subclasses :class:`EvaluationError` so the engine applies the same
    exception→MAXINT policy it applies to real evaluator failures.
    """


class ConfigurationError(ReproError):
    """An input configuration is invalid (bad input.json, bad bounds, ...)."""


class WorkerFailure(ReproError):
    """A distributed worker died while running a task (hardware fault)."""

    def __init__(self, worker: str, message: str = "") -> None:
        super().__init__(f"worker {worker} failed" + (f": {message}" if message else ""))
        self.worker = worker
        self.message = message

    def __reduce__(self):
        # as TrainingTimeoutError: the pool ships these across a pipe
        return type(self), (self.worker, self.message), self.__dict__


class WorkerRevoked(WorkerFailure):
    """A worker was preempted (spot-style revocation) mid-task.

    Subclasses :class:`WorkerFailure` so a pool that has lost its
    last worker degrades to the same crash→``MAXINT`` policy; a pool
    with the fleet policy's last resort runs the task in-process
    instead and never raises it.
    """


class SchedulerError(ReproError):
    """The distributed scheduler cannot make progress."""


class WalltimeExceeded(ReproError):
    """A batch job hit its allocation walltime (the paper's 12-hour jobs)."""


class DecodeError(ReproError):
    """A genome could not be decoded into a phenome."""


class StoreError(ReproError):
    """Durable campaign state is unusable (missing or unreadable
    journal, irrecoverable resume preconditions)."""


class ServiceError(ReproError):
    """The multi-tenant campaign service cannot honor a request
    (bad submission, unknown campaign, server-side failure)."""


class CampaignCancelled(ServiceError):
    """A tenant cancelled this campaign; it stops at the next
    generation boundary (everything journaled so far stays valid)."""


class ServiceShutdown(ServiceError):
    """The service is draining for shutdown; running campaigns stop at
    their next generation boundary and are marked resumable."""
