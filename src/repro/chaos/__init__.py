"""Deterministic chaos harness.

Three pieces (see EXPERIMENTS.md "Chaos testing"):

* :class:`FaultPlan` / :class:`Fault` — scripted, seed-deterministic
  schedules of injectable faults;
* :class:`Injector` — executes a plan through the process-wide
  :mod:`repro.injection` hooks;
* :class:`InvariantChecker` — replays a campaign's journal, trace,
  and cache and asserts the system-wide fault-tolerance invariants.
"""

from repro.chaos.injector import InjectedFault, Injector
from repro.chaos.invariants import (
    InvariantChecker,
    InvariantReport,
    Violation,
    verify_resume_equivalence,
)
from repro.chaos.plan import (
    ALL_KINDS,
    RECOVERABLE_KINDS,
    SITES,
    STORE_KINDS,
    Fault,
    FaultPlan,
)

__all__ = [
    "ALL_KINDS",
    "RECOVERABLE_KINDS",
    "SITES",
    "STORE_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "Injector",
    "InvariantChecker",
    "InvariantReport",
    "Violation",
    "verify_resume_equivalence",
]
