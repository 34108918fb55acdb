"""Tenants: who submitted a campaign, and how much fleet they get.

The paper's campaigns had the whole allocation to themselves; a
long-running service shares one worker fleet among many users.  A
:class:`Tenant` carries the three knobs the process pool's queue
enforces (each evaluation is tagged with them; DESIGN.md §9):

* ``weight`` — the share of dispatch opportunities relative to other
  tenants (stride scheduling: a weight-2 tenant is offered workers twice
  as often as a weight-1 tenant when both have work queued);
* ``max_in_flight`` — a hard cap on the tenant's evaluations executing
  on the pool's workers across *all* of its campaigns, so one tenant's
  burst can never occupy the whole fleet;
* ``priority`` — strict precedence class (lower is more urgent): a
  queued priority-0 task always dispatches before a priority-1 task,
  regardless of weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import ServiceError

#: the tenant used when a submission names none
DEFAULT_TENANT_NAME = "default"


@dataclass(frozen=True)
class Tenant:
    """One fleet-sharing identity (frozen: equality is by value, so
    re-registering the same tenant spec is idempotent)."""

    name: str = DEFAULT_TENANT_NAME
    weight: float = 1.0
    max_in_flight: int = 4
    priority: int = 0

    def __post_init__(self) -> None:
        if not str(self.name):
            raise ServiceError("tenant name must be non-empty")
        if not self.weight > 0:
            raise ServiceError(
                f"tenant {self.name!r}: weight must be > 0, "
                f"got {self.weight}"
            )
        if self.max_in_flight < 1:
            raise ServiceError(
                f"tenant {self.name!r}: max_in_flight must be >= 1, "
                f"got {self.max_in_flight}"
            )

    def as_doc(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "weight": float(self.weight),
            "max_in_flight": int(self.max_in_flight),
            "priority": int(self.priority),
        }


def tenant_from_spec(spec: Any) -> Tenant:
    """Build a tenant from the submission JSON.

    Accepts a bare name (``"alice"``), a tenant sub-object
    (``{"name": "alice", "weight": 2}``), or ``None`` (the default
    tenant).  Unknown keys are rejected loudly — a typo'd quota field
    silently granting unlimited fleet would be the worst failure mode.
    """
    if spec is None:
        return Tenant()
    if isinstance(spec, str):
        return Tenant(name=spec)
    if not isinstance(spec, dict):
        raise ServiceError(
            f"tenant spec must be a name or an object, got {type(spec).__name__}"
        )
    known = {"name", "weight", "max_in_flight", "priority"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ServiceError(f"unknown tenant fields: {unknown}")
    try:
        return Tenant(
            name=str(spec.get("name", DEFAULT_TENANT_NAME)),
            weight=float(spec.get("weight", 1.0)),
            max_in_flight=int(spec.get("max_in_flight", 4)),
            priority=int(spec.get("priority", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad tenant spec {spec!r}: {exc}") from exc
