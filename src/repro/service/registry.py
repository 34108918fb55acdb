"""Durable registry of submitted campaigns.

Each campaign owns a directory under ``<root>/campaigns/<id>/``:

* ``spec.json`` — the submission, written once at accept time: tenant,
  campaign config, problem spec, display name.  Enough to re-create
  the campaign from nothing.
* ``state.json`` — the lifecycle record (atomic-replace on every
  transition): ``queued → running → done | failed | cancelled |
  interrupted``.  A server that was SIGKILLed mid-campaign restarts,
  reads these, and knows exactly which campaigns to resume.
* ``journal.jsonl`` — the write-ahead journal the campaign's own
  machinery appends (same format as a solo ``repro-hpo run --save``),
  which is what makes the resume bit-identical.
* ``front.json`` / campaign snapshot files — written at completion.

The registry persists *facts*; all scheduling state is in-memory and
rebuilt on restart.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.exceptions import ServiceError
from repro.hpo.campaign import CampaignConfig
from repro.hpo.objectives import problem_spec_for
from repro.service.tenancy import Tenant, tenant_from_spec
from repro.store.resume import RETIRED_CONFIG_FIELDS

# lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

#: states a restarted server picks back up
RESUMABLE_STATES = frozenset({QUEUED, RUNNING, INTERRUPTED})
#: states with no further transitions
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


def _atomic_write_json(path: Path, doc: dict[str, Any]) -> None:
    tmp = path.parent / f".{uuid.uuid4().hex}.tmp"
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def campaign_config_from_spec(doc: Any) -> CampaignConfig:
    """A :class:`CampaignConfig` from the submission's ``config``
    object; unknown fields are rejected (a typo'd ``generations`` must
    not silently run the 5×100×6 default), retired ones dropped (a
    ``spec.json`` an earlier version persisted still recovers)."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ServiceError(
            f"config must be an object, got {type(doc).__name__}"
        )
    import dataclasses

    known = {f.name for f in dataclasses.fields(CampaignConfig)}
    unknown = sorted(set(doc) - known - RETIRED_CONFIG_FIELDS)
    if unknown:
        raise ServiceError(f"unknown config fields: {unknown}")
    doc = {k: v for k, v in doc.items() if k in known}
    try:
        return CampaignConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad campaign config {doc!r}: {exc}") from exc


@dataclass
class ManagedCampaign:
    """One submitted campaign: identity, spec, and live runtime state."""

    id: str
    name: str
    tenant: Tenant
    config: CampaignConfig
    problem_spec: dict[str, Any]
    directory: Path
    state: str = QUEUED
    error: Optional[str] = None
    submitted_ts: float = 0.0
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    #: set to stop the campaign at its next generation boundary
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: the live CampaignStatus once running (not persisted)
    status: Any = None

    # ------------------------------------------------------------------
    def spec_doc(self) -> dict[str, Any]:
        import dataclasses

        return {
            "id": self.id,
            "name": self.name,
            "tenant": self.tenant.as_doc(),
            "config": dataclasses.asdict(self.config),
            "problem": dict(self.problem_spec),
            "submitted_ts": self.submitted_ts,
        }

    def state_doc(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "error": self.error,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
        }

    def summary(self) -> dict[str, Any]:
        """The ``GET /campaigns`` row."""
        return {
            "id": self.id,
            "name": self.name,
            "tenant": self.tenant.name,
            "state": self.state,
            "error": self.error,
            "mode": self.config.mode,
            "n_runs": self.config.n_runs,
            "pop_size": self.config.pop_size,
            "generations": self.config.generations,
            "base_seed": self.config.base_seed,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
        }

    def detail(self) -> dict[str, Any]:
        """The ``GET /campaigns/{id}`` body: summary + live status."""
        doc = self.summary()
        doc["tenant_spec"] = self.tenant.as_doc()
        doc["problem"] = dict(self.problem_spec)
        status = self.status
        doc["status"] = status.snapshot() if status is not None else {}
        return doc


class CampaignRegistry:
    """Create, persist, and recover :class:`ManagedCampaign` records."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.campaigns_dir = self.root / "campaigns"
        self.campaigns_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._campaigns: dict[str, ManagedCampaign] = {}

    # ------------------------------------------------------------------
    def create(self, spec: Any) -> ManagedCampaign:
        """Validate a submission and persist the new campaign.

        ``spec`` is the ``POST /campaigns`` JSON body::

            {"name": "...", "tenant": {...} | "alice",
             "config": {"n_runs": 1, "pop_size": 8, ...},
             "problem": {"backend": "surrogate"}}
        """
        if not isinstance(spec, dict):
            raise ServiceError(
                f"submission must be an object, got {type(spec).__name__}"
            )
        known = {"name", "tenant", "config", "problem", "id"}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ServiceError(f"unknown submission fields: {unknown}")
        tenant = tenant_from_spec(spec.get("tenant"))
        config = campaign_config_from_spec(spec.get("config"))
        problem_spec = spec.get("problem") or {"backend": "surrogate"}
        if not isinstance(problem_spec, dict):
            raise ServiceError("problem spec must be an object")
        problem_spec = problem_spec_for(problem_spec, config.objectives)
        campaign_id = str(spec.get("id") or uuid.uuid4().hex[:12])
        with self._lock:
            if campaign_id in self._campaigns:
                raise ServiceError(
                    f"campaign id {campaign_id!r} already exists"
                )
        directory = self.campaigns_dir / campaign_id
        if directory.exists():
            raise ServiceError(
                f"campaign directory {directory} already exists"
            )
        directory.mkdir(parents=True)
        campaign = ManagedCampaign(
            id=campaign_id,
            name=str(spec.get("name") or campaign_id),
            tenant=tenant,
            config=config,
            problem_spec=dict(problem_spec),
            directory=directory,
            submitted_ts=time.time(),
        )
        _atomic_write_json(directory / "spec.json", campaign.spec_doc())
        _atomic_write_json(directory / "state.json", campaign.state_doc())
        with self._lock:
            self._campaigns[campaign_id] = campaign
        return campaign

    # ------------------------------------------------------------------
    def set_state(
        self,
        campaign: ManagedCampaign,
        state: str,
        error: Optional[str] = None,
    ) -> None:
        """One lifecycle transition, persisted before it is visible."""
        with self._lock:
            if campaign.state in TERMINAL_STATES:
                return  # cancel/shutdown races: first terminal state wins
            if state == RUNNING and campaign.started_ts is None:
                campaign.started_ts = time.time()
            if state in TERMINAL_STATES or state == INTERRUPTED:
                campaign.finished_ts = time.time()
            campaign.state = state
            campaign.error = error
            _atomic_write_json(
                campaign.directory / "state.json", campaign.state_doc()
            )

    # ------------------------------------------------------------------
    def get(self, campaign_id: str) -> ManagedCampaign:
        with self._lock:
            campaign = self._campaigns.get(str(campaign_id))
        if campaign is None:
            raise ServiceError(f"no campaign {campaign_id!r}")
        return campaign

    def list(self) -> list[ManagedCampaign]:
        with self._lock:
            return sorted(
                self._campaigns.values(), key=lambda c: c.submitted_ts
            )

    # ------------------------------------------------------------------
    def load_persisted(self) -> list[ManagedCampaign]:
        """Rehydrate campaigns from disk (server restart).

        Unreadable directories are skipped, not fatal — one corrupted
        campaign must not take the whole service down.  Already-loaded
        ids are left untouched.
        """
        loaded: list[ManagedCampaign] = []
        for directory in sorted(self.campaigns_dir.iterdir()):
            if not directory.is_dir():
                continue
            with self._lock:
                if directory.name in self._campaigns:
                    continue
            try:
                spec = json.loads((directory / "spec.json").read_text())
                state = json.loads((directory / "state.json").read_text())
                campaign = ManagedCampaign(
                    id=str(spec["id"]),
                    name=str(spec.get("name") or spec["id"]),
                    tenant=tenant_from_spec(spec.get("tenant")),
                    config=campaign_config_from_spec(spec.get("config")),
                    problem_spec=dict(spec.get("problem") or {}),
                    directory=directory,
                    state=str(state.get("state", QUEUED)),
                    error=state.get("error"),
                    submitted_ts=float(spec.get("submitted_ts") or 0.0),
                    started_ts=state.get("started_ts"),
                    finished_ts=state.get("finished_ts"),
                )
            except (OSError, ValueError, KeyError, ServiceError):
                continue
            with self._lock:
                self._campaigns[campaign.id] = campaign
            loaded.append(campaign)
        return loaded
