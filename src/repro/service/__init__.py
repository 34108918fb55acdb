"""Multi-tenant campaign service: many campaigns, one worker fleet.

The paper ran NSGA-II as one-shot HPC campaigns; the service turns the
reproduction into the long-running system the ROADMAP points at — an
HTTP submission API (:class:`CampaignServer` /
:class:`~repro.service.client.ServiceClient`), many tenants' campaigns
over one shared execution backend whose queue orders them by fair
share, a cross-campaign content-addressed
evaluation cache, per-campaign journals with restart-surviving resume,
and per-campaign labeled metrics on the existing ``/metrics`` +
``/status`` plane.

Layers, bottom up:

* :mod:`repro.service.tenancy` — :class:`Tenant`: weight, priority,
  and max-in-flight quota;
* :mod:`repro.service.fair_share` — tenant admission and per-campaign
  lanes, each evaluation handed to the backend tagged for the pool's
  queue;
* :mod:`repro.service.registry` — durable campaign records
  (spec/state/journal per campaign directory);
* :mod:`repro.service.service` — :class:`CampaignService`: one owner
  thread stepping every campaign, shared cache, graceful drain,
  restart recovery;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  HTTP plane (``repro-hpo serve`` / ``submit`` / ``campaigns`` /
  ``cancel`` / ``monitor``).
"""

from repro.service.client import ServiceClient
from repro.service.fair_share import CampaignQueue, FairShareScheduler
from repro.service.registry import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RESUMABLE_STATES,
    RUNNING,
    TERMINAL_STATES,
    CampaignRegistry,
    ManagedCampaign,
)
from repro.service.server import CampaignServer
from repro.service.service import CampaignService
from repro.service.tenancy import Tenant, tenant_from_spec

__all__ = [
    "Tenant",
    "tenant_from_spec",
    "FairShareScheduler",
    "CampaignQueue",
    "CampaignRegistry",
    "ManagedCampaign",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "INTERRUPTED",
    "RESUMABLE_STATES",
    "TERMINAL_STATES",
    "CampaignService",
    "CampaignServer",
    "ServiceClient",
]
