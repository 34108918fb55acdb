"""Config fields an earlier version wrote and this one retired.

``pipeline`` and ``batch_chunk`` chose how evaluations were chunked and
committed, ``sort_algorithm`` which of two sorters that return the same
ranks ran; none changed what a campaign computes.  Every journal,
snapshot and persisted service ``spec.json`` written before they went
still carries them, so such a doc resumes, loads and recovers without a
warning, while a name that was never a field still warns in a journal
and is still refused on submission.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.io import load_campaign, save_campaign
from repro.service import CampaignRegistry, CampaignServer, CampaignService
from repro.service import ServiceClient
from repro.store import (
    CampaignJournal,
    campaign_config_from_doc,
    journal_path,
    resume_campaign,
)

CONFIG = CampaignConfig(n_runs=2, pop_size=6, generations=2, base_seed=11)

#: the retired fields as the earlier version wrote them: its defaults,
#: and a ``--pipeline --batch-chunk 5`` run over the other sorter
PARENT_WROTE = [
    {"sort_algorithm": "rank_ordinal", "pipeline": False, "batch_chunk": None},
    {"sort_algorithm": "fast", "pipeline": True, "batch_chunk": 5},
]


def _as_the_parent_wrote(config, retired):
    """``config`` with the retired fields where the earlier version put
    them: ``sort_algorithm`` after ``anneal_factor``, the other two
    last."""
    out = {}
    for key, value in config.items():
        out[key] = value
        if key == "anneal_factor":
            out["sort_algorithm"] = retired["sort_algorithm"]
    out["pipeline"] = retired["pipeline"]
    out["batch_chunk"] = retired["batch_chunk"]
    return out


def _factory(seed):
    return SurrogateDeepMDProblem(seed=seed)


def _front(result):
    return sorted(
        (
            np.asarray(ind.genome, dtype=np.float64).tobytes(),
            np.asarray(ind.fitness, dtype=np.float64).tobytes(),
        )
        for ind in result.aggregate_pareto_front()
    )


@pytest.mark.parametrize("retired", PARENT_WROTE)
def test_a_journal_that_carries_them_resumes_without_a_warning(
    tmp_path, retired
):
    with CampaignJournal(
        journal_path(tmp_path), problem_spec={"backend": "surrogate"}
    ) as journal:
        whole = Campaign(_factory, CONFIG, journal=journal).run()
    lines = journal_path(tmp_path).read_text().splitlines()
    begin = json.loads(lines[0])
    begin["config"] = _as_the_parent_wrote(begin["config"], retired)
    cut = [json.dumps(begin), *lines[1 : len(lines) * 45 // 100]]
    journal_path(tmp_path).write_text("\n".join(cut) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resumed = resume_campaign(tmp_path)
    assert resumed.config == CONFIG
    assert _front(resumed) == _front(whole)


@pytest.mark.parametrize("retired", PARENT_WROTE)
def test_a_snapshot_that_carries_them_loads_without_a_warning(
    tmp_path, retired
):
    result = Campaign(_factory, CONFIG).run()
    save_campaign(result, tmp_path / "camp")
    path = tmp_path / "camp" / "campaign.json"
    doc = json.loads(path.read_text())
    doc["config"] = _as_the_parent_wrote(doc["config"], retired)
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_campaign(tmp_path / "camp")
    assert loaded.config == CONFIG
    assert _front(loaded) == _front(result)


@pytest.mark.parametrize("retired", PARENT_WROTE)
def test_a_service_spec_that_carries_them_recovers(tmp_path, retired):
    campaign = CampaignRegistry(tmp_path).create(
        {"name": "old", "config": dataclasses.asdict(CONFIG)}
    )
    path = campaign.directory / "spec.json"
    spec = json.loads(path.read_text())
    spec["config"] = _as_the_parent_wrote(spec["config"], retired)
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (twin,) = CampaignRegistry(tmp_path).load_persisted()
    assert twin.id == campaign.id
    assert twin.config == campaign.config == CONFIG


def test_a_name_that_was_never_a_field_still_warns_in_a_journal():
    doc = _as_the_parent_wrote(dataclasses.asdict(CONFIG), PARENT_WROTE[1])
    doc["from_the_future"] = 42
    with pytest.warns(UserWarning, match=r"\['from_the_future'\]"):
        assert campaign_config_from_doc(doc) == CONFIG


def test_a_name_that_was_never_a_field_still_gets_a_400(tmp_path):
    svc = CampaignService(tmp_path)
    server = CampaignServer(svc, port=0).start()
    try:
        client = ServiceClient(server.url, timeout=10)
        config = {**dataclasses.asdict(CONFIG), "pipelined": True}
        with pytest.raises(ServiceError, match="400") as err:
            client.submit({"name": "typo", "config": config})
        assert "pipelined" in str(err.value)
        assert svc.list() == []
    finally:
        server.close()
        svc.shutdown(timeout=30)
