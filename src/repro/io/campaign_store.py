"""Campaign persistence.

Layout: one directory per campaign with ``campaign.json`` (config +
structure + per-individual metadata) and ``arrays.npz`` (genomes,
fitnesses, mutation deviations).  Individuals are restored as plain
:class:`~repro.evo.individual.RobustIndividual` objects without their
problem/decoder (a loaded campaign is for analysis, not resumption of
evolution — re-attaching a problem is a one-liner if needed).
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from repro.evo.algorithm import GenerationRecord
from repro.evo.individual import RobustIndividual
from repro.hpo.campaign import CampaignResult
from repro.store.resume import campaign_config_from_doc

#: bumped when the on-disk layout changes; loaders warn (rather than
#: crash) on documents written by a newer version
SCHEMA_VERSION = 2

#: top-level campaign.json keys this version knows how to read
_KNOWN_KEYS = {"schema_version", "config", "runs"}


def _json_safe(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def save_campaign(result: CampaignResult, directory: str | Path) -> None:
    """Persist a campaign result to ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "config": _json_safe(dataclasses.asdict(result.config)),
        "runs": [],
    }
    for r, run in enumerate(result.runs):
        run_doc = []
        for g, rec in enumerate(run):
            key = f"run{r}_gen{g}"
            # deduplicate: population members also appear in evaluated
            # or earlier generations; store both groups independently
            # for simplicity and robustness
            for group_name, group in (
                ("population", rec.population),
                ("evaluated", rec.evaluated),
            ):
                arrays[f"{key}_{group_name}_genomes"] = np.array(
                    [ind.genome for ind in group]
                )
                arrays[f"{key}_{group_name}_fitness"] = np.array(
                    [ind.fitness for ind in group]
                )
            arrays[f"{key}_std"] = rec.std
            run_doc.append(
                {
                    "generation": rec.generation,
                    "n_failures": rec.n_failures,
                    "population_metadata": [
                        _json_safe(ind.metadata)
                        for ind in rec.population
                    ],
                    "evaluated_metadata": [
                        _json_safe(ind.metadata) for ind in rec.evaluated
                    ],
                    "population_uuids": [
                        ind.uuid for ind in rec.population
                    ],
                    "evaluated_uuids": [
                        ind.uuid for ind in rec.evaluated
                    ],
                }
            )
        doc["runs"].append(run_doc)
    (directory / "campaign.json").write_text(json.dumps(doc))
    np.savez_compressed(directory / "arrays.npz", **arrays)


def _restore_group(
    arrays, doc_rec, key: str, group_name: str
) -> list[RobustIndividual]:
    genomes = arrays[f"{key}_{group_name}_genomes"]
    fitness = arrays[f"{key}_{group_name}_fitness"]
    metadata = doc_rec[f"{group_name}_metadata"]
    uuids = doc_rec[f"{group_name}_uuids"]
    out = []
    for genome, fit, meta, uuid in zip(genomes, fitness, metadata, uuids):
        ind = RobustIndividual(genome)
        ind.fitness = np.asarray(fit)
        ind.metadata = dict(meta)
        ind.uuid = uuid
        out.append(ind)
    return out


def load_campaign(directory: str | Path) -> CampaignResult:
    """Inverse of :func:`save_campaign`.

    Tolerant of documents written by other schema versions: unknown
    top-level and config fields produce a warning and are ignored, so
    an analysis environment running this version can still read
    snapshots written by a newer one.
    """
    directory = Path(directory)
    doc = json.loads((directory / "campaign.json").read_text())
    version = doc.get("schema_version", 1)
    if version > SCHEMA_VERSION:
        warnings.warn(
            f"campaign.json schema_version {version} is newer than "
            f"supported version {SCHEMA_VERSION}; loading best-effort",
            stacklevel=2,
        )
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        warnings.warn(
            "ignoring unknown campaign.json fields: "
            + ", ".join(sorted(unknown)),
            stacklevel=2,
        )
    arrays = np.load(directory / "arrays.npz")
    result = CampaignResult(config=campaign_config_from_doc(doc["config"]))
    for r, run_doc in enumerate(doc["runs"]):
        run: list[GenerationRecord] = []
        for g, rec_doc in enumerate(run_doc):
            key = f"run{r}_gen{g}"
            population = _restore_group(
                arrays, rec_doc, key, "population"
            )
            evaluated = _restore_group(arrays, rec_doc, key, "evaluated")
            run.append(
                GenerationRecord(
                    generation=rec_doc["generation"],
                    population=population,
                    evaluated=evaluated,
                    std=np.asarray(arrays[f"{key}_std"]),
                    n_failures=rec_doc["n_failures"],
                )
            )
        result.runs.append(run)
    return result
