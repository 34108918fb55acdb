"""The store's encoders as they stood at commit ``c9c97e3``, kept as oracles.

``repro.store`` reworked its per-evaluation path for speed under the
contract that no byte changes: cache keys, entry files and journal
lines written before and after are interchangeable.  These are the
implementations the rework replaced, verbatim apart from their names;
``test_store_dataplane.py`` holds the live code to them.  Do not "fix"
or speed these up — an old cache directory is only as readable as this
file is faithful.
"""

import hashlib
import json

import numpy as np

ENTRY_VERSION = 1


# ----------------------------------------------------------------------
# cache: keys and entry files
# ----------------------------------------------------------------------
def canonical(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [canonical(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def canonical_json(value):
    return json.dumps(
        canonical(value), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def evaluation_key(phenome, fingerprint):
    payload = canonical_json({"phenome": phenome, "fingerprint": fingerprint})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def strip_nonjson(value):
    value = canonical(value)

    def walk(v):
        if isinstance(v, float) and not np.isfinite(v):
            return None
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        return v

    return walk(value)


def entry_text(key, fitness, metadata=None, failed=False, error=None):
    """The text ``EvaluationCache.insert`` wrote for these arguments."""
    fitness_list = [
        float(f) for f in np.atleast_1d(np.asarray(fitness, float))
    ]
    doc = {
        "version": ENTRY_VERSION,
        "key": key,
        "fitness": [float(f) for f in fitness_list],
        "metadata": canonical(strip_nonjson(metadata or {})),
        "failed": bool(failed),
        "error": error,
    }
    return json.dumps(doc, allow_nan=False)


# ----------------------------------------------------------------------
# journal: record lines
# ----------------------------------------------------------------------
def json_safe(value):
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return str(value)


def journal_line(doc):
    """The line ``CampaignJournal._append`` wrote for ``doc``."""
    return json.dumps(json_safe(doc), allow_nan=False)


def group_doc(group):
    return {
        "genomes": [[float(g) for g in ind.genome] for ind in group],
        "fitness": [
            None
            if ind.fitness is None
            else [float(f) for f in ind.fitness]
            for ind in group
        ],
        "uuids": [ind.uuid for ind in group],
        "metadata": [json_safe(ind.metadata) for ind in group],
    }


def generation_doc(run, record, rng_state=None, driver_state=None):
    doc = {
        "type": "generation",
        "run": run,
        "generation": int(record.generation),
        "std": [float(s) for s in record.std],
        "n_failures": int(record.n_failures),
        "population": group_doc(record.population),
        "evaluated": group_doc(record.evaluated),
        "rng_state": rng_state,
    }
    if driver_state is not None:
        doc["driver_state"] = driver_state
    return doc


def evaluation_doc(run, individual):
    return {
        "type": "evaluation",
        "run": run,
        "genome": [float(g) for g in individual.genome],
        "fitness": (
            None
            if individual.fitness is None
            else [float(f) for f in individual.fitness]
        ),
        "uuid": individual.uuid,
        "metadata": json_safe(individual.metadata),
    }
