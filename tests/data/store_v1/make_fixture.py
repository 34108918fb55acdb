"""Regenerate this fixture: a small evaluation cache and campaign journal.

The committed files were written by commit ``c9c97e3`` (the parent of the
PR that reworked the store's hot path), so that every later version of
``repro.store`` is held to the bytes an older version left on disk:

    PYTHONPATH=<checkout of c9c97e3>/src python make_fixture.py <this dir>

``cache/`` and ``journal.jsonl`` come from one 2 x (1 + 2) x 8 surrogate
campaign at seed 13 with ``cache_failures=True`` (so a re-run is served with
100 % hits, designed failures included); ``expected.json`` holds the
campaign's aggregate front and the cache statistics of the writing run.
Re-running this script under a newer version must reproduce the same
``cache/`` bytes and the same journal up to ``ts`` and UUIDs —
``tests/test_store_dataplane.py`` checks exactly that.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.store import (
    CachedProblem,
    CampaignJournal,
    EvaluationCache,
    journal_path,
)

CONFIG = dict(n_runs=2, pop_size=8, generations=2, base_seed=13)
PROBLEM_SPEC = {"backend": "surrogate"}


def front_doc(result) -> list[list[str]]:
    """The aggregate Pareto front, bit for bit and order-free."""
    return sorted(
        [
            np.asarray(ind.genome, dtype=np.float64).tobytes().hex(),
            np.asarray(ind.fitness, dtype=np.float64).tobytes().hex(),
        ]
        for ind in result.aggregate_pareto_front()
    )


def run_campaign(directory: Path, cache: EvaluationCache):
    journal = CampaignJournal(
        journal_path(directory), problem_spec=PROBLEM_SPEC
    )
    try:
        return Campaign(
            lambda seed: CachedProblem(
                SurrogateDeepMDProblem(seed=seed), cache
            ),
            CampaignConfig(**CONFIG),
            journal=journal,
        ).run()
    finally:
        journal.close()


def main(directory: str) -> None:
    out = Path(directory)
    for stale in (out / "cache", journal_path(out), out / "expected.json"):
        if stale.is_dir():
            shutil.rmtree(stale)
        elif stale.exists():
            stale.unlink()
    cache = EvaluationCache(out / "cache", cache_failures=True)
    result = run_campaign(out, cache)
    (out / "expected.json").write_text(
        json.dumps(
            {
                "config": CONFIG,
                "n_trainings": result.n_trainings,
                "front": front_doc(result),
                "stats": cache.stats(),
            },
            indent=1,
        )
        + "\n"
    )


if __name__ == "__main__":
    main(sys.argv[1])
