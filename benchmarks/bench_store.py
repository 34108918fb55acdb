"""Experiment ``perf-store`` — durable-state overhead: the cache and
journal must be cheap.

One paper-scale training is ~2 GPU-hours, so the per-evaluation costs
here have astronomical headroom — but the store also sits on the
surrogate path used by every other bench, where evaluations take
microseconds, and on every resubmission and resume, where it *is* the
campaign.  Four measures:

* warm-path cost of a bare ``lookup`` (index and disk) vs. a surrogate
  evaluation — a disk hit must stay far below one real training's
  startup, an index hit far below a surrogate call;
* the *delivered* hit: what one cached candidate costs a generational
  campaign end to end — engine submit, dedup, probe, the problem's
  lookup, landing the result, and its share of the fsynced generation
  record — with a cold and a warm in-memory index, and beside it the
  fresh path (probe miss, evaluate, insert, journal) against the same
  evaluations with no store at all;
* journal append throughput (fsync per generation record is the
  designed durability/latency trade);
* end-to-end: a journaled+cached campaign vs. the bare campaign, then
  a rerun over the warm cache, which should beat the bare campaign by
  skipping every evaluation.

Run standalone (``python benchmarks/bench_store.py``) or via
``benchmarks/runner.py``, which writes ``BENCH_store.json`` and gates
CI on the delivered hit as a same-machine ratio to one batch-of-one
surrogate evaluation (``store_hit_cold_vs_eval``,
``store_hit_warm_vs_eval``).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from benchmarks.conftest import once
from repro.engine import EvaluationEngine
from repro.evo.algorithm import GenerationRecord
from repro.evo.individual import RobustIndividual
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.representation import DeepMDRepresentation
from repro.obs.metrics import MetricsRegistry
from repro.store import (
    CachedProblem,
    CampaignJournal,
    EvaluationCache,
    journal_path,
)

SEED = 2023
N_LOOKUPS = 500
#: the paper's population: one generation record carries this many
POP_SIZE = 100


def _genomes(n: int) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    ranges = DeepMDRepresentation.init_ranges
    return rng.uniform(ranges[:, 0], ranges[:, 1], size=(n, len(ranges)))


def _phenomes(n: int) -> list[dict]:
    decoder = DeepMDRepresentation.decoder()
    return [decoder.decode(g) for g in _genomes(n)]


def _warm_cache(directory) -> tuple[EvaluationCache, list[str]]:
    """Evaluate N random phenomes into a cache (failures included, so
    every key is a guaranteed hit)."""
    from repro.exceptions import EvaluationError

    cache = EvaluationCache(directory, cache_failures=True)
    problem = CachedProblem(SurrogateDeepMDProblem(seed=SEED), cache)
    phenomes = _phenomes(N_LOOKUPS)
    keys = [problem.cache_key(p) for p in phenomes]
    for phenome in phenomes:
        try:
            problem.evaluate_with_metadata(phenome)
        except EvaluationError:
            pass  # memoized as a failure — still a cacheable result
    return cache, keys


def test_cache_hit_warm_index(benchmark, tmp_path):
    cache, keys = _warm_cache(tmp_path)

    def hit_all() -> int:
        return sum(1 for k in keys if cache.lookup(k) is not None)

    assert benchmark(hit_all) == N_LOOKUPS


def test_cache_hit_cold_index(benchmark, tmp_path):
    _, keys = _warm_cache(tmp_path)

    def disk_hit_all() -> int:
        cold = EvaluationCache(tmp_path)  # fresh index: all disk reads
        return sum(1 for k in keys if cold.lookup(k) is not None)

    assert benchmark(disk_hit_all) == N_LOOKUPS


def test_journal_append_generation(benchmark, tmp_path):
    config = CampaignConfig(
        n_runs=1, pop_size=20, generations=2, base_seed=SEED
    )
    journal = CampaignJournal(
        journal_path(tmp_path), problem_spec={"backend": "surrogate"}
    )

    def run_journaled():
        return Campaign(
            lambda s: SurrogateDeepMDProblem(seed=s),
            config,
            journal=journal,
        ).run()

    result = once(benchmark, run_journaled)
    journal.close()
    assert result.n_trainings == 20 * 3


def test_campaign_rerun_over_warm_cache(benchmark, tmp_path):
    """A fully warmed cache turns the campaign into pure replay
    (designed failures included, so they are memoized here too)."""
    cache = EvaluationCache(tmp_path, cache_failures=True)
    config = CampaignConfig(
        n_runs=2, pop_size=20, generations=3, base_seed=SEED
    )
    factory = lambda s: CachedProblem(  # noqa: E731
        SurrogateDeepMDProblem(seed=s), cache
    )
    cold = Campaign(factory, config).run()

    warm = once(benchmark, lambda: Campaign(factory, config).run())
    assert warm.n_trainings == cold.n_trainings
    stats = cache.stats()
    # deterministic EA: the rerun asked for exactly the same phenomes
    assert stats["hits"] >= warm.n_trainings


# ----------------------------------------------------------------------
# machine-readable bench: the delivered hit
# ----------------------------------------------------------------------
def _generation(
    problem: Any, genomes: np.ndarray, journal: Optional[CampaignJournal]
) -> float:
    """Seconds one generation of ``genomes`` takes the way the
    generational driver runs it: every candidate through a fresh
    engine's ``evaluate`` (one backend task each), then the write-ahead
    commit of the generation record."""
    decoder = DeepMDRepresentation.decoder()
    population = [
        RobustIndividual(g, decoder=decoder, problem=problem) for g in genomes
    ]
    engine = EvaluationEngine(metrics=MetricsRegistry(), fault_injector=None)
    start = time.perf_counter()
    engine.evaluate(population)
    if journal is not None:
        journal.append_generation(
            GenerationRecord(
                generation=0,
                population=population,
                evaluated=population,
                std=DeepMDRepresentation.mutation_std,
                n_failures=0,
            )
        )
    wall = time.perf_counter() - start
    assert all(ind.fitness is not None for ind in population)
    return wall


def _best_us(fn: Callable[[], float], rounds: int, per: int) -> float:
    """Best-of-``rounds`` microseconds per candidate."""
    return min(fn() for _ in range(rounds)) / per * 1e6


def run(quick: bool = False) -> dict:
    """Execute the bench; returns the machine-readable report dict."""
    generations = 2 if quick else 5
    rounds = 5 if quick else 7
    genomes = _genomes(POP_SIZE * generations)
    chunks = np.split(genomes, generations)
    bare = SurrogateDeepMDProblem(seed=SEED)
    phenomes = _phenomes(len(genomes))  # the same draw, decoded

    def evaluations() -> float:
        start = time.perf_counter()
        for phenome in phenomes:
            bare.evaluate_batch_with_metadata([phenome])
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        journal = CampaignJournal(journal_path(root))
        journal.begin_run(0, SEED)

        def campaign(problem: Any, journaled: bool = True) -> float:
            return sum(
                _generation(problem, chunk, journal if journaled else None)
                for chunk in chunks
            )

        fresh_seeds = iter(range(SEED + 1, SEED + 1 + rounds))

        def fresh() -> float:
            # a new landscape seed is a new fingerprint: nothing to hit,
            # every candidate evaluated and inserted.  One directory for
            # all rounds, so the best round finds its shards made, as
            # nine inserts in ten of a paper-scale campaign do
            cache = EvaluationCache(root / "fresh", cache_failures=True)
            problem = SurrogateDeepMDProblem(seed=next(fresh_seeds))
            wall = campaign(CachedProblem(problem, cache))
            assert cache.stats()["inserts"] == len(genomes)
            return wall

        full = root / "full"
        campaign(
            CachedProblem(bare, EvaluationCache(full, cache_failures=True))
        )

        def cold() -> float:
            cache = EvaluationCache(full, cache_failures=True)
            wall = campaign(CachedProblem(bare, cache))
            stats = cache.stats()
            assert stats["hits"] == len(genomes) and not stats["misses"]
            return wall

        warm_cache = EvaluationCache(full, cache_failures=True)
        warm_problem = CachedProblem(bare, warm_cache)
        campaign(warm_problem)  # fill the index

        def lookups(cache: EvaluationCache, keys: list[str]) -> float:
            start = time.perf_counter()
            hits = sum(1 for k in keys if cache.lookup(k) is not None)
            wall = time.perf_counter() - start
            assert hits == len(keys)
            return wall

        keys = [warm_problem.cache_key(p) for p in phenomes]
        n = len(genomes)
        results = {
            "eval_batch_of_one_us": _best_us(evaluations, rounds, n),
            "bare_generation_us": _best_us(
                lambda: campaign(bare, journaled=False), rounds, n
            ),
            "fresh_store_path_us": _best_us(fresh, rounds, n),
            "delivered_hit_cold_us": _best_us(cold, rounds, n),
            "delivered_hit_warm_us": _best_us(
                lambda: campaign(warm_problem), rounds, n
            ),
            "lookup_disk_us": _best_us(
                lambda: lookups(
                    EvaluationCache(full, cache_failures=True), keys
                ),
                rounds,
                n,
            ),
            "lookup_index_us": _best_us(
                lambda: lookups(warm_cache, keys), rounds, n
            ),
        }
        journal.close()
    results["fresh_store_overhead_us"] = (
        results["fresh_store_path_us"] - results["bare_generation_us"]
    )
    evaluation = results["eval_batch_of_one_us"]
    return {
        "bench": "store",
        "quick": quick,
        "pop_size": POP_SIZE,
        "generations": generations,
        "rounds": rounds,
        "results": results,
        # same-machine ratios: a delivered cache hit against the
        # surrogate evaluation it replaces (lower is better)
        "metrics": {
            "store_hit_cold_vs_eval": (
                results["delivered_hit_cold_us"] / evaluation
            ),
            "store_hit_warm_vs_eval": (
                results["delivered_hit_warm_us"] / evaluation
            ),
        },
    }


def main(argv: Optional[list] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="BENCH_store.json")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for name, value in report["results"].items():
        print(f"{name:28s} {value:9.1f}")
    for name, value in report["metrics"].items():
        print(f"{name:28s} {value:9.3f}")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
