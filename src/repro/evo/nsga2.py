"""NSGA-II non-dominated sorting and crowding distance.

Two sorting implementations are provided:

:func:`fast_nondominated_sort`
    The classic algorithm of Deb et al. (2002): build the full pairwise
    dominance relation, then peel fronts.  O(M N^2) time and O(N^2)
    memory (vectorized over NumPy).

:func:`rank_ordinal_sort`
    The faster rank-based sorting the paper adopted ("we used an
    improved version of ranked-based sorting that yielded a significant
    speed-up for NSGA-II", citing Burlacu 2022).  For the
    two-objective case — the paper's energy/force setting — it runs in
    O(N log N) via a lexicographic sweep with binary search over front
    minima; for three or more objectives it falls back to dominance
    peeling over per-objective ordinal ranks.

Both return identical 1-based ranks (front 1 is the Pareto front); the
equivalence is enforced by a property-based test and their speed
difference is measured by ``benchmarks/bench_sorting_ablation.py``.

The hot kernels come in two implementations, selected by the ``impl``
argument (default: :data:`DEFAULT_IMPL`):

``"vectorized"``
    Batched NumPy: the two-objective sweep peels whole fronts with
    cumulative minima, and the crowding distance sorts all fronts at
    once with one stable ``lexsort`` per objective.  This is the
    production path — a campaign sorts ``2 * pop_size`` individuals
    every generation, and per-individual Python loops dominate the EA
    side of the wall clock once evaluations are parallel.
``"scalar"``
    The original per-individual / per-front Python loops, kept
    verbatim as the reference oracle.  A property-based test pins the
    vectorized kernels to it bit-for-bit (including duplicate and
    ``MAXINT``-fitness individuals); ``benchmarks/bench_nsga2_kernels.py``
    measures the gap in µs per 1k individuals.

All sorting assumes **minimization** of every objective and *finite*
fitness values — ``MAXINT`` failure fitnesses are finite by design
(§2.2.4); NaNs would make the ordering undefined, which is exactly why
the paper replaced LEAP's NaN failure fitness.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.evo.individual import Individual

#: kernel implementation used when ``impl`` is not passed explicitly
DEFAULT_IMPL: str = "vectorized"


def _resolve_impl(impl: Optional[str]) -> str:
    chosen = DEFAULT_IMPL if impl is None else impl
    if chosen not in ("vectorized", "scalar"):
        raise ValueError(
            f"impl must be 'vectorized' or 'scalar', got {chosen!r}"
        )
    return chosen


def _fitness_matrix(population: Sequence[Individual]) -> np.ndarray:
    rows = []
    for ind in population:
        if ind.fitness is None:
            raise ValueError(
                "all individuals must be evaluated before sorting"
            )
        rows.append(np.atleast_1d(ind.fitness))
    return np.asarray(rows, dtype=np.float64)


def fast_nondominated_sort(fitnesses: np.ndarray) -> np.ndarray:
    """Deb et al. (2002) fast non-dominated sort → 1-based front ranks."""
    F = np.asarray(fitnesses, dtype=np.float64)
    if F.ndim != 2:
        raise ValueError("fitnesses must be a 2-D (N, M) array")
    n = len(F)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if np.isnan(F).any():
        raise ValueError(
            "fitness matrix contains NaN; sorting would be undefined "
            "(use MAXINT for failures, as the paper does)"
        )
    le = np.all(F[:, None, :] <= F[None, :, :], axis=-1)
    lt = np.any(F[:, None, :] < F[None, :, :], axis=-1)
    dom = le & lt  # dom[i, j]: i dominates j
    n_dominators = dom.sum(axis=0)
    ranks = np.zeros(n, dtype=np.int64)
    rank = 1
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        front = remaining & (n_dominators == 0)
        if not front.any():  # pragma: no cover - cycles are impossible
            raise RuntimeError("non-dominated sort failed to make progress")
        ranks[front] = rank
        n_dominators = n_dominators - dom[front].sum(axis=0)
        remaining &= ~front
        rank += 1
    return ranks


def _rank_sort_two_objectives_scalar(F: np.ndarray) -> np.ndarray:
    """O(N log N) sweep for the two-objective case (reference oracle).

    De-duplicate exact fitness ties (duplicates share a front), sort
    lexicographically, and assign each point to the first front whose
    minimum second objective exceeds the point's — maintained as a
    monotone array for binary search.
    """
    unique, inverse = np.unique(F, axis=0, return_inverse=True)
    # np.unique sorts lexicographically ascending: exactly the sweep order
    front_min_f2: list[float] = []
    unique_ranks = np.zeros(len(unique), dtype=np.int64)
    for i, (_, f2) in enumerate(unique):
        k = int(np.searchsorted(front_min_f2, f2, side="right"))
        if k == len(front_min_f2):
            front_min_f2.append(f2)
        else:
            front_min_f2[k] = f2
        unique_ranks[i] = k + 1
    return unique_ranks[inverse]


def _rank_sort_two_objectives_vectorized(F: np.ndarray) -> np.ndarray:
    """Batched two-objective sort: peel whole fronts with cumulative minima.

    After lexicographic de-duplication, a point is non-dominated among
    the remaining points iff its second objective is strictly below the
    running minimum of everything before it in sweep order (uniqueness
    turns weak dominance into strict).  Each loop iteration removes one
    entire front, so the Python-level loop runs once per front instead
    of once per unique point.
    """
    unique, inverse = np.unique(F, axis=0, return_inverse=True)
    unique_ranks = np.zeros(len(unique), dtype=np.int64)
    remaining = np.arange(len(unique))
    f2 = unique[:, 1]
    rank = 1
    while remaining.size:
        v = f2[remaining]
        cummin = np.minimum.accumulate(v)
        front = np.empty(remaining.size, dtype=bool)
        front[0] = True
        front[1:] = v[1:] < cummin[:-1]
        unique_ranks[remaining[front]] = rank
        remaining = remaining[~front]
        rank += 1
    return unique_ranks[inverse]


def _rank_sort_general(F: np.ndarray) -> np.ndarray:
    """Ordinal-rank dominance peeling for three or more objectives.

    Per Burlacu (2022), comparisons on per-objective ordinal ranks are
    equivalent to comparisons on raw fitness values (ranks preserve
    order), and the integer matrix makes the vectorized comparisons
    cheaper and tie handling explicit.
    """
    n, m = F.shape
    # ordinal rank of each individual under each objective (ties share)
    R = np.zeros((n, m), dtype=np.int64)
    for j in range(m):
        _, inv = np.unique(F[:, j], return_inverse=True)
        R[:, j] = inv
    le = np.all(R[:, None, :] <= R[None, :, :], axis=-1)
    lt = np.any(R[:, None, :] < R[None, :, :], axis=-1)
    dom = le & lt
    n_dominators = dom.sum(axis=0)
    ranks = np.zeros(n, dtype=np.int64)
    rank = 1
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        front = remaining & (n_dominators == 0)
        ranks[front] = rank
        n_dominators = n_dominators - dom[front].sum(axis=0)
        remaining &= ~front
        rank += 1
    return ranks


def rank_ordinal_sort(
    fitnesses: np.ndarray, impl: Optional[str] = None
) -> np.ndarray:
    """Rank-based non-dominated sorting (Burlacu 2022) → 1-based ranks."""
    F = np.asarray(fitnesses, dtype=np.float64)
    if F.ndim != 2:
        raise ValueError("fitnesses must be a 2-D (N, M) array")
    chosen = _resolve_impl(impl)
    if len(F) == 0:
        return np.zeros(0, dtype=np.int64)
    if np.isnan(F).any():
        raise ValueError(
            "fitness matrix contains NaN; sorting would be undefined "
            "(use MAXINT for failures, as the paper does)"
        )
    if F.shape[1] == 1:
        _, inverse = np.unique(F[:, 0], return_inverse=True)
        return inverse.astype(np.int64) + 1
    if F.shape[1] == 2:
        if chosen == "vectorized":
            return _rank_sort_two_objectives_vectorized(F)
        return _rank_sort_two_objectives_scalar(F)
    return _rank_sort_general(F)


def _crowding_distance_scalar(
    F: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """Per-front Python-loop crowding distance (reference oracle)."""
    n, m = F.shape
    distances = np.zeros(n)
    for rank in np.unique(ranks):
        members = np.where(ranks == rank)[0]
        if len(members) <= 2:
            distances[members] = np.inf
            continue
        for j in range(m):
            order = members[np.argsort(F[members, j], kind="stable")]
            fmin, fmax = F[order[0], j], F[order[-1], j]
            distances[order[0]] = np.inf
            distances[order[-1]] = np.inf
            if fmax == fmin:
                continue
            gaps = (F[order[2:], j] - F[order[:-2], j]) / (fmax - fmin)
            distances[order[1:-1]] += gaps
    return distances


def _crowding_distance_vectorized(
    F: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """Batched crowding distance: one stable lexsort per objective sorts
    every front at once; segment bookkeeping replaces the per-front loop.

    Bit-identical to the scalar oracle: ``lexsort`` is stable (ties keep
    ascending index, like the oracle's stable argsort over ascending
    member indices), gap/span arithmetic is elementwise, and each
    individual accumulates its per-objective contributions in the same
    ``j = 0..m-1`` order, so float addition order is preserved.
    """
    n, m = F.shape
    distances = np.zeros(n)
    if n == 0:
        return distances
    for j in range(m):
        # primary key: front rank; secondary: objective value; stable
        order = np.lexsort((F[:, j], ranks))
        rs = np.asarray(ranks)[order]
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = rs[1:] != rs[:-1]
        seg_id = np.cumsum(new_seg) - 1
        seg_start = np.flatnonzero(new_seg)
        seg_end = np.append(seg_start[1:], n) - 1
        Fs = F[order, j]
        fmin = Fs[seg_start][seg_id]
        fmax = Fs[seg_end][seg_id]
        boundary = new_seg.copy()
        boundary[seg_end] = True
        distances[order[boundary]] = np.inf
        span = fmax - fmin
        interior = np.flatnonzero(~boundary & (span != 0))
        if interior.size:
            gaps = (Fs[interior + 1] - Fs[interior - 1]) / span[interior]
            distances[order[interior]] += gaps
    return distances


def crowding_distance(
    fitnesses: np.ndarray, ranks: np.ndarray, impl: Optional[str] = None
) -> np.ndarray:
    """NSGA-II crowding distance computed per front.

    Boundary solutions of each front receive ``inf``; interior ones
    the normalized objective-space gap between their neighbors, summed
    over objectives.  Degenerate objectives (no spread within a front)
    contribute zero.
    """
    F = np.asarray(fitnesses, dtype=np.float64)
    ranks = np.asarray(ranks)
    if _resolve_impl(impl) == "vectorized":
        return _crowding_distance_vectorized(F, ranks)
    return _crowding_distance_scalar(F, ranks)


# ----------------------------------------------------------------------
# pipeline-operator forms (Listing 1)
# ----------------------------------------------------------------------
def rank_ordinal_sort_op(
    parents: Optional[Sequence[Individual]] = None,
) -> Callable[[Iterable[Individual]], list[Individual]]:
    """Listing-1 ``rank_ordinal_sort(parents=...)`` pipeline operator.

    Materializes the offspring stream, merges it with ``parents``
    (NSGA-II's mu+lambda elitism), assigns 1-based ``rank`` attributes
    to every individual in the combined pool, and passes the pool on.
    """

    def op(offspring: Iterable[Individual]) -> list[Individual]:
        combined = list(offspring)
        if parents is not None:
            combined = combined + list(parents)
        ranks = rank_ordinal_sort(_fitness_matrix(combined))
        for ind, rank in zip(combined, ranks):
            ind.rank = int(rank)
        return combined

    return op


def crowding_distance_calc(
    population: Iterable[Individual],
) -> list[Individual]:
    """Listing-1 ``crowding_distance_calc`` pipeline operator.

    Requires ``rank`` attributes (set by the sorting operator); stores
    the crowding distance on each individual and passes the pool on.
    """
    pool = list(population)
    if not pool:
        return pool
    if any(ind.rank is None for ind in pool):
        raise ValueError("crowding distance requires ranks; sort first")
    F = _fitness_matrix(pool)
    ranks = np.array([ind.rank for ind in pool])
    distances = crowding_distance(F, ranks)
    for ind, dist in zip(pool, distances):
        ind.distance = float(dist)
    return pool


def crowded_tournament_selection(
    population: Sequence[Individual],
    rng=None,
) -> "Iterator[Individual]":
    """Canonical NSGA-II mating selection: binary tournaments decided
    by the crowded-comparison operator (lower rank wins; ties break to
    larger crowding distance).

    The paper replaces this with plain ``random_selection`` (Listing 1)
    — mutation-only breeding plus mu+lambda truncation supplies the
    selection pressure instead.  This operator exists for the ablation
    that quantifies that simplification.  Requires ``rank`` and
    ``distance`` attributes (run the sorting operators first).
    """
    from repro.rng import ensure_rng

    gen = ensure_rng(rng)
    pool = list(population)
    if not pool:
        raise ValueError("cannot select from an empty population")
    for ind in pool:
        if ind.rank is None or ind.distance is None:
            raise ValueError(
                "crowded tournament needs rank and distance; run "
                "rank_ordinal_sort_op and crowding_distance_calc first"
            )

    def crowded_less(a: Individual, b: Individual) -> bool:
        if a.rank != b.rank:
            return a.rank < b.rank
        return a.distance > b.distance

    while True:
        a = pool[int(gen.integers(len(pool)))]
        b = pool[int(gen.integers(len(pool)))]
        yield a if crowded_less(a, b) else b


def nsga2_select(
    population: Sequence[Individual], size: int
) -> list[Individual]:
    """Rank + crowd + truncate in one call (environmental selection)."""
    from repro.evo.ops import truncation_selection

    ranked = rank_ordinal_sort_op()(list(population))
    crowded = crowding_distance_calc(ranked)
    return truncation_selection(
        size=size, key=lambda x: (-x.rank, x.distance)
    )(crowded)
