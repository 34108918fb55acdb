"""Seeded random-number-generator plumbing.

Every stochastic component in the package accepts either an integer
seed, a :class:`numpy.random.Generator`, or ``None`` and normalizes it
through :func:`ensure_rng`.  Child streams for parallel work are derived
with :func:`spawn` so that independent EA runs and independent workers
never share a stream — a requirement for reproducing the paper's five
*independent* EA runs deterministically.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a nondeterministic generator; an ``int`` or
    :class:`~numpy.random.SeedSequence` seeds a fresh PCG64 stream; a
    generator passes through untouched.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def spawn(rng: RngLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses :meth:`numpy.random.Generator.spawn` when available so the
    children are guaranteed non-overlapping.
    """
    gen = ensure_rng(rng)
    return list(gen.spawn(n))


def seeds_for_runs(base_seed: int, n_runs: int) -> list[int]:
    """Deterministic per-run integer seeds for a multi-run campaign."""
    ss = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n_runs)]


def shuffled_indices(n: int, rng: RngLike = None) -> np.ndarray:
    """A random permutation of ``range(n)`` as an int64 array."""
    return ensure_rng(rng).permutation(n)


def split_indices(
    n: int, fractions: Iterable[float], rng: RngLike = None
) -> list[np.ndarray]:
    """Shuffle ``range(n)`` and split it into consecutive chunks.

    ``fractions`` must sum to at most 1; a final remainder chunk is
    appended if they sum to less than 1.  Used for the paper's shuffled
    75/25 train/validation split (§2.1.3).
    """
    fracs = list(fractions)
    if any(f < 0 for f in fracs):
        raise ValueError("fractions must be non-negative")
    total = sum(fracs)
    if total > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {total} > 1")
    perm = shuffled_indices(n, rng)
    out: list[np.ndarray] = []
    start = 0
    for f in fracs:
        stop = start + int(round(f * n))
        stop = min(stop, n)
        out.append(perm[start:stop])
        start = stop
    if total < 1.0 - 1e-9:
        out.append(perm[start:])
    return out
