"""``ElasticBackend``: the fleet policy (DESIGN.md §9) applied to a
:class:`~repro.engine.pool.ProcessPoolBackend` its caller holds, like
the performance ledger's probe.  The policy holds for the ``with``
block, the pool's previous one comes back at exit, and the pool stays
its caller's to close.  ``--backend fleet`` builds its pool with the
policy on instead.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.engine.backends import InlineBackend
from repro.engine.pool import ProcessPoolBackend, _Fleet


class ElasticBackend:
    """``[pool]`` or ``[pool, InlineBackend()]`` as one fleet — alike,
    since the policy's last resort is the in-process reserve;
    ``min_workers`` / ``max_workers`` bound autoscale (default: the
    pool's size)."""

    is_execution_backend = True

    def __init__(
        self,
        members: Iterable[Any],
        *,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        members = list(members)
        if not (
            1 <= len(members) <= 2
            and isinstance(members[0], ProcessPoolBackend)
            and all(isinstance(m, InlineBackend) for m in members[1:])
        ):
            raise ValueError("a fleet is [pool] or [pool, InlineBackend()]")
        self.pool = pool = members[0]
        self._previous, size = pool._fleet, pool.n_workers
        pool._fleet = _Fleet(
            pool._registry,
            min_workers or size,
            max_workers or size,
            speculate=False,
        )

    def __getattr__(self, name: str) -> Any:
        # the ExecutionBackend protocol and the pool's probes
        return getattr(self.pool, name)

    def close(self) -> None:
        self.pool._fleet = self._previous

    def __enter__(self) -> "ElasticBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
