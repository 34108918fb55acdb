"""``LocalCluster``, kept only for ``benchmarks/ledger/probes.py``.

The ledger's traced run times a campaign through
``LocalCluster(n_workers=2).client()``, and the ledger is frozen, so
this name stays until the probe moves.  It is a process pool now: the
per-layer ``distributed.dispatch_evals_per_s`` measures a
:class:`~repro.engine.ProcessPoolBackend`.  Nothing else imports this
module.
"""

from __future__ import annotations

from typing import Any

from repro.engine.pool import ProcessPoolBackend


class LocalCluster:
    """A ``with`` block around one :class:`ProcessPoolBackend`."""

    def __init__(self, n_workers: int) -> None:
        self._pool = ProcessPoolBackend(workers=n_workers)

    def client(self) -> ProcessPoolBackend:
        return self._pool

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._pool.close()
