"""Content-addressed evaluation cache.

One paper-scale campaign is ~3500 trainings of 2 GPU-hours each, and
annealed Gaussian mutation (plus five independent runs over the same
search space) re-visits hyperparameter combinations routinely.  The
cache memoizes finished evaluations on disk, keyed by a canonical hash
of *what determines the result*: the decoded phenome, the dataset
identity, and the fixed evaluator settings.  Anything else — UUIDs,
work directories, wall-clock — is payload, not key.

Design constraints, in order:

* **Never corrupt, never crash.**  Entries are written to a temp file
  in the cache directory and ``os.replace``-d into place, so readers
  only ever see whole entries; loads skip torn or garbage files (and
  count them) instead of raising.
* **Failures are not results.**  A diverged training says "this
  phenome fails *this time*" — background failures are stochastic, and
  memoizing them would freeze bad luck into the search.  Failed
  evaluations are therefore not cached unless ``cache_failures`` is
  set (useful when failures are known-deterministic).
* **Bounded memory.**  The in-memory index is an LRU of at most
  ``max_index_entries`` deserialized entries; the disk store is the
  source of truth and is consulted on index misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import uuid as uuid_module
from collections import OrderedDict
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.engine.invoke import call_problem_batch, failure_fitness
from repro.evo.problem import BatchOutcome, WithMetadataProblem
from repro.exceptions import EvaluationError
from repro.injection import FaultInjector, get_injector
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import get_tracer

#: bumped whenever the entry layout changes; old entries are skipped
ENTRY_VERSION = 1


class CachedFailure(EvaluationError):
    """Raised on a cache hit of a memoized *failed* evaluation.

    Carries the stored metadata so :class:`~repro.evo.individual.
    RobustIndividual` records the original failure cause alongside the
    MAXINT fitness, exactly as a live failure would.
    """

    def __init__(self, message: str, metadata: Optional[dict] = None) -> None:
        super().__init__(message)
        self.metadata = dict(metadata or {})


#: what a walk hands back untouched (exact types; subclasses, numpy
#: scalars among them, take the ``isinstance`` route)
_PLAIN = (str, int, bool, type(None))

_NUMPY_SCALARS = (np.floating, np.integer, np.bool_)


def _canonical(value: Any, strip: bool = False) -> Any:
    """Coerce to a JSON-stable form in one walk: numpy scalars to
    Python scalars, tuples to lists, mapping keys to strings, in
    string order.  With ``strip``, NaN/inf become None as well —
    strict JSON has no spelling for them."""
    kind = type(value)
    if kind is float:
        return None if strip and not isfinite(value) else value
    if kind in _PLAIN:
        return value
    if isinstance(value, _NUMPY_SCALARS):
        value = value.item()
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        # sorting the raw keys refuses mixed key types, as it always
        # has; what a file holds is the order of the stringified keys
        items = sorted(value.items())
        out = {str(k): _canonical(v, strip) for k, v in items}
        if any(type(k) is not str for k, _ in items):
            out = dict(sorted(out.items()))
        return out
    if isinstance(value, (list, tuple)):
        return [_canonical(v, strip) for v in value]
    if strip and isinstance(value, float) and not isfinite(value):
        return None
    return value


_encode_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode

#: entry files: ``json.dumps`` defaults, NaN refused
_encode_entry = json.JSONEncoder(allow_nan=False).encode


#: the value types a flat mapping may hold and skip the walk: the ones
#: the walk hands back untouched, plus ``float`` (a NaN raises either way)
_FLAT = frozenset((*_PLAIN, float))

_STR = frozenset((str,))


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr-exact
    floats (Python's ``json`` emits the shortest round-tripping
    representation, so float keys are bit-stable).  A flat str-keyed
    dict — a decoded phenome — is already canonical: the encoder's
    ``sort_keys`` orders it as the walk would."""
    if (
        type(value) is dict
        and set(map(type, value)) <= _STR
        and set(map(type, value.values())) <= _FLAT
    ):
        return _encode_canonical(value)
    return _encode_canonical(_canonical(value))


class CanonicalFingerprint:
    """A fingerprint canonicalised once, for a problem that hashes
    thousands of phenomes against it.

    Every key payload is ``{"fingerprint":<F>,"phenome":<P>}``; this
    holds the SHA-256 state after the constant ``{"fingerprint":<F>,
    "phenome":`` so :func:`evaluation_key` hashes only what varies.
    Pickles as the fingerprint it was built from.
    """

    __slots__ = ("fingerprint", "_hasher")

    def __init__(self, fingerprint: Any) -> None:
        self.fingerprint = fingerprint
        prefix = '{"fingerprint":' + canonical_json(fingerprint) + ',"phenome":'
        self._hasher = hashlib.sha256(prefix.encode("utf-8"))

    def __reduce__(self) -> tuple[Any, ...]:
        return (CanonicalFingerprint, (self.fingerprint,))


def evaluation_key(phenome: Any, fingerprint: Any) -> str:
    """The content address of one evaluation: the SHA-256 of
    ``canonical_json({"phenome": phenome, "fingerprint": fingerprint})``.

    ``fingerprint`` identifies everything outside the phenome that the
    result depends on (dataset identity + fixed evaluator settings);
    problems provide it via ``cache_fingerprint()``.  Callers with many
    phenomes per fingerprint pass a :class:`CanonicalFingerprint`.
    """
    if not isinstance(fingerprint, CanonicalFingerprint):
        fingerprint = CanonicalFingerprint(fingerprint)
    hasher = fingerprint._hasher.copy()
    hasher.update((canonical_json(phenome) + "}").encode("utf-8"))
    return hasher.hexdigest()


def dataset_fingerprint(dataset: Any) -> str:
    """Content hash of a :class:`~repro.md.dataset.FrameDataset`.

    Hashes every frame's labels and coordinates in both splits, so any
    change to the training data invalidates cached evaluations.
    """
    h = hashlib.sha256()
    for split_name in ("train", "validation"):
        frames = getattr(dataset, split_name, []) or []
        h.update(split_name.encode())
        for frame in frames:
            h.update(np.ascontiguousarray(frame.positions).tobytes())
            h.update(np.ascontiguousarray(frame.forces).tobytes())
            h.update(np.float64(frame.energy).tobytes())
            h.update(np.ascontiguousarray(frame.box).tobytes())
    return h.hexdigest()[:16]


@dataclass
class CacheEntry:
    """One memoized evaluation, in the form its file holds: ``fitness``
    a list of floats, ``metadata`` canonical strict JSON (what
    :meth:`EvaluationCache.insert` stores and ``lookup`` reads back)."""

    key: str
    fitness: list[float] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    failed: bool = False
    error: Optional[str] = None

    def fitness_array(self) -> np.ndarray:
        return np.asarray(self.fitness, dtype=np.float64)

    def to_doc(self) -> dict[str, Any]:
        return {
            "version": ENTRY_VERSION,
            "key": self.key,
            "fitness": self.fitness,
            "metadata": self.metadata,
            "failed": bool(self.failed),
            "error": self.error,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "CacheEntry":
        if not isinstance(doc, dict) or doc.get("version") != ENTRY_VERSION:
            raise ValueError("unknown cache entry version")
        if "key" not in doc or "fitness" not in doc:
            raise ValueError("cache entry missing required fields")
        return cls(
            key=str(doc["key"]),
            fitness=[float(f) for f in doc["fitness"]],
            metadata=dict(doc.get("metadata") or {}),
            failed=bool(doc.get("failed", False)),
            error=doc.get("error"),
        )


#: what :meth:`EvaluationCache._load` returns for a file it cannot serve
_CORRUPT = object()


class EvaluationCache:
    """Disk-backed, content-addressed store of finished evaluations.

    Layout: ``directory/<key[:2]>/<key>.json`` (sharded so a 3500-entry
    campaign doesn't produce one enormous flat directory), plus
    transient ``*.tmp`` files that are atomically renamed into place.

    Thread-safe: workers evaluate concurrently, and a racing double
    insert of the same key is harmless (same content, last rename
    wins).
    """

    def __init__(
        self,
        directory: str | Path,
        cache_failures: bool = False,
        max_index_entries: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Any = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: the hot path builds paths as strings: ``<root><shard>/<key>.json``
        self._root = f"{self.directory}{os.sep}"
        #: shard directories this instance has made (or found) already;
        #: unlocked, since making one twice is harmless
        self._shards: set[str] = set()
        self.cache_failures = bool(cache_failures)
        self.max_index_entries = int(max_index_entries)
        if self.max_index_entries < 1:
            raise ValueError("max_index_entries must be >= 1")
        self.tracer = tracer if tracer is not None else get_tracer()
        self._obs = bool(getattr(self.tracer, "enabled", False))
        registry = metrics if metrics is not None else get_registry()
        self._c_hits = registry.counter("store_cache_hits_total")
        self._c_misses = registry.counter("store_cache_misses_total")
        self._c_corrupt = registry.counter("store_cache_corrupt_total")
        self._c_inserts = registry.counter("store_cache_inserts_total")
        self._c_skipped = registry.counter(
            "store_cache_skipped_failures_total"
        )
        #: chaos seam: entry corruption after insert (None normally)
        self._injector = (
            fault_injector if fault_injector is not None else get_injector()
        )
        self._lock = threading.Lock()
        self._index: "OrderedDict[str, CacheEntry]" = OrderedDict()
        # per-instance stats (the registry counters are process-wide)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.inserts = 0
        self.skipped_failures = 0

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        """Spawn-safe pickling for the process-pool backend.

        Only the cache *identity* crosses the process boundary: the
        directory and policy knobs.  The worker-side replica starts
        with an empty index and fresh per-instance stats, re-resolves
        tracer/metrics/injector from its own process globals (workers
        run injector-free — chaos fires once, in the parent), and
        shares the disk store, whose atomic rename writes are already
        multi-process safe.
        """
        return {
            "directory": self.directory,
            "cache_failures": self.cache_failures,
            "max_index_entries": self.max_index_entries,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(
            state["directory"],
            cache_failures=state["cache_failures"],
            max_index_entries=state["max_index_entries"],
        )

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return f"{self._root}{key[:2]}{os.sep}{key}.json"

    def _index_put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self._index[key] = entry
            self._index.move_to_end(key)
            while len(self._index) > self.max_index_entries:
                self._index.popitem(last=False)

    def _load(self, key: str) -> Any:
        """The one read of an entry file: the validated entry, None
        when there is no file, ``_CORRUPT`` for a torn, garbage,
        foreign-version or misaddressed one.  Never raises, counts
        nothing."""
        try:
            with open(self._path(key), "rb", buffering=0) as fh:
                data = fh.read()
        except OSError:
            return None
        try:
            entry = CacheEntry.from_doc(json.loads(data.decode("utf-8")))
            if entry.key != key:
                raise ValueError("entry key does not match its address")
        except (ValueError, TypeError, KeyError):
            return _CORRUPT
        return entry

    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Would :meth:`lookup` serve ``key``?  The dispatcher's probe:
        it reads and validates the entry (a torn file is a miss here
        too, so its candidate is dispatched like any other), counts
        nothing, and leaves the entry in the index — the counted
        ``lookup`` that follows a hit costs no second read."""
        with self._lock:
            if key in self._index:
                return True
        entry = self._load(key)
        if entry is None or entry is _CORRUPT:
            return False
        self._index_put(key, entry)
        return True

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """Return the stored entry, or None on miss *or* corruption.

        A torn/garbage/foreign-version file counts as corrupt, is
        skipped, and never raises — the evaluation simply re-runs.
        """
        with self._lock:
            entry = self._index.get(key)
            if entry is not None:
                self._index.move_to_end(key)
                self.hits += 1
        if entry is not None:
            self._c_hits.inc()
            if self._obs:
                self.tracer.event("store.cache.hit", key=key, index=True)
            return entry
        entry = self._load(key)
        if entry is None:
            with self._lock:
                self.misses += 1
            self._c_misses.inc()
            if self._obs:
                self.tracer.event("store.cache.miss", key=key)
            return None
        if entry is _CORRUPT:
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            self._c_corrupt.inc()
            self._c_misses.inc()
            if self._obs:
                self.tracer.event("store.cache.corrupt", key=key)
            return None
        with self._lock:
            self.hits += 1
        self._c_hits.inc()
        self._index_put(key, entry)
        if self._obs:
            self.tracer.event("store.cache.hit", key=key, index=False)
        return entry

    def insert(
        self,
        key: str,
        fitness: Any,
        metadata: Optional[dict[str, Any]] = None,
        failed: bool = False,
        error: Optional[str] = None,
    ) -> bool:
        """Persist one evaluation; returns False when refused.

        Failed evaluations are refused unless the cache was built with
        ``cache_failures=True``.  The write is atomic: temp file in the
        same directory, then ``os.replace``.
        """
        if failed and not self.cache_failures:
            with self._lock:
                self.skipped_failures += 1
            self._c_skipped.inc()
            if self._obs:
                self.tracer.event("store.cache.skip_failure", key=key)
            return False
        # the one walk of the record: what the file says is what the
        # index holds (NaN/inf in metadata become None)
        entry = CacheEntry(
            key=key,
            fitness=np.asarray(fitness, dtype=np.float64).ravel().tolist(),
            metadata=_canonical(metadata or {}, strip=True),
            failed=failed,
            error=error,
        )
        data = _encode_entry(entry.to_doc()).encode("ascii")
        shard = self._root + key[:2]
        if shard not in self._shards:
            os.makedirs(shard, exist_ok=True)
            self._shards.add(shard)
        path = f"{shard}{os.sep}{key}.json"
        try:
            self._replace(shard, path, data)
        except FileNotFoundError:
            # the shard was removed under a running campaign
            os.makedirs(shard, exist_ok=True)
            self._replace(shard, path, data)
        self._index_put(key, entry)
        if self._injector is not None and self._injector.corrupt_cache_entry(
            path
        ):
            # the disk entry was just garbled; evict the good in-memory
            # copy too, or lookups would never see the corruption
            with self._lock:
                self._index.pop(key, None)
        with self._lock:
            self.inserts += 1
        self._c_inserts.inc()
        if self._obs:
            self.tracer.event("store.cache.insert", key=key, failed=failed)
        return True

    @staticmethod
    def _replace(shard: str, path: str, data: bytes) -> None:
        """Write ``data`` beside ``path`` and rename it into place, so
        readers only ever see whole entries; a failed write takes its
        temp file with it."""
        tmp = f"{shard}{os.sep}.{uuid_module.uuid4().hex}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of entries on disk (walks the shard directories)."""
        return sum(1 for _ in self.directory.glob("??/*.json"))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "inserts": self.inserts,
                "skipped_failures": self.skipped_failures,
            }


class CachedProblem(WithMetadataProblem):
    """Wrap any problem with cache lookup-before / insert-after.

    The wrapped problem supplies its identity through
    ``cache_fingerprint()``; problems without one are fingerprinted by
    class name only (correct for stateless analytic problems, too
    coarse for anything data-dependent — implement the method).

    A memoized failure (only present with ``cache_failures``) replays
    as a :class:`CachedFailure`, which the robust individual converts
    to MAXINT fitness just like the original exception.
    """

    def __init__(self, problem: Any, cache: EvaluationCache) -> None:
        self.problem = problem
        self.cache = cache
        self.n_objectives = int(getattr(problem, "n_objectives", 1))
        if hasattr(problem, "cache_fingerprint"):
            self._fingerprint = problem.cache_fingerprint()
        else:
            cls = type(problem)
            self._fingerprint = {
                "problem": f"{cls.__module__}.{cls.__qualname__}"
            }
        #: the fingerprint never changes: canonicalise it here, not
        #: once per key
        self._key_prefix = CanonicalFingerprint(self._fingerprint)

    def cache_fingerprint(self) -> Any:
        return self._fingerprint

    def cache_key(self, phenome: Any) -> str:
        return evaluation_key(phenome, self._key_prefix)

    def __getattr__(self, name: str) -> Any:
        # delegate everything else (seed, evaluations, dataset, ...)
        try:
            inner = self.__dict__["problem"]
        except KeyError:  # pragma: no cover - mid-construction access
            raise AttributeError(name) from None
        return getattr(inner, name)

    # ------------------------------------------------------------------
    def evaluate_with_metadata(
        self, phenome: Any, uuid: Optional[str] = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        """Scalar view: a batch of one, its slot raised when it is an
        exception."""
        (outcome,) = self.evaluate_batch_with_metadata([phenome], [uuid])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def evaluate_batch_with_metadata(
        self, phenomes: Any, uuids: Optional[Any] = None
    ) -> list[BatchOutcome]:
        """Probe the cache for the whole batch, execute only the
        misses through the inner problem's batch path, and insert
        fresh results (and failures, under ``cache_failures``) per
        slot, in batch order.

        The batch behaves as consecutive one-slot calls would: a slot
        whose key an earlier slot of the batch missed is looked up only
        after that slot's insert — a hit when the result was cached, a
        second execution when it was not (an uncached failure).
        """
        phenome_list = list(phenomes)
        uuid_list = (
            list(uuids)
            if uuids is not None
            else [None] * len(phenome_list)
        )
        outcomes: list[BatchOutcome] = [None] * len(phenome_list)
        keys: list[Optional[str]] = [None] * len(phenome_list)
        miss: list[int] = []
        #: slots whose key an earlier slot missed, settled after it
        repeats: list[int] = []
        missed: set[str] = set()
        for i, phenome in enumerate(phenome_list):
            try:
                key = self.cache_key(phenome)
            except Exception as exc:  # unhashable phenome: fail the slot
                outcomes[i] = exc
                continue
            keys[i] = key
            if key in missed:
                repeats.append(i)
                continue
            outcomes[i] = self._lookup(key)
            if outcomes[i] is None:
                miss.append(i)
                missed.add(key)
        if not miss:
            return outcomes
        fresh = dict(
            zip(
                miss,
                call_problem_batch(
                    self.problem,
                    [phenome_list[i] for i in miss],
                    uuids=[uuid_list[i] for i in miss],
                ),
            )
        )
        for i in sorted(miss + repeats):
            key = keys[i]
            if i in fresh:
                outcomes[i] = self._insert(key, fresh[i])
                continue
            outcomes[i] = self._lookup(key)
            if outcomes[i] is None:
                (slot,) = call_problem_batch(
                    self.problem, [phenome_list[i]], uuids=[uuid_list[i]]
                )
                outcomes[i] = self._insert(key, slot)
        return outcomes

    def serve(self, phenome: Any) -> BatchOutcome:
        """The hit ``phenome`` replays, or None: a dispatcher's probe
        that, on a hit, is the answer.  One key; one validated read
        (``contains``), so a torn, garbage, foreign-version or
        misaddressed entry is a miss and counts nothing; then the
        counted ``lookup``, an index hit.  The outcome is the slot
        :meth:`evaluate_batch_with_metadata` would return."""
        key = self.cache_key(phenome)
        if not self.cache.contains(key):
            return None
        return self._lookup(key)

    def _lookup(self, key: str) -> BatchOutcome:
        """The hit ``key`` replays, or None on a miss."""
        entry = self.cache.lookup(key)
        if entry is None:
            return None
        metadata = {**entry.metadata, "cache_hit": True}
        if entry.failed:
            return CachedFailure(
                entry.error or "memoized evaluation failure",
                metadata=metadata,
            )
        return (entry.fitness_array(), metadata)

    def _insert(self, key: str, slot: BatchOutcome) -> BatchOutcome:
        """Store one executed slot under ``key``; returns the slot."""
        if isinstance(slot, BaseException):
            meta = dict(getattr(slot, "metadata", None) or {})
            meta.setdefault("failed", True)
            meta.setdefault(
                "failure_cause", f"{type(slot).__name__}: {slot}"
            )
            slot.metadata = meta  # type: ignore[attr-defined]
            self.cache.insert(
                key,
                failure_fitness(self.n_objectives),
                metadata=meta,
                failed=True,
                error=meta["failure_cause"],
            )
            return slot
        fitness, metadata = slot
        self.cache.insert(
            key,
            fitness,
            metadata=metadata,
            failed=bool(metadata.get("failed", False)),
            error=metadata.get("failure_cause"),
        )
        return (fitness, metadata)
