"""Spans, point events, and the process-wide tracer.

A 12-hour, 100-node campaign (§2.2.5) needs to answer "where did the
wall-clock go?" after the fact: which generations stalled on
stragglers, which workers sat idle, which tasks were retried after
node faults.  The tracer records that as a flat JSONL stream of
**spans** (named intervals with tags and parent links) and **events**
(named instants), one strict-JSON object per line, so a partially
written trace from a killed job parses the same way the run journal
does.

Instrumentation sites call :func:`get_tracer` (or accept a tracer
argument) and are hot-path code — the engine and the pool touch the
tracer on every task transition — so the default is a
:class:`NullTracer` whose ``span``/``event`` are attribute lookups plus
a constant return.  The microbenchmark in
``benchmarks/bench_obs_overhead.py`` keeps that overhead honest (the
gated ``pool_obs_overhead_ratio`` of a traced pool campaign).

Parenting is thread-local: a span opened inside another span *on the
same thread* records it as its parent, which makes the EA's
per-generation spans the parents of in-process evaluation spans.
Worker threads start their own roots (their spans carry ``worker`` and
``task`` tags instead, and the report joins them by task key).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional


def _json_safe(value: Any) -> Any:
    """Coerce a tag value to something ``json.dumps(allow_nan=False)``
    accepts — non-finite floats become ``None``, exotic objects become
    their ``str``."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    try:  # numpy scalars expose item()
        return _json_safe(value.item())
    except AttributeError:
        return str(value)


class Span:
    """A named interval; use as a context manager.

    ``tag(**kv)`` attaches metadata at any point before exit; an
    exception escaping the block marks the span ``status="err"`` (and
    is not suppressed).
    """

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "tags",
        "ts",
        "mono_start",
        "duration",
        "status",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Optional[int],
        tags: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.tags = tags
        self.ts = 0.0
        self.mono_start = 0.0
        self.duration = 0.0
        self.status = "ok"

    def tag(self, **kv: Any) -> "Span":
        self.tags.update(kv)
        return self

    def __enter__(self) -> "Span":
        self.ts = time.time()
        self.mono_start = time.monotonic()
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.monotonic() - self.mono_start
        if exc_type is not None:
            self.status = "err"
            self.tags.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        self.tracer._record(
            {
                "type": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "ts": self.ts,
                "mono": self.mono_start,
                "dur": self.duration,
                "status": self.status,
                "thread": threading.current_thread().name,
                "tags": self.tags,
            }
        )
        return False


class _NullSpan:
    """The shared do-nothing span the :class:`NullTracer` returns."""

    __slots__ = ()

    def tag(self, **kv: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: every operation is a constant-time no-op."""

    enabled = False
    campaign_id: Optional[str] = None

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **tags: Any) -> None:
        return None

    def ingest(self, record: dict[str, Any]) -> None:
        return None

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None

    @property
    def records(self) -> list[dict[str, Any]]:
        return []


class Tracer:
    """Buffers span/event records and optionally streams them to JSONL.

    Parameters
    ----------
    path:
        Trace file; one strict-JSON object is appended per finished
        span / emitted event (line-buffered, like the run journal).
        ``None`` keeps records in memory only.
    campaign_id:
        Names the campaign the trace belongs to — the one whose
        write-ahead :class:`~repro.store.journal.CampaignJournal`
        holds its records; autogenerated when omitted.
    keep_in_memory:
        Retain records on the tracer (the default); long campaigns
        streaming to disk can turn this off to bound memory.
    """

    enabled = True

    def __init__(
        self,
        path: Optional[str | Path] = None,
        campaign_id: Optional[str] = None,
        keep_in_memory: bool = True,
    ) -> None:
        self.campaign_id = campaign_id or uuid.uuid4().hex[:12]
        self.path = Path(path) if path is not None else None
        self.keep_in_memory = bool(keep_in_memory)
        self._records: list[dict[str, Any]] = []
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
            self._record(
                {
                    "type": "meta",
                    "name": "trace.start",
                    "ts": time.time(),
                    "mono": time.monotonic(),
                    "campaign": self.campaign_id,
                }
            )

    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        return next(self._counter)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span_id(self) -> Optional[int]:
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------
    def span(self, name: str, **tags: Any) -> Span:
        return Span(self, name, self.current_span_id(), tags)

    def event(self, name: str, **tags: Any) -> None:
        self._record(
            {
                "type": "event",
                "name": name,
                "parent": self.current_span_id(),
                "ts": time.time(),
                "mono": time.monotonic(),
                "thread": threading.current_thread().name,
                "tags": tags,
            }
        )

    def ingest(self, record: dict[str, Any]) -> None:
        """Merge a record produced in *another process* into this
        stream.

        Pool workers trace their evaluations locally (plain span/event
        dicts, no tracer machinery) and ship the records back over
        their result pipe; the parent ingests them here.  Span ids are
        reassigned from this tracer's counter so foreign ids can never
        collide with local ones, and the parent link is dropped —
        cross-process spans are roots that join the rest of the trace
        by their ``worker``/``task`` tags, exactly like thread-worker
        spans.
        """
        rec = dict(record)
        if rec.get("type") == "span":
            rec["id"] = self._next_id()
        rec["parent"] = None
        self._record(rec)

    def _record(self, rec: dict[str, Any]) -> None:
        rec = _json_safe(rec)
        with self._lock:
            if self.keep_in_memory:
                self._records.append(rec)
            if self._fh is not None:
                self._fh.write(json.dumps(rec, allow_nan=False) + "\n")
                self._fh.flush()

    # ------------------------------------------------------------------
    @property
    def records(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def spans(self, name: Optional[str] = None) -> list[dict[str, Any]]:
        return [
            r
            for r in self.records
            if r["type"] == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> list[dict[str, Any]]:
        return [
            r
            for r in self.records
            if r["type"] == "event" and (name is None or r["name"] == name)
        ]

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: the process-wide default: tracing disabled
NULL_TRACER = NullTracer()

_global_tracer: NullTracer | Tracer = NULL_TRACER
_global_lock = threading.Lock()


def get_tracer() -> NullTracer | Tracer:
    """The process-wide tracer (:data:`NULL_TRACER` unless installed)."""
    return _global_tracer


def set_tracer(tracer: Optional[NullTracer | Tracer]) -> NullTracer | Tracer:
    """Install ``tracer`` globally (``None`` restores the null tracer);
    returns the previous tracer."""
    global _global_tracer
    with _global_lock:
        previous = _global_tracer
        _global_tracer = tracer if tracer is not None else NULL_TRACER
        return previous


@contextmanager
def use_tracer(tracer: NullTracer | Tracer) -> Iterator[NullTracer | Tracer]:
    """Scoped :func:`set_tracer` — restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a trace file, tolerating a truncated final line (killed
    jobs die mid-write, exactly like the run journal)."""
    records: list[dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break
    return records
