"""Spans taken from outside the program.

The ledger's traced run wraps public callables of ``repro`` at run time
(nothing under ``src/`` knows about it) and records one span per call:
name, layer, thread, start, end and the span that was open on the same
thread when it started.  Spans stay in memory and are written as JSONL
when the run ends.

A layer's *self time* is what the traced run attributes to it: the
duration of its spans minus the part covered by their child spans.  On
one thread spans nest strictly, so the covered part is the sum of the
direct children's durations.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass
class Span:
    name: str
    layer: str
    thread: int
    index: int  # position in its thread's list
    parent: int  # index of the enclosing span on the same thread, -1 for a root
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, list[Span]] = {}
        #: plain counters read at the same boundaries as the spans
        self.counts: dict[str, float] = defaultdict(float)
        #: objects an observer wants to read later (the engines a driver
        #: builds for itself, whose ``EngineStats`` the ledger reports)
        self.seen: dict[str, list[Any]] = defaultdict(list)

    def _state(self) -> tuple[list[Span], list[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list[Span] = []
            with self._lock:
                self._threads[threading.get_ident()] = spans
            state = self._local.state = (spans, [])
        return state

    def open(self, name: str, layer: str) -> Span:
        spans, stack = self._state()
        span = Span(
            name,
            layer,
            threading.get_ident(),
            len(spans),
            stack[-1] if stack else -1,
            time.perf_counter(),
        )
        spans.append(span)
        stack.append(span.index)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._state()[1].pop()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        opened = self.open(name, layer)
        try:
            yield opened
        finally:
            self.close(opened)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``observe(recorder, span, result,
        *args, **kwargs)`` may read counts off the call, or rename the
        span, once the call has returned."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(opened)
            if observe is not None:
                observe(self, opened, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with a call counter and no span — for callables too
        hot to time (one per tensor)."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def all_spans(self) -> list[Span]:
        with self._lock:
            threads = list(self._threads.values())
        return [span for spans in threads for span in spans]

    def write_jsonl(self, path: Path) -> int:
        spans = self.all_spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "layer": s.layer,
                            "thread": s.thread,
                            "id": s.index,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )
        return len(spans)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``.

    ``spans`` may be part of a run: a child whose parent is not among
    them simply has nothing to be subtracted from.
    """
    spans = list(spans)
    by_key = {(s.thread, s.index): s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_key.get((s.thread, s.parent))
        if parent is not None:
            covered[id(parent)] += s.duration
    return {id(s): s.duration - covered[id(s)] for s in spans}


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def totals(
    spans: Iterable[Span],
) -> tuple[dict[str, Totals], dict[str, Totals]]:
    """Call count, self time and inclusive time per span name, and
    per layer.  A name or layer nothing ran under reads zero."""
    spans = list(spans)
    own = self_times(spans)
    by_name: dict[str, Totals] = defaultdict(Totals)
    by_layer: dict[str, Totals] = defaultdict(Totals)
    for s in spans:
        for t in (by_name[s.name], by_layer[s.layer]):
            t.calls += 1
            t.self_s += own[id(s)]
            t.total_s += s.duration
    return by_name, by_layer


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``path`` is ``"module:attr"`` or ``"module:Class.attr"``.  A
    ``factory`` target returns the callable that does the work (the
    pipeline-operator idiom of ``repro.evo``); the returned callable is
    what gets the span.  ``observe`` is forwarded to
    :meth:`SpanRecorder.wrap`.  With ``count_only`` the callable gets a
    counter named ``name`` and no span.
    """

    path: str
    name: str
    layer: str
    factory: bool = False
    observe: Optional[Callable[..., None]] = None
    count_only: bool = False


def _resolve(path: str) -> tuple[Any, Optional[type], str]:
    module_name, _, attr = path.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, _, attr = attr.partition(".")
        return module, getattr(module, cls_name), attr
    return module, None, attr


def _traced(recorder: SpanRecorder, target: Target, fn: Any) -> Any:
    if target.count_only:
        return recorder.count(fn, target.name)
    if not target.factory:
        return recorder.wrap(fn, target.name, target.layer, target.observe)

    def make(*args: Any, **kwargs: Any) -> Any:
        return recorder.wrap(
            fn(*args, **kwargs), target.name, target.layer, target.observe
        )

    make.__wrapped__ = fn  # type: ignore[attr-defined]
    return make


def _holders(roots: tuple[str, ...]) -> list[Any]:
    """Loaded modules whose source lives under one of ``roots``."""
    return [
        module
        for module in list(sys.modules.values())
        if str(getattr(module, "__file__", None) or "").startswith(roots)
    ]


@contextmanager
def installed(
    recorder: SpanRecorder,
    targets: Iterable[Target],
    roots: Iterable[Path],
) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore.

    A module-level function is replaced in its own module and in every
    loaded module under ``roots`` that holds it by the same name
    (``from m import f`` copies the reference, so patching ``m.f``
    alone would miss those callers).
    """
    holders = _holders(tuple(str(Path(r).resolve()) for r in roots))
    undo: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            module, cls, attr = _resolve(target.path)
            if cls is not None:
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(_traced(recorder, target, raw.__func__))
                else:
                    new = _traced(recorder, target, raw)
                undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, attr)
            new = _traced(recorder, target, original)
            for holder in [module, *holders]:
                if holder.__dict__.get(attr) is original:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, new)
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
