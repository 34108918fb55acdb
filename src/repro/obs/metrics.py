"""Counters, gauges, fixed-bucket histograms, and their registry.

Ad-hoc ``tasks_*`` integers answered "how many" but not "how long" or
"how spread out" — and every new subsystem grew its own counters.
:class:`MetricsRegistry` centralizes them: named counters (monotonic
totals), gauges (instantaneous levels like busy workers), and
fixed-bucket histograms (queue-wait and run-time distributions), all
thread-safe, snapshot-able as a plain dict, and
exportable in the Prometheus text exposition format so a real
deployment can be scraped.

Everything here is zero-dependency and cheap: a counter increment is
one lock acquisition and one float add.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import re
import threading
from typing import Any, Optional, Sequence

#: default histogram buckets (seconds): spans sub-millisecond task
#: handoffs through the paper's 2-hour training cap
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
    1800.0,
    7200.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: the Prometheus data model: metric names match
#: ``[a-zA-Z_:][a-zA-Z0-9_:]*``, label names the same minus colons
_VALID_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_VALID_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _prom_name(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def escape_label_value(value: str) -> str:
    """Escape a label value for the text exposition format.

    Backslash, double-quote, and newline are the three characters the
    format reserves inside quoted label values; anything else (UTF-8
    included) passes through unchanged.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: dict[str, str], extra: str = "") -> str:
    """``{k="v",...}`` with escaped values (empty string for none)."""
    pairs = [
        f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _validate_series(name: str, labels: dict[str, str]) -> None:
    # dots are a supported legacy spelling ("wait.seconds") that the
    # exporter deterministically maps to underscores; validate what
    # the scrape will actually see
    if not _VALID_METRIC_NAME.match(name.replace(".", "_")):
        raise ValueError(
            f"invalid Prometheus metric name {name!r} "
            "(must match [a-zA-Z_:][a-zA-Z0-9_:]*)"
        )
    for label in labels:
        if not _VALID_LABEL_NAME.match(label):
            raise ValueError(
                f"invalid Prometheus label name {label!r} "
                "(must match [a-zA-Z_][a-zA-Z0-9_]*)"
            )


class Counter:
    """A monotonically increasing total.

    The unit increment is a bare ``next()`` on an ``itertools.count``
    — a single C call, atomic under the GIL, no lock — because the
    engine and the pool bump counters on every task transition.  Bulk and
    fractional increments go through a lock.
    """

    __slots__ = ("name", "labels", "_ticks", "_lock", "_bulk")

    def __init__(
        self, name: str, labels: Optional[dict[str, str]] = None
    ) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._ticks = itertools.count()
        self._lock = threading.Lock()
        self._bulk = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount == 1.0:
            next(self._ticks)
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._bulk += amount

    @property
    def value(self) -> float:
        # a copy's next() reads the tick count without advancing it
        ticks = next(copy.copy(self._ticks))
        with self._lock:
            return ticks + self._bulk


class Gauge:
    """An instantaneous level (busy workers, queue depth).

    Unit ``inc``/``dec`` are lock-free atomic tick advances (hot path:
    workers flipping busy/idle per task); ``set`` and non-unit deltas
    rebase through a lock.
    """

    __slots__ = ("name", "labels", "_ups", "_downs", "_lock", "_base")

    def __init__(
        self, name: str, labels: Optional[dict[str, str]] = None
    ) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._ups = itertools.count()
        self._downs = itertools.count()
        self._lock = threading.Lock()
        self._base = 0.0

    def _ticks(self) -> float:
        return next(copy.copy(self._ups)) - next(copy.copy(self._downs))

    def set(self, value: float) -> None:
        # fresh tick counters rebase without reading the old ones (a
        # hot path: the engine sets its rate gauge per candidate); a
        # unit inc/dec racing the swap lands on the counter it read,
        # i.e. before the set, which overrides it
        with self._lock:
            self._ups = itertools.count()
            self._downs = itertools.count()
            self._base = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if amount == 1.0:
            next(self._ups)
            return
        with self._lock:
            self._base += amount

    def dec(self, amount: float = 1.0) -> None:
        if amount == 1.0:
            next(self._downs)
            return
        with self._lock:
            self._base -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._base + self._ticks()


class Histogram:
    """Fixed-bucket histogram (cumulative, Prometheus-style).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the tail.  ``observe`` is a bisect plus two adds.
    """

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "_lock",
        "_counts",
        "_sum",
        "_count",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[dict[str, str]] = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("need at least one bucket bound")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf tail
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def summary(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            s = self._sum
        return {
            "count": total,
            "sum": s,
            "mean": (s / total) if total else 0.0,
            "buckets": {
                str(b): c for b, c in zip(self.buckets, counts[:-1])
            }
            | {"+Inf": counts[-1]},
        }

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket where
        the ``q``-th observation lands (the last finite bound for the
        +Inf tail)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for bound, c in zip(self.buckets, counts[:-1]):
            seen += c
            if seen >= rank:
                return bound
        return self.buckets[-1]


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Re-requesting a name (with the same labels) returns the same
    instrument (so modules can grab handles independently); requesting
    an existing series as a different kind raises.  Metric and label
    names are validated against the Prometheus charset at creation —
    better a loud ``ValueError`` at the instrumentation site than a
    scrape that silently fails to parse.  Label *values* are free-form;
    the exporter escapes them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(
        self,
        name: str,
        kind,
        *args,
        labels: Optional[dict[str, str]] = None,
    ) -> Any:
        labels = {str(k): str(v) for k, v in (labels or {}).items()}
        _validate_series(name, labels)
        key = name + _render_labels(labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = kind(name, *args, labels=labels)
                self._metrics[key] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {key!r} already registered as "
                    f"{type(metric).__name__}"
                )
            return metric

    def counter(
        self, name: str, labels: Optional[dict[str, str]] = None
    ) -> Counter:
        return self._get_or_create(name, Counter, labels=labels)

    def gauge(
        self, name: str, labels: Optional[dict[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(name, Gauge, labels=labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[dict[str, str]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, buckets or DEFAULT_BUCKETS, labels=labels
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time dict view: counters/gauges as numbers,
        histograms as their :meth:`~Histogram.summary` dict."""
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, Any] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every metric.

        Labeled series of the same metric name share one ``# TYPE``
        header; label values are escaped per the format's rules
        (backslash, double-quote, newline).
        """
        with self._lock:
            metrics = dict(self._metrics)
        lines: list[str] = []
        typed: set[str] = set()
        for key in sorted(metrics):
            metric = metrics[key]
            pname = _prom_name(metric.name)
            labels = _render_labels(metric.labels)
            if isinstance(metric, Counter):
                if pname not in typed:
                    lines.append(f"# TYPE {pname} counter")
                    typed.add(pname)
                lines.append(f"{pname}{labels} {metric.value:g}")
            elif isinstance(metric, Gauge):
                if pname not in typed:
                    lines.append(f"# TYPE {pname} gauge")
                    typed.add(pname)
                lines.append(f"{pname}{labels} {metric.value:g}")
            else:
                if pname not in typed:
                    lines.append(f"# TYPE {pname} histogram")
                    typed.add(pname)
                summary = metric.summary()
                cumulative = 0
                for bound in metric.buckets:
                    cumulative += summary["buckets"][str(bound)]
                    le = _render_labels(
                        metric.labels, extra=f'le="{bound:g}"'
                    )
                    lines.append(f"{pname}_bucket{le} {cumulative}")
                cumulative += summary["buckets"]["+Inf"]
                le = _render_labels(metric.labels, extra='le="+Inf"')
                lines.append(f"{pname}_bucket{le} {cumulative}")
                lines.append(f"{pname}_sum{labels} {summary['sum']:g}")
                lines.append(f"{pname}_count{labels} {summary['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (components that want
    isolation — e.g. a test's :class:`~repro.engine.ProcessPoolBackend`
    — pass their own)."""
    return _global_registry
