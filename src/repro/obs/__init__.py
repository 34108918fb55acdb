"""Zero-dependency tracing + metrics for campaign observability.

The paper's campaigns (§2.2.5) were diagnosed from raw Dask worker
logs; this package gives the reproduction first-class telemetry
instead:

* :mod:`repro.obs.trace` — :class:`Span` context managers and a
  process-wide :class:`Tracer` streaming strict-JSON span/event lines
  to a trace file (a :class:`NullTracer` no-op is the default, cheap
  enough for hot paths);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms, snapshot-able and exportable in
  Prometheus text format;
* :mod:`repro.obs.report` — trace-file analysis: wall-clock breakdown,
  worker utilization, and straggler/fault summaries (the
  ``repro-hpo trace`` subcommand);
* :mod:`repro.obs.live` — the live plane: a thread-safe
  :class:`CampaignStatus` snapshot the drivers publish into,
  :class:`ConvergenceTelemetry` (per-generation hypervolume / front
  gauges), and the :class:`ObservabilityServer` serving ``/metrics``
  and ``/status`` over HTTP (``repro-hpo run --serve-metrics PORT``,
  watched live with ``repro-hpo monitor``).

The engine, process pool and its workers, cluster simulation,
trainer, EA loop, and campaign driver are all instrumented; enable
capture by installing a tracer::

    from repro.obs import Tracer, set_tracer
    set_tracer(Tracer("runs/campaign-trace.jsonl"))
"""

from repro.obs.live import (
    DEFAULT_REFERENCE_POINT,
    NULL_STATUS,
    CampaignStatus,
    ConvergenceTelemetry,
    NullCampaignStatus,
    ObservabilityServer,
    get_status,
    set_status,
    use_status,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    get_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    use_tracer,
)
from repro.obs.report import (
    render_trace_report,
    report_from_file,
    straggler_summary,
    wallclock_breakdown,
    worker_utilization,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "escape_label_value",
    "get_registry",
    "CampaignStatus",
    "NullCampaignStatus",
    "NULL_STATUS",
    "ConvergenceTelemetry",
    "ObservabilityServer",
    "DEFAULT_REFERENCE_POINT",
    "get_status",
    "set_status",
    "use_status",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "read_trace",
    "render_trace_report",
    "report_from_file",
    "wallclock_breakdown",
    "worker_utilization",
    "straggler_summary",
]
