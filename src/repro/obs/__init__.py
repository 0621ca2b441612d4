"""``repro.obs``: process-wide, zero-cost-when-off observability.

Three pieces (see ``docs/OBSERVABILITY.md`` for the metric catalog and
span conventions):

* a **metrics registry** — :func:`counter` / :func:`gauge` /
  :func:`histogram` families with labeled children, lock-free in the hot
  path via thread-local shards merged on scrape;
* **span tracing** — ``with obs.span("engine.characterize", units=...)``
  regions that nest, follow a request across processes and hosts through
  W3C ``traceparent`` headers, and degrade to a shared no-op when
  disabled; :func:`record_span` records work timed elsewhere (the
  engine's ``engine.unit`` spans);
* **exporters** — Prometheus text exposition (:func:`prometheus_text`,
  :class:`MetricsServer`), JSON snapshots (:func:`json_snapshot`), span
  JSONL (:func:`stream_spans`), and the ``repro obs report`` CLI table
  (:func:`render_report`).

Everything is **off by default**: instrumented call sites cost one module
attribute read and a branch.  Switch on with :func:`enable`, the
``REPRO_OBS=1`` environment variable, or the CLI ``--metrics`` /
``--metrics-port`` flags.
"""

from __future__ import annotations

import os

from repro.obs import state as _state
from repro.obs import tracing as _tracing
from repro.obs.export import (
    MetricsServer,
    federate_prometheus,
    json_snapshot,
    load_metrics,
    parse_prometheus_text,
    prometheus_text,
    render_report,
    write_metrics,
)
from repro.obs.logs import JsonLineFormatter, get_logger, worker_index
from repro.obs.logs import configure as configure_logging
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import (
    Span,
    TraceContext,
    current_context,
    current_span,
    dropped_spans,
    extract,
    finished_spans,
    inject,
    new_trace_id,
    record_span,
    span,
    stream_spans,
    take_trace,
    use_context,
)

#: The process-wide default registry every ``repro`` layer instruments.
REGISTRY = MetricsRegistry()


def enable() -> None:
    """Turn observability on (metrics mutate, spans record)."""
    _state.enabled = True


def disable() -> None:
    """Turn observability off (instrumentation returns to no-ops)."""
    _state.enabled = False


def is_enabled() -> bool:
    """Whether observability is currently on."""
    return _state.enabled


def counter(name: str, help: str = "", labelnames: tuple[str, ...] = ()):
    """Get-or-create a counter family on the default registry."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: tuple[str, ...] = ()):
    """Get-or-create a gauge family on the default registry."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: tuple[str, ...] = (),
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
):
    """Get-or-create a histogram family on the default registry."""
    return REGISTRY.histogram(name, help, labelnames, buckets)


def snapshot() -> dict:
    """JSON-able image of the default registry (version-stamped)."""
    return json_snapshot(REGISTRY)


def reset() -> None:
    """Zero every metric and clear the span buffer (pre-bound children
    stay valid).  Primarily test/bench hygiene."""
    REGISTRY.reset()
    _tracing.clear()


if os.environ.get("REPRO_OBS", "").strip() in ("1", "true", "yes", "on"):
    enable()


__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "Span",
    "TraceContext",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "current_span",
    "current_context",
    "span",
    "record_span",
    "stream_spans",
    "inject",
    "extract",
    "use_context",
    "new_trace_id",
    "take_trace",
    "finished_spans",
    "dropped_spans",
    "configure_logging",
    "get_logger",
    "worker_index",
    "enable",
    "disable",
    "is_enabled",
    "snapshot",
    "reset",
    "prometheus_text",
    "federate_prometheus",
    "json_snapshot",
    "parse_prometheus_text",
    "load_metrics",
    "render_report",
    "write_metrics",
]
