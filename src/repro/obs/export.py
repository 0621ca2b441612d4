"""Exporters: Prometheus text exposition, JSON snapshots, report tables,
and an optional ``/metrics`` HTTP endpoint.

Every exporter consumes either a live :class:`~repro.obs.metrics.MetricsRegistry`
or a snapshot dict previously produced by :meth:`MetricsRegistry.snapshot`,
so the same code path serves live scrapes and post-mortem files.

The Prometheus format emitted here is the plain text exposition format
(``# HELP`` / ``# TYPE`` lines, ``name{label="value"} value`` samples,
cumulative ``_bucket``/``_sum``/``_count`` histogram series), and
:func:`parse_prometheus_text` reads it back — the round trip is covered by
``tests/test_obs_export.py``.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def _repro_version() -> str:
    from repro import __version__  # lazy: repro.obs must not import repro eagerly

    return __version__


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_block(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in merged.items()
    )
    return "{" + body + "}"


def _as_snapshot(source) -> dict:
    if isinstance(source, dict):
        return source
    return source.snapshot()


def prometheus_text(source) -> str:
    """Prometheus text exposition of a registry or snapshot.

    A synthetic ``repro_build_info{version="..."} 1`` gauge is appended so
    every scrape/file records the producing library version.
    """
    snapshot = _as_snapshot(source)
    lines: list[str] = []
    for family in snapshot["metrics"]:
        name, kind = family["name"], family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                for bound, count in sample["buckets"]:
                    le = _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_label_block(labels, {'le': le})} "
                        f"{_format_value(count)}"
                    )
                lines.append(
                    f"{name}_sum{_label_block(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_block(labels)} "
                    f"{_format_value(sample['count'])}"
                )
            else:
                lines.append(
                    f"{name}{_label_block(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    lines.append("# HELP repro_build_info Producing repro library version.")
    lines.append("# TYPE repro_build_info gauge")
    lines.append(
        "repro_build_info"
        + _label_block({"version": snapshot.get("repro_version")
                        or _repro_version()})
        + " 1"
    )
    return "\n".join(lines) + "\n"


def json_snapshot(source) -> dict:
    """JSON-able snapshot of a registry, stamped with the library version."""
    snapshot = dict(_as_snapshot(source))
    snapshot.setdefault("repro_version", _repro_version())
    return snapshot


def write_metrics(source, path: str | Path) -> Path:
    """Write a metrics file; ``.json`` gets a JSON snapshot, anything else
    the Prometheus text exposition."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.dumps(json_snapshot(source), indent=2) + "\n"
    else:
        payload = prometheus_text(source)
    path.write_text(payload, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Fleet federation
# ---------------------------------------------------------------------------

_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _scan_family_meta(text: str) -> tuple[dict[str, str], dict[str, str], list[str]]:
    """``# TYPE`` / ``# HELP`` declarations of one exposition, in order."""
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    order: list[str] = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) >= 4:
                name, kind = parts[2], parts[3]
                if name not in types:
                    order.append(name)
                types[name] = kind
        elif line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) >= 4:
                helps.setdefault(parts[2], parts[3])
    return types, helps, order


def _family_of(sample_name: str, types: dict[str, str]) -> str:
    """The family a sample series belongs to (histogram suffixes folded)."""
    if sample_name in types:
        return sample_name
    for suffix in _HISTOGRAM_SUFFIXES:
        base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return sample_name


def federate_prometheus(
    own_text: str,
    expositions: list[tuple[str, str]],
    label: str = "worker",
    aggregate_value: str = "all",
) -> str:
    """Merge worker ``/metrics`` expositions into one federated exposition.

    ``expositions`` is ``[(worker_id, prometheus_text), ...]`` as scraped
    from each fleet worker.  The result is ``own_text`` (the front door's
    own metrics, unlabeled) followed by every worker sample re-emitted
    with a ``worker="<id>"`` label, plus fleet-wide aggregate series under
    ``worker="all"`` — counters summed and histogram ``_bucket``/``_sum``/
    ``_count`` series merged bucket-by-bucket across workers.  Gauges stay
    per-worker only (summing a queue depth is meaningful; summing a hit
    *ratio* is not, so no gauge aggregate is fabricated).

    Family ``# TYPE``/``# HELP`` declarations already present in
    ``own_text`` are not re-declared, keeping the merged exposition valid
    for a strict Prometheus scraper.
    """
    own_types, _, _ = _scan_family_meta(own_text)
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    order: list[str] = []
    # family -> list of (sample_name, worker_id, labels, value)
    collected: dict[str, list[tuple[str, str, dict, float]]] = {}
    for worker_id, text in expositions:
        worker_types, worker_helps, worker_order = _scan_family_meta(text)
        for name in worker_order:
            if name not in types:
                types[name] = worker_types[name]
                order.append(name)
            if name in worker_helps:
                helps.setdefault(name, worker_helps[name])
        for sample_name, entries in parse_prometheus_text(text).items():
            family = _family_of(sample_name, worker_types)
            for labels, value in entries:
                collected.setdefault(family, []).append(
                    (sample_name, worker_id, labels, value)
                )
    lines: list[str] = [own_text.rstrip("\n")] if own_text else []
    for family in order:
        entries = collected.get(family)
        if not entries:
            continue
        kind = types[family]
        if family not in own_types:
            if family in helps:
                lines.append(f"# HELP {family} {helps[family]}")
            lines.append(f"# TYPE {family} {kind}")
        aggregates: dict[tuple[str, tuple], float] = {}
        for sample_name, worker_id, labels, value in entries:
            lines.append(
                f"{sample_name}{_label_block(labels, {label: worker_id})} "
                f"{_format_value(value)}"
            )
            if kind in ("counter", "histogram") and not math.isnan(value):
                group = (sample_name, tuple(sorted(labels.items())))
                aggregates[group] = aggregates.get(group, 0.0) + value
        for (sample_name, label_items), total in aggregates.items():
            lines.append(
                f"{sample_name}"
                f"{_label_block(dict(label_items), {label: aggregate_value})} "
                f"{_format_value(total)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reading metrics back
# ---------------------------------------------------------------------------

def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse text exposition back into ``{name: [(labels, value), ...]}``.

    Handles exactly what :func:`prometheus_text` emits (one sample per
    line, quoted label values with ``\\\\``/``\\"`` escapes); ``# HELP`` /
    ``# TYPE`` and blank lines are skipped.  Histogram ``_bucket``/``_sum``/
    ``_count`` series appear under their suffixed sample names.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_body, value_part = rest.rsplit("}", 1)
            labels = _parse_labels(label_body)
        else:
            name, value_part = line.split(None, 1)
            labels = {}
        value_text = value_part.strip()
        value = {"+Inf": math.inf, "-Inf": -math.inf}.get(
            value_text, None
        )
        if value is None:
            value = float("nan") if value_text == "NaN" else float(value_text)
        samples.setdefault(name, []).append((labels, value))
    return samples


def _parse_labels(body: str) -> dict:
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq].strip().lstrip(",").strip()
        assert body[eq + 1] == '"', "label values must be quoted"
        j = eq + 2
        chunks: list[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                escaped = body[j + 1]
                chunks.append({"n": "\n"}.get(escaped, escaped))
                j += 2
            else:
                chunks.append(body[j])
                j += 1
        labels[name] = "".join(chunks)
        i = j + 1
    return labels


def load_metrics(path: str | Path) -> dict[str, list[tuple[dict, float]]]:
    """Load a metrics file written by :func:`write_metrics` (either format)
    into the flat ``{name: [(labels, value), ...]}`` sample map."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        snapshot = json.loads(text)
        samples: dict[str, list[tuple[dict, float]]] = {}
        for family in snapshot["metrics"]:
            name, kind = family["name"], family["type"]
            for sample in family["samples"]:
                labels = sample["labels"]
                if kind == "histogram":
                    for bound, count in sample["buckets"]:
                        samples.setdefault(f"{name}_bucket", []).append(
                            ({**labels, "le": _format_value(float(bound))},
                             count)
                        )
                    samples.setdefault(f"{name}_sum", []).append(
                        (labels, sample["sum"])
                    )
                    samples.setdefault(f"{name}_count", []).append(
                        (labels, sample["count"])
                    )
                else:
                    samples.setdefault(name, []).append(
                        (labels, sample["value"])
                    )
        if "repro_version" in snapshot:
            samples.setdefault("repro_build_info", []).append(
                ({"version": snapshot["repro_version"]}, 1.0)
            )
        return samples
    return parse_prometheus_text(text)


def render_report(source) -> str:
    """Human-readable metrics table (the ``repro obs report`` body)."""
    from repro.analysis import table  # lazy: avoid import cycles

    snapshot = _as_snapshot(source)
    rows = []
    for family in snapshot["metrics"]:
        for sample in family["samples"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sample["labels"].items()
            ) or "-"
            if family["type"] == "histogram":
                count = sample["count"]
                mean = sample["sum"] / count if count else 0.0
                value = f"count={_format_value(count)} mean={mean:.6g}"
            else:
                value = _format_value(sample["value"])
            rows.append([family["name"], family["type"], labels, value])
    if not rows:
        return "no metrics recorded"
    version = snapshot.get("repro_version") or _repro_version()
    return (
        table(["metric", "type", "labels", "value"], rows)
        + f"\nproduced by repro {version}"
    )


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------

class MetricsServer:
    """Background ``/metrics`` HTTP endpoint over a live registry.

    Args:
        registry: the registry to scrape (defaults to the process-wide one).
        port: TCP port; ``0`` picks an ephemeral port (see ``.port``).
        host: bind address (loopback by default).
    """

    def __init__(self, registry=None, port: int = 0, host: str = "127.0.0.1"):
        if registry is None:
            from repro.obs import REGISTRY

            registry = REGISTRY
        self.registry = registry

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                body = prometheus_text(server.registry).encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request spam
                return None

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
