"""Exporters: Prometheus text round-trip (through an independent in-test
parser), JSON snapshots, file I/O, the report table, and the HTTP endpoint."""

from __future__ import annotations

import json
import math
import re
import urllib.request

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    obs.enable()
    reg.counter("cmds_total", "commands issued", ("kind",)).labels(
        kind="ACT"
    ).inc(12)
    reg.counter("cmds_total", "", ("kind",)).labels(kind="PRE").inc(12)
    reg.gauge("depth", "queue depth").set(3)
    hist = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return reg


# ---------------------------------------------------------------------------
# A minimal, independent parser of the Prometheus text format — written from
# the format spec, NOT from repro's emitter, so the round-trip test cannot
# share bugs with `parse_prometheus_text`.
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>\S+)$'
)
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _minimal_parse(text: str) -> dict:
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        labels = frozenset(
            (name, value.replace('\\"', '"').replace("\\n", "\n")
             .replace("\\\\", "\\"))
            for name, value in _LABEL_RE.findall(match.group("labels") or "")
        )
        raw = match.group("value")
        value = {"+Inf": math.inf, "-Inf": -math.inf}.get(raw, None)
        samples[(match.group("name"), labels)] = (
            float(raw) if value is None else value
        )
    return samples


def test_prometheus_text_round_trip(populated_registry):
    text = obs.prometheus_text(populated_registry)
    parsed = _minimal_parse(text)
    assert parsed[("cmds_total", frozenset({("kind", "ACT")}))] == 12
    assert parsed[("cmds_total", frozenset({("kind", "PRE")}))] == 12
    assert parsed[("depth", frozenset())] == 3
    assert parsed[("lat_seconds_bucket", frozenset({("le", "0.1")}))] == 1
    assert parsed[("lat_seconds_bucket", frozenset({("le", "1")}))] == 2
    assert parsed[("lat_seconds_bucket", frozenset({("le", "+Inf")}))] == 3
    assert parsed[("lat_seconds_sum", frozenset())] == pytest.approx(5.55)
    assert parsed[("lat_seconds_count", frozenset())] == 3
    # Every scrape carries the producing library version.
    import repro

    assert (
        parsed[("repro_build_info",
                frozenset({("version", repro.__version__)}))] == 1
    )


def test_own_parser_agrees_with_minimal_parser(populated_registry):
    text = obs.prometheus_text(populated_registry)
    own = obs.parse_prometheus_text(text)
    flat_own = {
        (name, frozenset(labels.items())): value
        for name, entries in own.items()
        for labels, value in entries
    }
    assert flat_own == _minimal_parse(text)


def test_label_value_escaping_round_trip():
    reg = MetricsRegistry()
    obs.enable()
    nasty = 'quote " backslash \\ newline \n end'
    reg.counter("esc_total", "", ("v",)).labels(v=nasty).inc()
    parsed = obs.parse_prometheus_text(obs.prometheus_text(reg))
    (labels, value), = parsed["esc_total"]
    assert labels == {"v": nasty}
    assert value == 1


def test_help_text_escaping():
    reg = MetricsRegistry()
    reg.counter("h_total", "line one\nline two")
    text = obs.prometheus_text(reg)
    assert "# HELP h_total line one\\nline two" in text


def test_write_and_load_metrics_both_formats(tmp_path, populated_registry):
    prom = obs.write_metrics(populated_registry, tmp_path / "m.prom")
    as_json = obs.write_metrics(populated_registry, tmp_path / "m.json")
    loaded_prom = obs.load_metrics(prom)
    loaded_json = obs.load_metrics(as_json)
    for loaded in (loaded_prom, loaded_json):
        flat = {
            (name, frozenset(labels.items())): value
            for name, entries in loaded.items()
            for labels, value in entries
        }
        assert flat[("cmds_total", frozenset({("kind", "ACT")}))] == 12
        assert flat[("lat_seconds_count", frozenset())] == 3
    json.loads(as_json.read_text())  # the .json file is real JSON


def test_json_snapshot_stamped_with_version(populated_registry):
    import repro

    snapshot = obs.json_snapshot(populated_registry)
    assert snapshot["repro_version"] == repro.__version__


def test_render_report_lists_every_series(populated_registry):
    report = obs.render_report(populated_registry)
    assert "cmds_total" in report
    assert "kind=ACT" in report
    assert "count=3" in report
    assert "produced by repro" in report


def test_render_report_empty():
    assert obs.render_report(MetricsRegistry()) == "no metrics recorded"


def test_spans_jsonl_round_trip(tmp_path):
    """`stream_spans` appends each span as it finishes: the inner span is
    on disk before the outer one ends, and the file holds exactly the
    buffered records."""
    obs.enable()
    path = tmp_path / "spans.jsonl"

    def names_on_disk() -> list[str]:
        return [json.loads(line)["name"] for line in path.read_text().splitlines()]

    with obs.stream_spans(path):
        with obs.span("outer", level=1):
            with obs.span("inner"):
                pass
            assert names_on_disk() == ["inner"]
    with obs.span("after"):  # outside the block: buffered, not streamed
        pass
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records == obs.finished_spans()[:2]
    inner, outer = records
    assert inner["parent_id"] == outer["span_id"]
    assert inner["attributes"] == {}
    assert outer["attributes"] == {"level": 1}


def test_stream_spans_appends_and_none_is_a_noop(tmp_path):
    obs.enable()
    path = tmp_path / "spans.jsonl"
    for name in ("first", "second"):
        with obs.stream_spans(path), obs.span(name):
            pass
    with obs.stream_spans(None), obs.span("unstreamed"):
        pass
    names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
    assert names == ["first", "second"]


def test_metrics_server_serves_current_state(populated_registry):
    with obs.MetricsServer(registry=populated_registry, port=0) as server:
        body = urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics", timeout=5
        ).read().decode()
        assert _minimal_parse(body)[
            ("cmds_total", frozenset({("kind", "ACT")}))
        ] == 12
        # The endpoint is live, not a point-in-time file.
        populated_registry.counter("cmds_total", "", ("kind",)).labels(
            kind="ACT"
        ).inc()
        body = urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics", timeout=5
        ).read().decode()
        assert _minimal_parse(body)[
            ("cmds_total", frozenset({("kind", "ACT")}))
        ] == 13
    with pytest.raises(OSError):
        urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics", timeout=1
        )
