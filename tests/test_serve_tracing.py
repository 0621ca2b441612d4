"""Request-level tracing on the serve path: X-Request-Id echoes,
traceparent joins, batch span links, and slow-trace capture."""

from __future__ import annotations

import json
import re

import pytest

from repro import obs
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.server import capture_slow_trace

REQ = {"serial": "S0", "subarrays": 2, "rows": 64, "columns": 128,
       "intervals": [0.512, 16.0]}


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def server():
    thread = ServerThread(ServeConfig(port=0))
    yield thread
    thread.shutdown()


# ---------------------------------------------------------------------------
# X-Request-Id
# ---------------------------------------------------------------------------

def test_server_mints_a_request_id(server):
    with ServeClient(port=server.port) as client:
        client.healthz()
        assert client.last_request_id
        assert re.fullmatch(r"[0-9a-f]{32}", client.last_request_id)


def test_client_supplied_request_id_is_echoed(server):
    with ServeClient(
        port=server.port, headers={"X-Request-Id": "req-abc-123"}
    ) as client:
        client.healthz()
        assert client.last_request_id == "req-abc-123"


def test_malformed_traceparent_is_not_an_error(server):
    with ServeClient(
        port=server.port, headers={"traceparent": "definitely-not-w3c"}
    ) as client:
        body = client.healthz()
        assert body["status"] in ("ok", "draining")
        assert re.fullmatch(r"[0-9a-f]{32}", client.last_request_id)


# ---------------------------------------------------------------------------
# Trace propagation (client span -> serve.request -> serve.batch -> engine)
# ---------------------------------------------------------------------------

def test_client_trace_joins_the_server_trace(server):
    obs.enable()
    with ServeClient(port=server.port) as client:
        with obs.span("caller") as caller:
            client.characterize(REQ)
    spans = obs.finished_spans()
    requests = [s for s in spans if s["name"] == "serve.request"]
    assert requests, "server did not record a serve.request span"
    assert any(s["trace_id"] == caller.trace_id for s in requests)
    # The whole pipeline rode the same trace: batch + engine spans too.
    names_on_trace = {
        s["name"] for s in spans if s["trace_id"] == caller.trace_id
    }
    assert "serve.batch" in names_on_trace
    assert "engine.unit" in names_on_trace
    # And the server echoed the trace id as the minted request id.
    assert client.last_request_id == caller.trace_id


def test_answered_request_is_marked_on_its_request_span(server):
    """A repeat answered from the memory tier opens no batch span; its
    request span says where the answer came from."""
    obs.enable()
    with ServeClient(port=server.port) as client:
        first = client.characterize(REQ)
        assert client.characterize(REQ) == first
    spans = obs.finished_spans()
    requests = [s for s in spans if s["name"] == "serve.request"]
    assert [s["attributes"].get("answered") for s in requests] == [None, "memory"]
    assert len([s for s in spans if s["name"] == "serve.batch"]) == 1


def test_requests_without_traceparent_get_distinct_traces(server):
    obs.enable()
    with ServeClient(port=server.port) as client:
        client.healthz()
        first = client.last_request_id
        client.healthz()
        second = client.last_request_id
    assert first != second


# ---------------------------------------------------------------------------
# Slow-trace capture
# ---------------------------------------------------------------------------

def test_slow_capture_writes_the_span_tree(tmp_path):
    obs.enable()
    thread = ServerThread(
        ServeConfig(
            port=0,
            trace_dir=str(tmp_path),
            slow_trace_ms=0.0,  # capture everything
        )
    )
    try:
        with ServeClient(port=thread.port) as client:
            client.characterize(REQ)
            request_id = client.last_request_id
    finally:
        thread.shutdown()
    captures = sorted(tmp_path.glob("slow-*.jsonl"))
    assert captures, "no slow-trace capture file written"
    entries = [
        json.loads(line)
        for path in captures
        for line in path.read_text().splitlines()
    ]
    match = [e for e in entries if e["request_id"] == request_id]
    assert match, f"request {request_id} not captured"
    entry = match[0]
    assert entry["route"] == "/v1/characterize"
    assert entry["duration_s"] >= 0.0
    names = {span["name"] for span in entry["spans"]}
    assert {"serve.request", "serve.batch", "engine.unit"} <= names
    assert {span["trace_id"] for span in entry["spans"]} == {entry["trace_id"]}


def test_fast_requests_are_not_captured(tmp_path):
    obs.enable()
    assert (
        capture_slow_trace(
            str(tmp_path), 10_000.0, "ab" * 16, "req", "/healthz", 0.001
        )
        is None
    )
    assert list(tmp_path.glob("slow-*.jsonl")) == []


def test_capture_disabled_without_trace_dir(tmp_path):
    assert (
        capture_slow_trace(None, 0.0, "ab" * 16, "req", "/healthz", 1.0) is None
    )


# ---------------------------------------------------------------------------
# Batch links (coalesced requests are linked, not silently merged)
# ---------------------------------------------------------------------------

def test_batch_span_lives_on_the_primary_trace(server):
    obs.enable()
    with ServeClient(port=server.port) as client:
        client.characterize(REQ)
    spans = obs.finished_spans()
    batches = [s for s in spans if s["name"] == "serve.batch"]
    requests = [s for s in spans if s["name"] == "serve.request"]
    assert batches and requests
    request_traces = {s["trace_id"] for s in requests}
    assert batches[-1]["trace_id"] in request_traces
