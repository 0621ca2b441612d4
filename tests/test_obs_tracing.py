"""Distributed tracing: trace identity, W3C traceparent propagation,
span links, and the late-mutation regression."""

from __future__ import annotations

import re

import pytest

from repro import obs

VALID_TRACE = "0af7651916cd43dd8448eb211c80319c"
VALID_SPAN = "b7ad6b7169203331"


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# Trace identity
# ---------------------------------------------------------------------------

def test_ids_are_well_formed():
    assert re.fullmatch(r"[0-9a-f]{32}", obs.new_trace_id())
    obs.enable()
    with obs.span("root") as span:
        assert re.fullmatch(r"[0-9a-f]{32}", span.trace_id)
        assert re.fullmatch(r"[0-9a-f]{16}", span.span_id)


def test_children_inherit_the_root_trace():
    obs.enable()
    with obs.span("root") as root:
        with obs.span("child") as child:
            with obs.span("grandchild") as grandchild:
                assert child.trace_id == root.trace_id
                assert grandchild.trace_id == root.trace_id
                assert grandchild.parent_id == child.span_id
    records = {record["name"]: record for record in obs.finished_spans()}
    assert records["child"]["trace_id"] == records["root"]["trace_id"]
    assert records["grandchild"]["trace_id"] == records["root"]["trace_id"]


def test_sibling_roots_get_distinct_traces():
    obs.enable()
    with obs.span("first") as first:
        first_trace = first.trace_id
    with obs.span("second") as second:
        assert second.trace_id != first_trace


# ---------------------------------------------------------------------------
# traceparent inject / extract
# ---------------------------------------------------------------------------

def test_inject_extract_round_trip():
    obs.enable()
    with obs.span("outgoing") as span:
        headers = obs.inject({})
    context = obs.extract(headers)
    assert context is not None
    assert context.trace_id == span.trace_id
    assert context.span_id == span.span_id


def test_use_context_parents_the_next_root_span():
    obs.enable()
    context = obs.TraceContext(trace_id=VALID_TRACE, span_id=VALID_SPAN)
    with obs.use_context(context):
        with obs.span("remote-child") as span:
            assert span.trace_id == VALID_TRACE
            assert span.parent_id == VALID_SPAN
        # An active span still beats the ambient remote context.
        with obs.span("root") as root:
            with obs.span("nested") as nested:
                assert nested.parent_id == root.span_id


def test_inject_without_identity_is_a_noop():
    obs.enable()
    assert "traceparent" not in obs.inject({})


def test_traceparent_format():
    context = obs.TraceContext(trace_id=VALID_TRACE, span_id=VALID_SPAN)
    assert context.traceparent() == f"00-{VALID_TRACE}-{VALID_SPAN}-01"


@pytest.mark.parametrize("value", [
    "",
    "garbage",
    f"00-{VALID_TRACE}-{VALID_SPAN}",           # truncated
    f"00-{VALID_TRACE[:-2]}-{VALID_SPAN}-01",   # short trace id
    f"00-{VALID_TRACE}-{VALID_SPAN}-0",         # short flags
    f"ff-{VALID_TRACE}-{VALID_SPAN}-01",        # forbidden version
    f"0g-{VALID_TRACE}-{VALID_SPAN}-01",        # non-hex version
    f"00-{'0' * 32}-{VALID_SPAN}-01",           # all-zero trace id
    f"00-{VALID_TRACE}-{'0' * 16}-01",          # all-zero span id
    f"00-{VALID_TRACE.upper()}-{VALID_SPAN}-01",  # uppercase forbidden
])
def test_malformed_traceparent_extracts_to_none(value):
    assert obs.extract({"traceparent": value}) is None


def test_extract_missing_or_non_string_header():
    assert obs.extract({}) is None
    assert obs.extract({"traceparent": 7}) is None


def test_malformed_header_falls_back_to_a_fresh_trace():
    obs.enable()
    with obs.use_context(obs.extract({"traceparent": "broken"})):
        with obs.span("request") as span:
            assert span.parent_id is None
            assert re.fullmatch(r"[0-9a-f]{32}", span.trace_id)


def test_current_context_prefers_the_active_span():
    obs.enable()
    remote = obs.TraceContext(trace_id=VALID_TRACE, span_id=VALID_SPAN)
    with obs.use_context(remote):
        assert obs.current_context() == remote
        with obs.span("active") as span:
            context = obs.current_context()
            assert context.span_id == span.span_id
            assert context.trace_id == VALID_TRACE
    assert obs.current_context() is None


# ---------------------------------------------------------------------------
# Span links
# ---------------------------------------------------------------------------

def test_links_are_recorded_on_the_finished_span():
    obs.enable()
    with obs.span("batch") as span:
        span.add_link(VALID_TRACE, VALID_SPAN)
    (record,) = obs.finished_spans()
    assert record["links"] == [{"trace_id": VALID_TRACE, "span_id": VALID_SPAN}]


def test_unlinked_spans_omit_the_links_key():
    obs.enable()
    with obs.span("plain"):
        pass
    (record,) = obs.finished_spans()
    assert "links" not in record


# ---------------------------------------------------------------------------
# Late-mutation regression
# ---------------------------------------------------------------------------

def test_set_attribute_after_exit_does_not_rewrite_history():
    obs.enable()
    span = obs.span("late")
    with span:
        span.set_attribute("during", 1)
    span.set_attribute("after", 2)
    span.add_link(VALID_TRACE, VALID_SPAN)
    (record,) = obs.finished_spans()
    assert record["attributes"] == {"during": 1}
    assert "links" not in record


# ---------------------------------------------------------------------------
# take_trace
# ---------------------------------------------------------------------------

def test_take_trace_removes_only_that_traces_spans():
    obs.enable()
    with obs.span("request-a") as a:
        with obs.span("inner-a"):
            pass
        trace_a = a.trace_id
    with obs.span("request-b"):
        pass
    taken = obs.take_trace(trace_a)
    assert {record["name"] for record in taken} == {"request-a", "inner-a"}
    assert [record["name"] for record in obs.finished_spans()] == ["request-b"]
    assert obs.take_trace(trace_a) == []
