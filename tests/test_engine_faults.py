"""Fault injection for the characterization engine.

Faults are injected deterministically through ``REPRO_ENGINE_FAULT``
(`repro.core.engine.FAULT_ENV`): a JSON spec selects a victim subarray, a
fault mode (``poison`` = the unit raises, ``hang`` = a pool thread sleeps
past the unit timeout), and how many attempts fault before the unit starts
succeeding (claimed atomically via marker files, so the budget is shared
across pool threads).

The invariants under test: a campaign never leaves a *silent* hole — a
failed unit is either retried to success, reported via
`UnitExecutionError`, or recorded as an explicit ``status="skipped"``
record in its exact plan slot — and whatever survives is bit-identical to
the serial, fault-free path.  Whatever the faults, each pass records one
``engine.unit`` span per unit, and ``engine_units_total{source}`` counts
exactly those spans.
"""

import json
import threading
import time
from functools import lru_cache

import pytest

from repro import obs
from repro.cli import _run_trace_summary
from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    Campaign,
    CharacterizationEngine,
    FailurePolicy,
    OutcomeCache,
    UnitExecutionError,
)
from repro.core.engine import FAULT_ENV

INTERVALS = (0.512, 16.0)
VICTIM = 1  # subarray index the injected faults target
UNITS = len(QUICK_SCALE.subarray_indices())  # one S0 pass: 1 chip, 1 bank

pytestmark = pytest.mark.engine


@lru_cache(maxsize=1)
def baseline():
    """Fault-free serial records for S0 at quick scale (4 units)."""
    return tuple(
        CharacterizationEngine(scale=QUICK_SCALE).characterize_module(
            "S0", WORST_CASE, INTERVALS
        )
    )


@pytest.fixture
def inject(monkeypatch, tmp_path):
    """Arm the deterministic fault injector for this test."""

    def _inject(mode: str, subarray: int = VICTIM, times: int = 1, **extra):
        baseline()  # computed fault-free, whichever test runs first
        obs.reset()  # its spans and unit counts are not the test's
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir(exist_ok=True)
        spec = {
            "mode": mode, "subarray": subarray, "times": times,
            "dir": str(fault_dir), **extra,
        }
        monkeypatch.setenv(FAULT_ENV, json.dumps(spec))

    return _inject


@pytest.fixture(autouse=True)
def two_cpus(confine):
    """These tests exercise pool mechanics (retries and timeouts on pool
    threads): a two-CPU affinity mask keeps a multi-worker engine on its
    pool even on a 1-CPU host."""
    confine(2)


def run(**knobs):
    engine = CharacterizationEngine(scale=QUICK_SCALE, **knobs)
    return engine.characterize_module("S0", WORST_CASE, INTERVALS)


def unit_spans(spans, passes: int = 1) -> list[dict]:
    """The ``engine.unit`` span attributes of ``passes`` engine passes,
    after checking there is one span per unit and that the per-source
    unit counter counts exactly those spans."""
    units = spans("engine.unit")
    assert len(units) == passes * UNITS
    samples = {
        sample["labels"]["source"]: sample["value"]
        for family in obs.snapshot()["metrics"]
        if family["name"] == "engine_units_total"
        for sample in family["samples"]
    }
    for source in ("computed", "memory", "disk", "skipped"):
        assert samples.get(source, 0) == sum(
            s["attributes"]["source"] == source for s in units
        ), source
    return [s["attributes"] for s in units]


def victim_span(attributes: list[dict]) -> dict:
    (victim,) = [a for a in attributes if a["subarray"] == VICTIM]
    return victim


# ---------------------------------------------------------------------------
# Poisoned workers (exceptions)
# ---------------------------------------------------------------------------

def assert_victim_retried_once(spans, executor: str) -> None:
    attributes = unit_spans(spans)
    assert [a["index"] for a in attributes] == list(range(UNITS))
    assert victim_span(attributes) == {
        "index": VICTIM, "serial": "S0", "chip": 0, "bank": 0,
        "subarray": VICTIM, "source": "computed", "attempts": 2,
        "executor": executor, "error": None,
    }
    assert all(
        a["attempts"] == 1 for a in attributes if a["subarray"] != VICTIM
    )


def test_poison_retried_serial(inject, spans):
    inject("poison", times=1)
    assert run(retries=1, retry_backoff=0.0) == list(baseline())
    assert_victim_retried_once(spans, "serial")


def test_poison_retried_parallel(inject, spans):
    inject("poison", times=1)
    assert run(workers=2, retries=1, retry_backoff=0.0) == list(baseline())
    assert_victim_retried_once(spans, "threads")


def test_poison_exhausted_raises_by_default(inject):
    inject("poison", times=99)
    with pytest.raises(UnitExecutionError, match="poison"):
        run(retries=1, retry_backoff=0.0)


def test_poison_exhausted_raises_in_pool(inject):
    inject("poison", times=99)
    with pytest.raises(UnitExecutionError, match="poison"):
        run(workers=2, retries=0)


@pytest.mark.parametrize("workers", (0, 2), ids=("serial", "parallel"))
def test_poison_skip_policy_leaves_explicit_hole(inject, spans, workers):
    inject("poison", times=99)
    records = run(
        workers=workers, retries=1, retry_backoff=0.0,
        failure_policy=FailurePolicy.SKIP,
    )
    assert len(records) == len(baseline())
    assert records[VICTIM].status == "skipped"
    assert records[VICTIM].subarray == VICTIM
    assert records[VICTIM].cd_flips == {}
    for i, record in enumerate(records):
        if i != VICTIM:
            assert record == baseline()[i]
    victim = victim_span(unit_spans(spans))
    assert victim["source"] == "skipped"
    assert victim["attempts"] == 2
    assert victim["executor"] is None
    assert victim["error"] == "RuntimeError: injected poison fault"


# ---------------------------------------------------------------------------
# Hung workers (per-unit timeout)
# ---------------------------------------------------------------------------

#: The hung pool thread sleeps this long; the unit times out at half of it.
HANG_S = 3.0
TIMEOUT_S = 1.5


def abandoned_threads(before: set) -> list[threading.Thread]:
    """Engine pool threads started since ``before`` that are still alive."""
    return [
        thread for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("repro-engine")
    ]


def test_hung_worker_times_out_and_skips(inject, spans):
    inject("hang", times=99, hang_s=HANG_S)
    before, start = set(threading.enumerate()), time.monotonic()
    records = run(
        workers=2, retries=0, timeout=TIMEOUT_S,
        failure_policy=FailurePolicy.SKIP,
    )
    # The campaign returned without joining the hung thread, which is
    # still sleeping.
    assert time.monotonic() - start < HANG_S
    assert abandoned_threads(before)
    assert records[VICTIM].status == "skipped"
    assert records[VICTIM].cd_flips == {}
    for i, record in enumerate(records):
        if i != VICTIM:
            assert record == baseline()[i]
    victim = victim_span(unit_spans(spans))
    assert (victim["source"], victim["attempts"]) == ("skipped", 1)
    assert victim["error"] == f"unit timed out after {TIMEOUT_S:g}s"


def test_hung_worker_times_out_and_raises(inject):
    inject("hang", times=99, hang_s=HANG_S)
    before, start = set(threading.enumerate()), time.monotonic()
    with pytest.raises(UnitExecutionError, match="timed out"):
        run(workers=2, retries=0, timeout=TIMEOUT_S)
    assert time.monotonic() - start < HANG_S
    assert abandoned_threads(before)


def test_hung_worker_retried_on_fresh_pool(inject, spans):
    """A timed-out unit with attempts left runs again on a fresh pool."""
    inject("hang", times=1, hang_s=HANG_S)
    records = run(workers=2, retries=1, timeout=TIMEOUT_S)
    assert records == list(baseline())
    victim = victim_span(unit_spans(spans))
    assert victim["source"] == "computed"
    assert victim["attempts"] == 2
    assert victim["executor"] == "threads"
    assert victim["error"] is None


# ---------------------------------------------------------------------------
# Telemetry under faults
# ---------------------------------------------------------------------------

def run_traced(**knobs) -> str:
    """`run` under one root span; returns its trace id."""
    with obs.span("test.run") as root:
        run(**knobs)
    return root.trace_id


def test_trace_records_every_unit_with_cache_tiers(tmp_path, spans):
    trace_path = tmp_path / "trace.jsonl"
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=OutcomeCache())
    with obs.stream_spans(trace_path), obs.span("test.run") as root:
        engine.characterize_module("S0", WORST_CASE, INTERVALS)
        engine.characterize_module("S0", WORST_CASE, INTERVALS)

    attributes = unit_spans(spans, passes=2)
    assert [a["source"] for a in attributes] == ["computed"] * 4 + ["memory"] * 4
    assert all(a["attempts"] == 0 for a in attributes[4:])
    assert all(a["executor"] is None for a in attributes[4:])
    # The streamed file holds the same spans, one line each.
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert [r for r in lines if r["name"] == "engine.unit"] == spans("engine.unit")
    assert all(s["duration_s"] >= 0.0 for s in spans("engine.unit"))

    footer = _run_trace_summary(root.trace_id)
    assert "units: 8 (4 computed, 4 memory hits, 0 disk hits, 0 skipped)" in footer
    assert "cache hit ratio: 50.0%" in footer
    assert "units retried: 0 (4 total attempts)" in footer


def test_disk_hits_recorded_as_disk_spans(tmp_path, spans):
    CharacterizationEngine(
        scale=QUICK_SCALE, cache=OutcomeCache(tmp_path)
    ).characterize_module("S0", WORST_CASE, INTERVALS)
    obs.reset()
    CharacterizationEngine(
        scale=QUICK_SCALE, cache=OutcomeCache(tmp_path)
    ).characterize_module("S0", WORST_CASE, INTERVALS)
    attributes = unit_spans(spans)
    assert {a["source"] for a in attributes} == {"disk"}
    assert {(a["attempts"], a["executor"], a["error"]) for a in attributes} == {
        (0, None, None)
    }


def test_trace_records_retries_and_skips(inject, spans):
    inject("poison", times=1)
    trace_id = run_traced(retries=2, retry_backoff=0.0)
    victim = victim_span(unit_spans(spans))
    assert victim["attempts"] == 2  # one poisoned attempt + one success
    assert victim["source"] == "computed"
    assert "units retried: 1 (5 total attempts)" in _run_trace_summary(trace_id)


def test_trace_marks_skipped_units(inject, spans):
    inject("poison", times=99)
    trace_id = run_traced(retries=0, failure_policy="skip-with-record")
    victim = victim_span(unit_spans(spans))
    assert victim["source"] == "skipped"
    assert "poison" in victim["error"]
    assert "1 skipped)" in _run_trace_summary(trace_id)


# ---------------------------------------------------------------------------
# Campaign-level integration
# ---------------------------------------------------------------------------

def test_campaign_passes_fault_knobs_through(inject):
    inject("poison", times=1)
    campaign = Campaign(scale=QUICK_SCALE, retries=1)
    records = campaign.characterize_module("S0", WORST_CASE, INTERVALS)
    assert records == list(baseline())


def test_skipped_records_roundtrip_through_store(inject, tmp_path):
    from repro.core import load_records, save_records

    inject("poison", times=99)
    records = run(retries=0, failure_policy="skip-with-record")
    path = tmp_path / "records.json"
    save_records(records, path)
    loaded, _ = load_records(path)
    assert loaded == records
    assert loaded[VICTIM].status == "skipped"
