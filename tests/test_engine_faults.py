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
the serial, fault-free path.
"""

import json
import threading
import time
from functools import lru_cache

import pytest

from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    Campaign,
    CharacterizationEngine,
    FailurePolicy,
    OutcomeCache,
    RunTrace,
    UnitExecutionError,
    load_trace,
)
from repro.core.engine import FAULT_ENV

INTERVALS = (0.512, 16.0)
VICTIM = 1  # subarray index the injected faults target

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
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir(exist_ok=True)
        spec = {
            "mode": mode, "subarray": subarray, "times": times,
            "dir": str(fault_dir), **extra,
        }
        monkeypatch.setenv(FAULT_ENV, json.dumps(spec))

    return _inject


def run(**knobs):
    # serial_fallback=False: these tests exercise pool mechanics (retries
    # and timeouts on pool threads) and must use a real pool even on a
    # 1-CPU host.
    engine = CharacterizationEngine(
        scale=QUICK_SCALE, serial_fallback=False, **knobs
    )
    return engine.characterize_module("S0", WORST_CASE, INTERVALS)


# ---------------------------------------------------------------------------
# Poisoned workers (exceptions)
# ---------------------------------------------------------------------------

def test_poison_retried_serial(inject):
    inject("poison", times=1)
    assert run(retries=1, retry_backoff=0.0) == list(baseline())


def test_poison_retried_parallel(inject):
    inject("poison", times=1)
    assert run(workers=2, retries=1, retry_backoff=0.0) == list(baseline())


def test_poison_exhausted_raises_by_default(inject):
    inject("poison", times=99)
    with pytest.raises(UnitExecutionError, match="poison"):
        run(retries=1, retry_backoff=0.0)


def test_poison_exhausted_raises_in_pool(inject):
    inject("poison", times=99)
    with pytest.raises(UnitExecutionError, match="poison"):
        run(workers=2, retries=0)


@pytest.mark.parametrize("workers", (0, 2), ids=("serial", "parallel"))
def test_poison_skip_policy_leaves_explicit_hole(inject, workers):
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


def test_hung_worker_times_out_and_skips(inject):
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


def test_hung_worker_times_out_and_raises(inject):
    inject("hang", times=99, hang_s=HANG_S)
    before, start = set(threading.enumerate()), time.monotonic()
    with pytest.raises(UnitExecutionError, match="timed out"):
        run(workers=2, retries=0, timeout=TIMEOUT_S)
    assert time.monotonic() - start < HANG_S
    assert abandoned_threads(before)


def test_hung_worker_retried_on_fresh_pool(inject):
    """A timed-out unit with attempts left runs again on a fresh pool."""
    inject("hang", times=1, hang_s=HANG_S)
    trace = RunTrace()
    records = run(workers=2, retries=1, timeout=TIMEOUT_S, trace=trace)
    assert records == list(baseline())
    (victim,) = [r for r in trace.records if r.subarray == VICTIM]
    assert victim.attempts == 2
    assert victim.executor == "threads"


# ---------------------------------------------------------------------------
# Telemetry under faults
# ---------------------------------------------------------------------------

def test_trace_records_every_unit_with_cache_tiers(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    trace = RunTrace(trace_path)
    engine = CharacterizationEngine(
        scale=QUICK_SCALE, cache=OutcomeCache(), trace=trace
    )
    engine.characterize_module("S0", WORST_CASE, INTERVALS)
    engine.characterize_module("S0", WORST_CASE, INTERVALS)
    trace.close()

    records = load_trace(trace_path)
    assert len(records) == 2 * len(baseline())  # one line per unit per run
    assert [r.source for r in records[:4]] == ["computed"] * 4
    assert [r.source for r in records[4:]] == ["memory"] * 4
    assert all(r.wall_s >= 0.0 for r in records)
    assert all(r.worker is not None for r in records)

    summary = trace.summary()
    assert summary["units"] == 8
    assert summary["computed"] == 4
    assert summary["memory_hits"] == 4
    assert summary["cache_hit_ratio"] == pytest.approx(0.5)
    assert summary["wall_p95_s"] >= summary["wall_p50_s"] >= 0.0
    assert "cache hit ratio: 50.0%" in trace.summary_table()


def test_trace_records_retries_and_skips(inject, tmp_path):
    inject("poison", times=1)
    trace = RunTrace()
    run(retries=2, retry_backoff=0.0, trace=trace)
    victim = [r for r in trace.records if r.subarray == VICTIM]
    assert len(victim) == 1
    assert victim[0].attempts == 2  # one poisoned attempt + one success
    assert victim[0].retries == 1
    assert victim[0].source == "computed"
    assert trace.summary()["units_retried"] == 1


def test_trace_marks_skipped_units(inject):
    inject("poison", times=99)
    trace = RunTrace()
    run(retries=0, failure_policy="skip-with-record", trace=trace)
    victim = [r for r in trace.records if r.subarray == VICTIM][0]
    assert victim.source == "skipped"
    assert "poison" in victim.error
    assert trace.summary()["skipped"] == 1


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
