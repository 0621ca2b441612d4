"""Serial fallback on hosts without parallelism (the CI 1-core case).

BENCH_engine.json measured ``parallel_speedup: 0.518`` on a 1-core runner:
a worker pool on a host with ``os.cpu_count() <= 1`` only adds scheduling
overhead.  The engine must detect that, warn through the logging
/ observability channels, record the decision in the run trace, and
execute in-process — while producing bit-identical records.
"""

import logging
import os

import pytest

from repro import obs
from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    CharacterizationEngine,
    RunTrace,
)

INTERVALS = (0.512, 16.0)

pytestmark = pytest.mark.engine


def _records(**knobs):
    engine = CharacterizationEngine(scale=QUICK_SCALE, **knobs)
    return engine.characterize_module("S0", WORST_CASE, INTERVALS)


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def test_fallback_runs_serial_with_identical_records(one_cpu, caplog):
    baseline = _records()
    trace = RunTrace()
    with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
        records = _records(workers=4, trace=trace)
    assert records == baseline
    # Every unit ran in this process — no pool was spawned.
    assert {r.worker for r in trace.records} == {os.getpid()}
    assert any("no parallelism" in message for message in caplog.messages)


def test_fallback_decision_recorded_in_trace_summary(one_cpu, tmp_path):
    from repro.core.telemetry import trace_meta

    trace_path = tmp_path / "trace.jsonl"
    trace = RunTrace(trace_path)
    _records(workers=2, trace=trace)
    trace.close()

    decisions = trace.summary()["decisions"]
    assert len(decisions) == 1
    assert decisions[0]["kind"] == "serial-fallback"
    assert "workers=2" in decisions[0]["detail"]
    assert "serial-fallback" in trace.summary_table()
    # The decision also streams as a meta JSONL line.
    assert trace_meta(trace_path)["decision"]["kind"] == "serial-fallback"


def test_fallback_increments_obs_counter(one_cpu):
    obs.enable()
    obs.reset()
    _records(workers=2)
    totals = [
        sum(s["value"] for s in family["samples"])
        for family in obs.snapshot()["metrics"]
        if family["name"] == "engine_serial_fallbacks_total"
    ]
    assert totals == [1]


def test_no_fallback_on_multicore_host(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    trace = RunTrace()
    records = _records(workers=2, trace=trace)
    assert trace.summary()["decisions"] == []
    assert records == _records()


def test_serial_fallback_false_forces_pool(one_cpu):
    trace = RunTrace()
    engine = CharacterizationEngine(
        scale=QUICK_SCALE, workers=2, trace=trace, serial_fallback=False
    )
    records = engine.characterize_module("S0", WORST_CASE, INTERVALS)
    assert trace.summary()["decisions"] == []
    assert records == _records()
    # A real two-thread pool executed the units.
    assert engine.last_execution["effective_workers"] == 2
    computed = [r for r in trace.records if r.source == "computed"]
    assert computed and all(r.executor == "threads" for r in computed)


def test_serial_engine_records_no_decision(one_cpu):
    trace = RunTrace()
    _records(workers=0, trace=trace)
    assert trace.summary()["decisions"] == []
