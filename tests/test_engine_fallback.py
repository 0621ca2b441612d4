"""Serial fallback on hosts without parallelism (the CI 1-core case).

BENCH_engine.json measured ``parallel_speedup: 0.518`` on a 1-core runner:
a worker pool on a host with ``os.cpu_count() <= 1`` only adds scheduling
overhead.  The engine must detect that, warn through the logging
/ observability channels, stamp the decision on its ``engine.characterize``
span, and execute in-process — while producing bit-identical records.
"""

import json
import logging
import os

import pytest

from repro import obs
from repro.cli import main
from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    CharacterizationEngine,
)

INTERVALS = (0.512, 16.0)

pytestmark = pytest.mark.engine


def _records(**knobs):
    engine = CharacterizationEngine(scale=QUICK_SCALE, **knobs)
    return engine.characterize_module("S0", WORST_CASE, INTERVALS)


def _sources_and_executors(units: list[dict]) -> set:
    return {(s["attributes"]["source"], s["attributes"]["executor"]) for s in units}


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def test_fallback_runs_serial_with_identical_records(one_cpu, caplog, spans):
    baseline = _records()
    obs.reset()
    with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
        records = _records(workers=4)
    assert records == baseline
    # Every unit ran in this process, on the calling thread: no pool.
    units = spans("engine.unit")
    assert len(units) == len(records)
    assert _sources_and_executors(units) == {("computed", "serial")}
    assert {s["pid"] for s in units} == {os.getpid()}
    assert any("no parallelism" in message for message in caplog.messages)


def test_fallback_decision_on_campaign_span(one_cpu, spans):
    _records(workers=2)
    (campaign,) = spans("engine.characterize")
    assert campaign["attributes"]["workers"] == 2
    assert campaign["attributes"]["effective_workers"] == 1
    assert campaign["attributes"]["serial_fallback"] is True


def test_fallback_decision_recorded_in_trace_summary(one_cpu, tmp_path, capsys, spans):
    trace_path = tmp_path / "trace.jsonl"
    argv = ["characterize", "S0", "--subarrays", "2", "--rows", "64", "--workers", "2"]
    assert main([*argv, "--columns", "128", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "decision [serial-fallback]: workers=2 requested, 1 effective" in out
    assert "serial-fallback" not in out.split("run trace summary:")[0]
    # The decision is also in the streamed span file.
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    (campaign,) = [r for r in records if r["name"] == "engine.characterize"]
    assert campaign["attributes"]["serial_fallback"] is True


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


def test_no_fallback_on_multicore_host(monkeypatch, spans):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    records = _records(workers=2)
    (campaign,) = spans("engine.characterize")
    assert campaign["attributes"]["serial_fallback"] is False
    assert records == _records()


def test_serial_fallback_false_forces_pool(one_cpu, spans):
    engine = CharacterizationEngine(scale=QUICK_SCALE, workers=2, serial_fallback=False)
    records = engine.characterize_module("S0", WORST_CASE, INTERVALS)
    (campaign,) = spans("engine.characterize")
    assert campaign["attributes"]["serial_fallback"] is False
    assert campaign["attributes"]["effective_workers"] == 2
    # A real two-thread pool executed the units.
    assert engine.last_execution["effective_workers"] == 2
    assert _sources_and_executors(spans("engine.unit")) == {("computed", "threads")}
    assert records == _records()


def test_serial_engine_records_no_decision(one_cpu, spans):
    _records(workers=0)
    (campaign,) = spans("engine.characterize")
    assert campaign["attributes"]["serial_fallback"] is False
