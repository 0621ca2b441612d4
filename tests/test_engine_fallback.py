"""Serial fallback on hosts without parallelism (the CI 1-core case).

BENCH_engine.json measured ``parallel_speedup: 0.518`` on a 1-core runner:
a worker pool in a process that may run on one CPU only (its affinity
mask: a 1-core host, ``taskset``, a cpuset-limited container) only adds
scheduling overhead.  The engine must detect that, warn through the logging
/ observability channels, stamp the decision on its ``engine.characterize``
span, and execute in-process — while producing bit-identical records.
"""

import json
import logging
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import main
from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    CharacterizationEngine,
)
from repro.serve.scheduler import RequestScheduler

INTERVALS = (0.512, 16.0)

pytestmark = pytest.mark.engine


def _records(**knobs):
    engine = CharacterizationEngine(scale=QUICK_SCALE, **knobs)
    return engine.characterize_module("S0", WORST_CASE, INTERVALS)


def _sources_and_executors(units: list[dict]) -> set:
    return {(s["attributes"]["source"], s["attributes"]["executor"]) for s in units}


@pytest.fixture
def one_cpu(confine):
    confine(1)


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


def test_no_fallback_on_multicore_host(confine, spans):
    confine(4)
    records = _records(workers=2)
    (campaign,) = spans("engine.characterize")
    assert campaign["attributes"]["serial_fallback"] is False
    assert records == _records()


def test_serial_engine_records_no_decision(one_cpu, spans):
    _records(workers=0)
    (campaign,) = spans("engine.characterize")
    assert campaign["attributes"]["serial_fallback"] is False


def test_one_cpu_affinity_mask_on_a_many_cpu_host(monkeypatch, confine):
    """The host's CPU count does not matter: a process confined to one of
    64 CPUs runs one submission lane and falls back to serial units."""
    confine(1)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    scheduler = RequestScheduler()
    try:
        assert scheduler.lanes == scheduler.stats["lanes"] == 1
    finally:
        scheduler._executor.shutdown()
    engine = CharacterizationEngine(scale=QUICK_SCALE, workers=4)
    engine.characterize_module("S0", WORST_CASE, INTERVALS)
    assert engine.last_execution["serial_fallback"] is True
    assert engine.last_execution["effective_workers"] == 1


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs a settable affinity mask"
)
def test_real_one_cpu_affinity_mask_gives_one_lane_and_the_fallback():
    """A child process pinned to one CPU with ``os.sched_setaffinity`` (what
    ``taskset -c 0`` does) sees one usable CPU, whatever the host has."""
    code = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.core import QUICK_SCALE, WORST_CASE, CharacterizationEngine\n"
        "from repro.serve.scheduler import RequestScheduler\n"
        "scheduler = RequestScheduler()\n"
        "scheduler._executor.shutdown()\n"
        "engine = CharacterizationEngine(scale=QUICK_SCALE, workers=2)\n"
        "engine.characterize_module('S0', WORST_CASE, (0.512,))\n"
        "print(scheduler.lanes, engine.last_execution['serial_fallback'])\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.abspath(src), env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["1", "True"]
