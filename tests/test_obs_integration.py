"""Cross-layer observability consistency: metrics snapshots must agree
exactly with the campaign records and the ``engine.unit`` spans the
library produces — two views of the same events can never disagree.

Also the ``characterize --trace`` footer over empty, all-skipped and
partly skipped runs, and the trace context code on the engine's pool
threads sees.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro
from repro import obs
from repro.chip.catalog import get_module
from repro.chip.geometry import BankGeometry
from repro.cli import _run_trace_summary
from repro.core import engine as engine_module
from repro.core.campaign import Campaign, CampaignScale, QUICK_SCALE
from repro.core.config import WORST_CASE
from repro.core.engine import FAULT_ENV, CharacterizationEngine

INTERVALS = (0.512, 16.0)
UNITS = len(QUICK_SCALE.subarray_indices())  # one S0 pass: 1 chip, 1 bank


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _counter_value(snapshot: dict, name: str, **labels) -> float:
    for family in snapshot["metrics"]:
        if family["name"] != name:
            continue
        return sum(
            sample["value"]
            for sample in family["samples"]
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )
    return 0.0


def _expected_flips(records) -> int:
    return sum(
        record.cd_flips[max(record.cd_flips)]
        for record in records
        if record.status == "ok" and record.cd_flips
    )


def test_serial_campaign_metrics_match_records():
    obs.enable()
    records = Campaign(scale=QUICK_SCALE).characterize_module(
        "S0", WORST_CASE, INTERVALS
    )
    snapshot = obs.snapshot()
    assert _counter_value(snapshot, "cells_flipped_total") == _expected_flips(
        records
    )
    assert _counter_value(
        snapshot, "cells_flipped_total",
        mfr=get_module("S0").manufacturer,
        density=get_module("S0").density,
    ) == _expected_flips(records)


@pytest.mark.engine
def test_engine_metrics_match_trace_and_records(confine, spans):
    """The headline acceptance: engine_units_total, cells_flipped_total, and
    engine unit counts must exactly match the engine.unit spans and the
    SubarrayRecord data for the same run — including across pool
    workers."""
    confine(2)
    engine = CharacterizationEngine(scale=QUICK_SCALE, workers=2)
    records = engine.characterize_modules(("S0", "M8"), WORST_CASE, INTERVALS)
    snapshot = obs.snapshot()
    units = spans("engine.unit")

    assert len(units) == len(records)
    assert [s["attributes"]["index"] for s in units] == list(range(len(records)))
    assert [
        (s["attributes"]["serial"], s["attributes"]["subarray"]) for s in units
    ] == [(r.serial, r.subarray) for r in records]
    assert _counter_value(
        snapshot, "engine_units_total", source="computed"
    ) == sum(1 for s in units if s["attributes"]["source"] == "computed")
    assert _counter_value(snapshot, "engine_units_total") == len(units)
    assert _counter_value(snapshot, "cells_flipped_total") == _expected_flips(
        records
    )


@pytest.mark.engine
def test_engine_and_serial_paths_report_identical_flip_totals(confine):
    """An in-process `Campaign` pass and a thread-pool pass feed the same
    flip totals."""
    confine(2)
    obs.enable()
    in_process_records = Campaign(scale=QUICK_SCALE).characterize_module(
        "S0", WORST_CASE, INTERVALS
    )
    in_process_total = _counter_value(obs.snapshot(), "cells_flipped_total")
    obs.reset()
    pool_records = CharacterizationEngine(
        scale=QUICK_SCALE, workers=2
    ).characterize_module("S0", WORST_CASE, INTERVALS)
    pool_total = _counter_value(obs.snapshot(), "cells_flipped_total")
    assert in_process_total == pool_total == _expected_flips(in_process_records)
    assert in_process_records == pool_records


@pytest.mark.engine
@pytest.mark.parametrize(
    "poison_once", (False, True), ids=("threads", "threads-poison-once")
)
def test_worker_spans_nest_under_campaign_span(
    poison_once, monkeypatch, tmp_path, confine
):
    """Each unit, pool-computed on a first attempt or a retry, is one
    ``engine.unit`` span recorded on the calling thread as a child of the
    campaign span, on the campaign's trace."""
    confine(2)
    victim = 1
    if poison_once:
        monkeypatch.setenv(
            FAULT_ENV,
            json.dumps(
                {"mode": "poison", "subarray": victim, "times": 1, "dir": str(tmp_path)}
            ),
        )
    obs.enable()
    CharacterizationEngine(
        scale=QUICK_SCALE, workers=2, retries=1, retry_backoff=0.0,
    ).characterize_module("S0", WORST_CASE, INTERVALS)
    retries = _counter_value(obs.snapshot(), "engine_unit_retries_total")
    assert retries == (1 if poison_once else 0)
    spans = obs.finished_spans()
    by_name = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)
    assert len(by_name["engine.characterize"]) == 1
    campaign_span = by_name["engine.characterize"][0]
    unit_spans = by_name["engine.unit"]
    assert len(unit_spans) == UNITS
    assert sorted(s["attributes"]["subarray"] for s in unit_spans) == list(
        QUICK_SCALE.subarray_indices()
    )
    (victim_span,) = [
        s for s in unit_spans if s["attributes"]["subarray"] == victim
    ]
    assert victim_span["attributes"]["attempts"] == (2 if poison_once else 1)
    for unit_span in unit_spans:
        assert unit_span["attributes"]["executor"] == "threads"
        assert unit_span["parent_id"] == campaign_span["span_id"]
        assert unit_span["trace_id"] == campaign_span["trace_id"]
        assert unit_span["pid"] == campaign_span["pid"]


@pytest.mark.engine
@pytest.mark.parametrize("attempts", ("first", "retry"))
def test_pool_threads_see_the_campaign_context(attempts, monkeypatch, confine, spans):
    """A pool thread runs each attempt, first or retry, in a copy of the
    submitting context, so code there (log records, timing wrappers) sees
    the campaign span as the current trace context."""
    confine(2)
    victim = 1
    seen = []
    failed = threading.Event()
    execute_unit = engine_module.execute_unit

    def checking_execute_unit(unit, *args, **kwargs):
        seen.append((threading.current_thread().name, obs.current_context()))
        if attempts == "retry" and unit.subarray == victim and not failed.is_set():
            failed.set()
            raise RuntimeError("first attempt fails")
        return execute_unit(unit, *args, **kwargs)

    monkeypatch.setattr(engine_module, "execute_unit", checking_execute_unit)
    CharacterizationEngine(
        scale=QUICK_SCALE, workers=2, retries=1, retry_backoff=0.0,
    ).characterize_module("S0", WORST_CASE, INTERVALS)
    (campaign,) = spans("engine.characterize")
    expected = obs.TraceContext(campaign["trace_id"], campaign["span_id"])
    assert len(seen) == UNITS + (attempts == "retry")
    assert all(name.startswith("repro-engine") for name, _ in seen)
    assert [context for _, context in seen] == [expected] * len(seen)


def test_bender_command_counts_match_program(tiny_geometry):
    from repro.bender.commands import (
        Act, Loop, Pre, Read, Refresh, TestProgram, Wait, Write,
    )
    from repro.bender.executor import DramBender
    from repro.chip.module import SimulatedModule

    obs.enable()
    module = SimulatedModule(
        get_module("S0"), geometry=tiny_geometry, sim_chips=1, sim_banks=1
    )
    hammers = 1000
    program = TestProgram(
        name="consistency",
        instructions=(
            Write(row=1, pattern=0x00),
            Write(row=3, pattern=0xFF),
            Loop(
                count=hammers,
                body=(Act(row=2), Wait(duration=50e-9), Pre(),
                      Wait(duration=15e-9)),
            ),
            Refresh(),
            Read(row=1, tag="victim-low"),
            Read(row=3, tag="victim-high"),
        ),
    )
    DramBender(module).execute(program)
    snapshot = obs.snapshot()
    # The hammer loop runs through the bank fast path, yet every constituent
    # command is accounted: count x 1 aggressor ACT/PRE pairs.
    assert _counter_value(
        snapshot, "bender_commands_total", kind="ACT"
    ) == hammers
    assert _counter_value(
        snapshot, "bender_commands_total", kind="PRE"
    ) == hammers
    assert _counter_value(snapshot, "bender_commands_total", kind="RD") == 2
    assert _counter_value(snapshot, "bender_commands_total", kind="WR") == 2
    assert _counter_value(snapshot, "bender_commands_total", kind="REF") == 1
    assert _counter_value(snapshot, "bender_programs_total") == 1
    assert _counter_value(
        snapshot, "bank_activations_total"
    ) == hammers


def test_cache_metrics_match_stats(tmp_path):
    from repro.core.cache import OutcomeCache

    obs.enable()
    cache = OutcomeCache(tmp_path / "cache")
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=cache)
    engine.characterize_module("S0", WORST_CASE, INTERVALS)
    engine.characterize_module("S0", WORST_CASE, INTERVALS)  # all memory hits
    snapshot = obs.snapshot()
    stats = cache.stats
    assert _counter_value(
        snapshot, "cache_lookups_total", tier="memory"
    ) == stats["hits"] - stats["disk_hits"]
    assert _counter_value(
        snapshot, "cache_lookups_total", tier="disk"
    ) == stats["disk_hits"]
    assert _counter_value(
        snapshot, "cache_lookups_total", tier="miss"
    ) == stats["misses"]
    assert _counter_value(snapshot, "cache_puts_total") == stats["misses"]


def test_characterize_cli_snapshot_matches_records(tmp_path, capsys):
    """End-to-end acceptance: a `repro characterize --metrics` run produces
    a Prometheus snapshot whose counters exactly match an equivalent
    in-process campaign's records and trace."""
    from repro.cli import main

    metrics_path = tmp_path / "metrics.prom"
    trace_path = tmp_path / "trace.jsonl"
    assert main([
        "characterize", "S0", "--subarrays", "2", "--rows", "64",
        "--columns", "128", "--metrics", str(metrics_path),
        "--trace", str(trace_path),
    ]) == 0
    capsys.readouterr()
    obs.disable()

    samples = obs.load_metrics(metrics_path)

    def flat(name, **labels):
        return sum(
            value for sample_labels, value in samples.get(name, [])
            if all(sample_labels.get(k) == v for k, v in labels.items())
        )

    # Re-derive the same campaign in-process: deterministic silicon means
    # the records are bit-identical to what the CLI just measured.
    scale = CampaignScale(
        BankGeometry(subarrays=2, rows_per_subarray=64, columns=128)
    )
    records = Campaign(scale=scale).characterize_module(
        "S0", WORST_CASE, intervals=(0.512, 16.0)
    )
    trace_lines = [
        json.loads(line) for line in trace_path.read_text().splitlines()
    ]
    unit_lines = [line for line in trace_lines if line["name"] == "engine.unit"]
    assert flat("engine_units_total") == len(unit_lines) == len(records)
    assert flat("engine_units_total", source="computed") == len(unit_lines)
    assert flat("cells_flipped_total") == _expected_flips(records)
    assert flat("engine_unit_seconds_count") == len(records)
    # The root span records the producing version.
    (root,) = [line for line in trace_lines if line["parent_id"] is None]
    assert root["name"] == "cli.characterize"
    assert root["attributes"]["version"] == repro.__version__


def test_cli_main_restores_the_observability_state(tmp_path, capsys):
    """`--trace` turns observability on for one command only: an
    in-process caller gets back the state it had, on or off."""
    from repro.cli import main

    obs.disable()
    assert main(["mitigations", "M8", "--trace", str(tmp_path / "t.jsonl")]) == 0
    assert not obs.is_enabled()
    obs.enable()
    try:
        assert main(["mitigations", "M8", "--trace", str(tmp_path / "u.jsonl")]) == 0
        assert obs.is_enabled()
    finally:
        obs.disable()
        obs.reset()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# The `characterize --trace` footer: empty, all-skipped and partly
# skipped runs
# ---------------------------------------------------------------------------

def _footer(run) -> str:
    """The footer over the engine.unit spans ``run()`` records."""
    obs.enable()
    with obs.span("test.run") as root:
        run()
    return _run_trace_summary(root.trace_id)


def test_summary_table_renders_empty_trace():
    no_subarrays = CampaignScale(QUICK_SCALE.geometry, subarrays=0)
    footer = _footer(
        lambda: CharacterizationEngine(scale=no_subarrays).characterize_module(
            "S0", WORST_CASE, INTERVALS
        )
    )
    assert footer.splitlines() == [
        "run trace summary:",
        "  units: 0 (0 computed, 0 memory hits, 0 disk hits, 0 skipped)",
        "  cache hit ratio: 0.0%",
        "  units retried: 0 (0 total attempts)",
        "  unit latency: p50 n/a, p95 n/a",
        "  computed latency: p50 n/a, p95 n/a",
        "  cache-hit latency: p50 n/a, p95 n/a",
        "  total unit wall time: 0.000 s",
    ]


def test_summary_table_renders_all_skipped_run(monkeypatch):
    def poisoned(unit, *args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(engine_module, "execute_unit", poisoned)
    footer = _footer(
        lambda: CharacterizationEngine(
            scale=QUICK_SCALE, retries=1, retry_backoff=0.0,
            failure_policy="skip-with-record",
        ).characterize_module("S0", WORST_CASE, INTERVALS)
    )
    assert f"  units: {UNITS} (0 computed, 0 memory hits, 0 disk hits, " \
        f"{UNITS} skipped)" in footer
    assert "  cache hit ratio: 0.0%" in footer
    assert f"  units retried: {UNITS} ({2 * UNITS} total attempts)" in footer
    assert "  unit latency: p50 n/a, p95 n/a" in footer
    assert "  total unit wall time: 0.000 s" in footer


def test_summary_percentiles_skip_skipped_units():
    def two_units():
        obs.record_span("engine.unit", 0.0, 1.0, source="computed", attempts=1)
        obs.record_span(
            "engine.unit", 0.0, 0.0, source="skipped", attempts=3, error="x"
        )

    footer = _footer(two_units)
    assert "  unit latency: p50 1000.00 ms, p95 1000.00 ms" in footer
    assert "  total unit wall time: 1.000 s" in footer
    assert "  units retried: 1 (4 total attempts)" in footer
