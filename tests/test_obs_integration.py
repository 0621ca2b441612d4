"""Cross-layer observability consistency: metrics snapshots must agree
exactly with the campaign records and run traces the library produces —
two views of the same events can never disagree.

Also the RunTrace.summary regression tests (empty / all-skipped traces) and
span propagation across the engine's thread pool.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.chip.catalog import get_module
from repro.chip.geometry import BankGeometry
from repro.core.campaign import Campaign, CampaignScale, QUICK_SCALE
from repro.core.config import WORST_CASE
from repro.core.engine import FAULT_ENV, CharacterizationEngine
from repro.core.telemetry import RunTrace, UnitTrace

INTERVALS = (0.512, 16.0)


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
def test_engine_metrics_match_trace_and_records():
    """The headline acceptance: engine_units_total, cells_flipped_total, and
    engine unit counts must exactly match the UnitTrace/SubarrayRecord data
    for the same run — including across pool workers."""
    obs.enable()
    trace = RunTrace()
    engine = CharacterizationEngine(
        scale=QUICK_SCALE, workers=2, trace=trace, serial_fallback=False
    )
    records = engine.characterize_modules(("S0", "M8"), WORST_CASE, INTERVALS)
    snapshot = obs.snapshot()

    assert len(trace.records) == len(records)
    assert _counter_value(
        snapshot, "engine_units_total", source="computed"
    ) == sum(1 for r in trace.records if r.source == "computed")
    assert _counter_value(snapshot, "engine_units_total") == len(trace.records)
    assert _counter_value(snapshot, "cells_flipped_total") == _expected_flips(
        records
    )


@pytest.mark.engine
def test_engine_and_serial_paths_report_identical_flip_totals():
    """An in-process `Campaign` pass and a thread-pool pass feed the same
    flip totals."""
    obs.enable()
    in_process_records = Campaign(scale=QUICK_SCALE).characterize_module(
        "S0", WORST_CASE, INTERVALS
    )
    in_process_total = _counter_value(obs.snapshot(), "cells_flipped_total")
    obs.reset()
    pool_records = CharacterizationEngine(
        scale=QUICK_SCALE, workers=2, serial_fallback=False
    ).characterize_module("S0", WORST_CASE, INTERVALS)
    pool_total = _counter_value(obs.snapshot(), "cells_flipped_total")
    assert in_process_total == pool_total == _expected_flips(in_process_records)
    assert in_process_records == pool_records


@pytest.mark.engine
@pytest.mark.parametrize(
    "poison_once", (False, True), ids=("threads", "threads-poison-once")
)
def test_worker_spans_nest_under_campaign_span(poison_once, monkeypatch, tmp_path):
    """Pool threads run each unit, first attempt or retry, in a copy of the
    submitting context, so every unit span is a native child of the
    campaign span on the campaign's trace."""
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
        serial_fallback=False,
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
    assert len(unit_spans) == len(QUICK_SCALE.subarray_indices())
    assert [s["attributes"]["subarray"] for s in unit_spans].count(victim) == 1
    for unit_span in unit_spans:
        assert unit_span["parent_id"] == campaign_span["span_id"]
        assert unit_span["trace_id"] == campaign_span["trace_id"]
        assert unit_span["pid"] == campaign_span["pid"]


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
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if line.strip() and "meta" not in json.loads(line)
    ]
    assert flat("engine_units_total") == len(trace_lines) == len(records)
    assert flat("cells_flipped_total") == _expected_flips(records)
    assert flat("engine_unit_seconds_count") == len(records)
    # The trace file's meta header records the producing version.
    from repro.core.telemetry import trace_meta

    import repro

    assert trace_meta(trace_path)["repro_version"] == repro.__version__


# ---------------------------------------------------------------------------
# RunTrace.summary regression: empty and all-skipped traces
# ---------------------------------------------------------------------------

def test_empty_trace_summary_is_json_safe():
    summary = RunTrace().summary()
    assert summary["units"] == 0
    assert summary["cache_hit_ratio"] == 0.0
    assert summary["wall_p50_s"] is None
    assert summary["wall_p95_s"] is None
    assert summary["total_wall_s"] == 0.0
    encoded = json.dumps(summary)  # NaN would make this invalid JSON
    assert "NaN" not in encoded


def test_all_skipped_trace_summary_is_json_safe():
    trace = RunTrace()
    for index in range(3):
        trace.record(UnitTrace(
            index=index, serial="S0", chip=0, bank=0, subarray=index,
            source="skipped", wall_s=float("inf"), attempts=2,
            error="injected",
        ))
    summary = trace.summary()
    assert summary["units"] == 3
    assert summary["skipped"] == 3
    assert summary["wall_p50_s"] is None
    assert summary["cache_hit_ratio"] == 0.0
    assert math.isfinite(summary["total_wall_s"])
    json.dumps(summary)


def test_summary_table_renders_empty_trace():
    text = RunTrace().summary_table()
    assert "p50 n/a" in text
    assert "p95 n/a" in text


def test_summary_percentiles_skip_skipped_units():
    trace = RunTrace()
    trace.record(UnitTrace(
        index=0, serial="S0", chip=0, bank=0, subarray=0,
        source="computed", wall_s=1.0, attempts=1,
    ))
    trace.record(UnitTrace(
        index=1, serial="S0", chip=0, bank=0, subarray=1,
        source="skipped", wall_s=float("inf"), attempts=3, error="x",
    ))
    summary = trace.summary()
    assert summary["wall_p50_s"] == 1.0
    assert summary["total_wall_s"] == 1.0
    assert summary["units_retried"] == 1
