"""``campaign``: the paper's characterization loop through the engine.

Back-to-back `CharacterizationEngine.characterize_modules` calls at the
benchmarks' default geometry, the WORST_CASE condition and four refresh
intervals.  Each distinct call takes a seed-chosen quarter of the 28
DDR4 catalog serials and the next three the other quarters, so every four
cover the catalog once: serials differ in cost per unit by up to 2x, and
this keeps the work of a run the same whatever the seed.  Every distinct
call runs twice, the second pass in another seed-chosen order.  No
cache; the default executor with ``workers = nproc``.
The engine pool and per-cell NumPy work do nearly all of it; the
serving, cache and durable-write layers sit idle.
"""

from __future__ import annotations

import random
import statistics
import time

import harness
import tracer

SUBARRAYS, ROWS, COLUMNS = 4, 512, 1024
INTERVALS = (0.512, 1.0, 4.0, 16.0)
#: Distinct calls whose records every run digests and samples.
CHECKED_CALLS = 2
#: Units per run re-executed serially by the correctness check.
CHECKED_UNITS = 4
#: Calls that cover the catalog once.
CALLS_PER_CATALOG = 4
#: Calls per second on the reference host; sizes a run (`harness.op_count`).
NOMINAL_CALLS_PER_S = 0.6


def setup(seed: int, seconds: float) -> dict:
    from repro.chip.catalog import CATALOG
    from repro.chip.geometry import BankGeometry
    from repro.core.campaign import CampaignScale
    from repro.core.config import WORST_CASE
    from repro.core.engine import CharacterizationEngine

    ddr4 = sorted(serial for serial, spec in CATALOG.items() if spec.interface == "DDR4")
    rng = random.Random(f"campaign-{seed}")
    calls = []
    size = len(ddr4) // CALLS_PER_CATALOG
    distinct = harness.op_count(seconds, NOMINAL_CALLS_PER_S, multiple=2 * CALLS_PER_CATALOG) // 2
    while len(calls) < distinct:
        order = rng.sample(ddr4, len(ddr4))
        calls += [tuple(order[i : i + size]) for i in range(0, len(order), size)]
    scale = CampaignScale(
        BankGeometry(subarrays=SUBARRAYS, rows_per_subarray=ROWS, columns=COLUMNS)
    )
    return {
        "seed": seed,
        "calls": calls,
        "order": harness.repeat_order(rng, len(calls), 2),
        "config": WORST_CASE,
        "engine": CharacterizationEngine(scale=scale, workers=harness.nproc()),
    }


def install_cell_layers(
    recorder: tracer.Recorder, patches: tracer.Patches, caller
) -> None:
    """Time `CellPopulation(...)`, `disturb_outcome` and
    `SubarrayOutcome.summarize` as called from module ``caller``."""
    from repro.core import analytic

    def cells(record, result, args, kwargs):
        record["attributes"]["cells"] = kwargs["rows"] * kwargs["columns"]

    def outcome_cells(record, result, args, kwargs):
        record["attributes"]["cells"] = args[0].rows * args[0].columns

    patches.wrap(
        caller, "CellPopulation",
        tracer.timed(recorder, "chip.cells.CellPopulation", "chip.cells", cells),
    )
    patches.wrap(
        caller, "disturb_outcome",
        tracer.timed(recorder, "core.analytic.disturb_outcome", "core.analytic", outcome_cells),
    )
    patches.wrap(
        analytic.SubarrayOutcome, "summarize",
        tracer.timed(recorder, "core.analytic.summarize", "core.analytic"),
    )


def _install(recorder: tracer.Recorder, patches: tracer.Patches) -> None:
    from repro.core import engine

    def execution(record, result, args, kwargs):
        record["attributes"]["units"] = len(result)
        record["attributes"]["effective_workers"] = args[0].last_execution[
            "effective_workers"
        ]

    patches.wrap(
        engine.CharacterizationEngine,
        "characterize_modules",
        tracer.timed(recorder, "core.engine.characterize_modules", "core.engine", execution),
    )
    patches.wrap(
        engine, "execute_unit",
        tracer.timed(recorder, "core.engine.execute_unit", "core.engine"),
    )
    install_cell_layers(recorder, patches, engine)


def cell_layer_metrics_of(records: list[dict]) -> dict:
    """`chip.cells` and `core.analytic` metrics of any workload's spans."""
    populations = [r for r in records if r["name"] == "chip.cells.CellPopulation"]
    outcomes = [r for r in records if r["name"] == "core.analytic.disturb_outcome"]
    summaries = [r for r in records if r["name"] == "core.analytic.summarize"]
    cells_busy = sum(r["duration_s"] for r in populations)
    cells = sum(r["attributes"]["cells"] for r in populations)
    outcome_busy = sum(r["duration_s"] for r in outcomes)
    outcome_cells = sum(r["attributes"]["cells"] for r in outcomes)
    summarize_busy = sum(r["duration_s"] for r in summaries)
    return {
        "chip.cells.busy_s": cells_busy,
        "chip.cells.ns_per_cell": cells_busy * 1e9 / cells if cells else 0.0,
        "core.analytic.outcome_busy_s": outcome_busy,
        "core.analytic.summarize_busy_s": summarize_busy,
        "core.analytic.ns_per_cell": (
            (outcome_busy + summarize_busy) * 1e9 / outcome_cells if outcome_cells else 0.0
        ),
    }


def _layer_metrics(recorder: tracer.Recorder) -> dict:
    calls = recorder.named("core.engine.characterize_modules")
    units = recorder.named("core.engine.execute_unit")
    selfs = tracer.self_times(recorder.records)
    call_wall = sum(r["duration_s"] for r in calls)
    unit_busy = sum(r["duration_s"] for r in units)
    produced = sum(r["attributes"].get("units", 0) for r in calls)
    metrics = {
        "core.engine.units": produced,
        "core.engine.unit_ms_p50": harness.percentile(
            [r["duration_s"] * 1e3 for r in units], 50.0
        ),
        "core.engine.parallelism": unit_busy / call_wall,
        "core.engine.self_s": sum(selfs[r["span_id"]] for r in calls),
        "core.engine.effective_workers": statistics.median(
            r["attributes"].get("effective_workers", 0) for r in calls
        ),
        "core.engine.retries": len(units) - produced,
    }
    metrics.update(cell_layer_metrics_of(recorder.records))
    return metrics


def run(ctx: dict, recorder: tracer.Recorder | None) -> dict:
    from repro.core.config import SEARCH_INTERVAL
    from repro.core.engine import (
        DEFAULT_ENGINE_HORIZON,
        execute_unit,
        plan_units,
        record_from_summary,
    )
    from repro.serve.protocol import record_to_json

    engine = ctx["engine"]
    config = ctx["config"]
    patches = tracer.Patches()
    root = None
    if recorder is not None:
        _install(recorder, patches)
        root = recorder.open("bench.campaign", "bench")
    call_times: list[float] = []
    outputs: list[list] = []
    try:
        start = time.perf_counter()
        for call in ctx["order"]:
            begin = time.perf_counter()
            records = engine.characterize_modules(ctx["calls"][call], config, INTERVALS)
            call_times.append(time.perf_counter() - begin)
            outputs.append(records)
        elapsed = time.perf_counter() - start
    finally:
        if root is not None:
            recorder.close(*root)
        patches.restore()
    peak_rss = harness.own_peak_rss_mb()

    tally = harness.Tally()
    units_done = sum(len(records) for records in outputs)
    tally.attempt(units_done)
    checks = {"sampled_units_match_execute_unit": True, "repeated_calls_identical": True}
    by_call: dict[int, list] = {}
    for op, (call, records) in enumerate(zip(ctx["order"], outputs)):
        image = [record_to_json(record) for record in records]
        for index, record in enumerate(records):
            if record.status != "ok":
                tally.fail((op, index), f"op {op} unit {index}: {record.status}")
        if by_call.setdefault(call, image) != image:
            checks["repeated_calls_identical"] = False
            tally.fail((op, "repeat"), f"op {op}: call {call} not reproducible")

    # Correctness: a seed-chosen sample of units, re-executed serially.
    horizon = max(DEFAULT_ENGINE_HORIZON, SEARCH_INTERVAL, *INTERVALS)
    rng = random.Random(f"campaign-check-{ctx['seed']}")
    sample = rng.sample(
        [(c, i) for c in range(CHECKED_CALLS) for i in range(len(by_call[c]))], CHECKED_UNITS
    )
    for call, index in sorted(sample):
        units = plan_units(ctx["calls"][call], config, engine.scale)
        expected = record_from_summary(
            units[index], execute_unit(units[index], horizon=horizon), INTERVALS
        )
        if record_to_json(expected) != by_call[call][index]:
            checks["sampled_units_match_execute_unit"] = False
            tally.fail((call, index), f"call {call} unit {index} differs from execute_unit")

    rate, call_best = harness.best_of_repeats(
        ctx["order"], call_times, [len(records) for records in outputs]
    )
    result = {
        "metrics": {
            "ops_per_s": [rate, "1/s", len(call_times)],
            "op_p50_ms": [call_best * 1e3, "ms", len(call_times)],
            "peak_rss_mb": [peak_rss, "MiB", 1],
        },
        "named": {
            "units_per_s": [rate, "units/s", units_done],
            "units_per_s.whole_run": [units_done / elapsed, "units/s", units_done],
            "call_p50_ms": [call_best * 1e3, "ms", len(call_times)],
        },
        "checks": checks,
        "digests": {
            "records.first_calls": harness.digest([by_call[c] for c in range(CHECKED_CALLS)]),
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
    }
    if recorder is not None:
        window = (root[0]["start_unix"], root[0]["start_unix"] + root[0]["duration_s"])
        result["layers"] = _layer_metrics(recorder)
        result["layer_table"] = tracer.layer_table(recorder.records, window)
    return result
