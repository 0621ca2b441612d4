"""``fleet``: `FleetCampaign` rounds of a cold pass and a sweep pass.

Each round takes a seed-chosen range of `INSTANCES_PER_PASS` instances of
the ``mixed`` scenario at the default 64 x 256 geometry, ``workers =
nproc``, a fresh on-disk `OutcomeCache` and checkpoint directories:

* the cold pass, at 1 channel x 1 rank, computes every instance, writes
  one fsync'd cache entry each, and checkpoints;
* the sweep pass runs the same range at 2 channels x 2 ranks through a
  fresh cache handle on the same directory, so every outcome is read
  back from disk (topology dilution is applied after the lookup).

Every range runs twice, the second pass over the ranges in another
seed-chosen order.  It runs the compute layers of ``campaign`` on arrays
1/32 the size, makes the only durable writes and disk reads of any
workload, and is the only workload that uses `repro.fleet`.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import statistics
import time

import harness
import tracer
import wl_campaign

INSTANCES_PER_PASS = 128
CHECKPOINT_EVERY = 64
#: Rounds per second on the reference host; sizes a run (`harness.op_count`).
NOMINAL_ROUNDS_PER_S = 1.2


def setup(seed: int, seconds: float) -> dict:
    from repro.fleet import FleetSpec

    rng = random.Random(f"fleet-{seed}")
    base = rng.randrange(0, 2**40)
    specs = [
        FleetSpec(
            modules=INSTANCES_PER_PASS,
            seed=seed,
            offset=base + r * INSTANCES_PER_PASS,
            scenario="mixed",
        )
        for r in range(harness.op_count(seconds, NOMINAL_ROUNDS_PER_S, multiple=2) // 2)
    ]
    work = harness.WORK_DIR / f"fleet-{os.getpid()}"
    return {
        "seed": seed,
        "rng": rng,
        "specs": specs,
        "order": harness.repeat_order(rng, len(specs), 2),
        "work": work,
    }


def _install(recorder: tracer.Recorder, patches: tracer.Patches) -> None:
    from repro.core.cache import OutcomeCache
    from repro.fleet import aggregate, campaign, scenario

    def saved_bytes(record, result, args, kwargs):
        record["attributes"]["bytes"] = os.path.getsize(result)

    def hit(record, result, args, kwargs):
        record["attributes"]["hit"] = result is not None

    patches.wrap(
        campaign.FleetCampaign, "run",
        tracer.timed(recorder, "fleet.campaign.run", "fleet", fallback=True),
    )
    patches.wrap(
        scenario.FleetSpec, "instance",
        tracer.timed(recorder, "fleet.scenario.instance", "fleet"),
    )
    patches.wrap(
        campaign, "characterize_instance",
        tracer.timed(recorder, "fleet.campaign.characterize_instance", "fleet"),
    )
    wl_campaign.install_cell_layers(recorder, patches, campaign)
    patches.wrap(OutcomeCache, "get", tracer.timed(recorder, "core.cache.get", "core.cache", hit))
    patches.wrap(OutcomeCache, "put", tracer.timed(recorder, "core.cache.put", "core.cache"))
    patches.wrap(
        aggregate.FleetAggregator, "add",
        tracer.timed(recorder, "fleet.aggregate.add", "fleet"),
    )
    patches.wrap(
        aggregate.CheckpointStore, "save",
        tracer.timed(recorder, "fleet.checkpoint.save", "fleet", saved_bytes),
    )


def _layer_metrics(recorder: tracer.Recorder, sweep_stats: list[dict]) -> dict:
    runs = {r["span_id"]: r for r in recorder.named("fleet.campaign.run")}
    cold_runs = {i for i, r in runs.items() if r["attributes"].get("pass") == "cold"}
    per_instance = [
        r for r in recorder.records
        if r["name"] in ("core.cache.get", "fleet.campaign.characterize_instance", "core.cache.put")
    ]
    cold_busy = sum(r["duration_s"] for r in per_instance if r["parent_id"] in cold_runs)
    cold_wall = sum(runs[i]["duration_s"] for i in cold_runs)
    puts = recorder.named("core.cache.put")
    sweep_gets = [
        r for r in recorder.named("core.cache.get") if r["parent_id"] not in cold_runs
    ]
    saves = recorder.named("fleet.checkpoint.save")
    lookups = sum(stats["lookups"] for stats in sweep_stats)
    disk_hits = sum(stats["disk_hits"] for stats in sweep_stats)

    def p50_ms(records):
        return harness.percentile([r["duration_s"] * 1e3 for r in records], 50.0)

    metrics = {
        "fleet.scenario.busy_s": sum(
            r["duration_s"] for r in recorder.named("fleet.scenario.instance")
        ),
        "fleet.pool.parallelism": cold_busy / cold_wall,
        "core.cache.puts": len(puts),
        "core.cache.put_ms_p50": p50_ms(puts),
        "core.cache.get_ms_p50": p50_ms(sweep_gets),
        "core.cache.disk_hit_ratio": disk_hits / lookups,
        "fleet.aggregate.busy_s": sum(
            r["duration_s"] for r in recorder.named("fleet.aggregate.add")
        ),
        "fleet.checkpoint.saves": len(saves),
        "fleet.checkpoint.save_ms_p50": p50_ms(saves),
        "fleet.checkpoint.bytes": statistics.median(
            r["attributes"]["bytes"] for r in saves
        ),
    }
    metrics.update(wl_campaign.cell_layer_metrics_of(recorder.records))
    return metrics


def run(ctx: dict, recorder: tracer.Recorder | None) -> dict:
    from repro.core.cache import OutcomeCache
    from repro.fleet import FleetCampaign

    workers = harness.nproc()
    work = ctx["work"]
    shutil.rmtree(work, ignore_errors=True)
    patches = tracer.Patches()
    root = None
    if recorder is not None:
        _install(recorder, patches)
        root = recorder.open("bench.fleet", "bench")

    def one_pass(spec, label: str, round_index: int):
        cache = OutcomeCache(directory=work / f"cache-{round_index}")
        campaign = FleetCampaign(
            spec=spec,
            cache=cache,
            checkpoint_dir=str(work / f"checkpoints-{label}-{round_index}"),
            checkpoint_every=CHECKPOINT_EVERY,
            workers=workers,
        )
        span = None
        if recorder is not None:
            # Tags the `FleetCampaign.run` span the wrapper opens next.
            span = recorder.open("bench.fleet.pass", "bench", **{"pass": label})
        begin = time.perf_counter()
        try:
            result = campaign.run()
        finally:
            took = time.perf_counter() - begin
            if span is not None:
                recorder.close(*span)
        # Only the counters outlive the pass: holding the cache would keep
        # its memory tier alive and inflate the peak resident set.
        return result, took, cache.stats

    cold: list[tuple] = []
    sweep: list[tuple] = []
    try:
        for round_index, which in enumerate(ctx["order"]):
            spec = ctx["specs"][which]
            cold.append(one_pass(spec, "cold", round_index))
            swept = dataclasses.replace(spec, channels=2, ranks=2)
            sweep.append(one_pass(swept, "sweep", round_index))
    finally:
        if root is not None:
            recorder.close(*root)
        patches.restore()
    peak_rss = harness.own_peak_rss_mb()

    tally = harness.Tally()
    checks = {
        "sweep_zero_misses": True,
        "cold_snapshot_matches_recompute": True,
        "repeated_ranges_identical": True,
    }
    first: dict[int, tuple] = {}
    for round_index, which in enumerate(ctx["order"]):
        snapshots = (
            cold[round_index][0].aggregator.snapshot(),
            sweep[round_index][0].aggregator.snapshot(),
        )
        if first.setdefault(which, snapshots) != snapshots:
            checks["repeated_ranges_identical"] = False
            tally.fail(("repeat", round_index), f"round {round_index}: range {which} differs")
    for round_index, (result, _, _) in enumerate(cold):
        tally.attempt(result.spec.modules)
        if not result.complete:
            tally.fail(("cold", round_index), f"cold pass {round_index} incomplete")
    for round_index, (result, _, _) in enumerate(sweep):
        tally.attempt(result.spec.modules)
        if result.cache_misses or not result.complete:
            checks["sweep_zero_misses"] = False
            tally.fail(
                ("sweep", round_index),
                f"sweep pass {round_index}: {result.cache_misses} misses",
            )
    # Correctness: one seed-chosen cold pass against a cache-free,
    # inline recomputation of the same spec.
    checked = ctx["rng"].randrange(min(2, len(cold)))
    reference = FleetCampaign(spec=cold[checked][0].spec).run()
    if reference.aggregator.snapshot() != cold[checked][0].aggregator.snapshot():
        checks["cold_snapshot_matches_recompute"] = False
        tally.fail(("cold", checked), f"cold pass {checked} differs from recompute")
    digests = {
        "cold.snapshot.first": harness.digest(cold[0][0].aggregator.snapshot()),
        "sweep.snapshot.first": harness.digest(sweep[0][0].aggregator.snapshot()),
    }

    cold_modules = sum(result.spec.modules for result, _, _ in cold)
    sweep_modules = sum(result.spec.modules for result, _, _ in sweep)
    cold_rate, _ = harness.best_of_repeats(
        ctx["order"], [took for _, took, _ in cold], [r.spec.modules for r, _, _ in cold]
    )
    sweep_rate, sweep_best = harness.best_of_repeats(
        ctx["order"], [took for _, took, _ in sweep], [r.spec.modules for r, _, _ in sweep]
    )
    sweep_p50_ms = sweep_best * 1e3
    result = {
        "metrics": {
            "ops_per_s": [cold_rate, "1/s", len(cold)],
            "op_p50_ms": [sweep_p50_ms, "ms", len(sweep)],
            "peak_rss_mb": [peak_rss, "MiB", 1],
        },
        "named": {
            "modules_per_s": [cold_rate, "modules/s", cold_modules],
            "cached_modules_per_s": [sweep_rate, "modules/s", sweep_modules],
            "sweep_pass_p50_ms": [sweep_p50_ms, "ms", len(sweep)],
        },
        "checks": checks,
        "digests": digests,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
    }
    if recorder is not None:
        # Copy each pass's label onto the `FleetCampaign.run` span inside it.
        passes = {r["span_id"]: r["attributes"]["pass"] for r in recorder.named("bench.fleet.pass")}
        for record in recorder.named("fleet.campaign.run"):
            record["attributes"]["pass"] = passes.get(record["parent_id"])
        window = (root[0]["start_unix"], root[0]["start_unix"] + root[0]["duration_s"])
        result["layers"] = _layer_metrics(recorder, [stats for _, _, stats in sweep])
        result["layer_table"] = tracer.layer_table(recorder.records, window)
    shutil.rmtree(work, ignore_errors=True)
    return result
