"""Every metric the benchmark reports, with its unit and better direction.

``BENCHMARK.json`` lists the same names, units and directions (a test
keeps them in step); ``README.md`` explains them.  End-to-end metrics are
measured with the benchmark's tracing off and exist on every workload;
per-layer metrics come from the traced pass and read 0 on a workload that
bypasses the layer.
"""

from __future__ import annotations

from tracer import LAYERS

#: name -> (unit, better, bound as a share of the parent's median).
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}

#: name -> (unit, better).  README.md gives, for each, the call timed or
#: counter read, the workload measuring it and the end-to-end metric it
#: should move.
PER_LAYER = {
    "serve.transport.self_ms_p50": ("ms", "lower"),
    "serve.scheduler.wait_ms_p50": ("ms", "lower"),
    "serve.scheduler.wait_ms_p99": ("ms", "lower"),
    "serve.scheduler.lane_busy_share": ("ratio", "lower"),
    "serve.scheduler.batches": ("count", "lower"),
    "serve.scheduler.batch_size_mean": ("req/batch", "higher"),
    "serve.scheduler.coalesce_ratio": ("ratio", "higher"),
    "serve.scheduler.rejected": ("count", "lower"),
    "core.engine.busy_ms_p50": ("ms", "lower"),
    "core.cache.hit_ratio": ("ratio", "higher"),
    "core.cache.lookup_us_p50": ("us", "lower"),
    "obs.spans_per_request": ("spans/req", "lower"),
    "core.engine.units": ("count", "higher"),
    "core.engine.unit_ms_p50": ("ms", "lower"),
    "core.engine.parallelism": ("workers", "higher"),
    "core.engine.self_s": ("s", "lower"),
    "core.engine.effective_workers": ("workers", "higher"),
    "core.engine.retries": ("count", "lower"),
    "chip.cells.busy_s": ("s", "lower"),
    "chip.cells.ns_per_cell": ("ns/cell", "lower"),
    "core.analytic.outcome_busy_s": ("s", "lower"),
    "core.analytic.summarize_busy_s": ("s", "lower"),
    "core.analytic.ns_per_cell": ("ns/cell", "lower"),
    "fleet.scenario.busy_s": ("s", "lower"),
    "fleet.pool.parallelism": ("workers", "higher"),
    "core.cache.puts": ("count", "higher"),
    "core.cache.put_ms_p50": ("ms", "lower"),
    "core.cache.get_ms_p50": ("ms", "lower"),
    "core.cache.disk_hit_ratio": ("ratio", "higher"),
    "fleet.aggregate.busy_s": ("s", "lower"),
    "fleet.checkpoint.saves": ("count", "higher"),
    "fleet.checkpoint.save_ms_p50": ("ms", "lower"),
    "fleet.checkpoint.bytes": ("B", "lower"),
    "sim.simple.ns_per_request": ("ns/req", "lower"),
    "sim.raidr.ns_per_request": ("ns/req", "lower"),
    "sim.command.ns_per_request": ("ns/req", "lower"),
    "sim.enforced.ns_per_request": ("ns/req", "lower"),
    "sim.memsys.serve_next_share": ("ratio", "lower"),
    "sim.timingcheck.busy_s": ("s", "lower"),
    "sim.requests": ("count", "lower"),
    "sim.cycles": ("count", "lower"),
    "sim.violations": ("count", "lower"),
}

# Wall-time share of each layer and of the benchmark's own root in the
# traced pass (see `tracer.wall_attribution`).
for _layer in LAYERS:
    PER_LAYER[f"share.{_layer}"] = ("ratio", "lower")
