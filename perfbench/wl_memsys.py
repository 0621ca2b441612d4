"""``memsys``: `simulate_mix` over seed-ordered four-core mixes.

Each op is one mix run in four configurations:

* ``simple`` — the simple backend with `NoRefresh`;
* ``raidr`` — the simple backend with `raidr_policy` at a
  ColumnDisturb-scale weak-row fraction, as in Fig. 23;
* ``command`` — the command-level backend with `PeriodicRefresh`;
* ``enforced`` — 2 channels x 2 ranks with ``check_timing`` and
  ``enforce_timing``.

A run makes whole passes over the 20 mixes, each pass in its own
seed-chosen order.  The simulator is single-threaded pure Python, whose
speed on a shared host swings with other tenants' load, so op times are
reported at the reference host's full speed (`harness.host_normalized`);
the raw rates are printed too.  `repro.sim` shares no code with the other
workloads, and these four configurations run all three encodings of the
timing rules.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time

import harness
import tracer

CONFIGS = ("simple", "raidr", "command", "enforced")
MIX_LENGTH = 1600
ROWS_PER_BANK = 65536
#: Weak-row fraction of the ``raidr`` configuration: ColumnDisturb moves
#: the fraction of rows needing the short refresh interval to this scale.
RAIDR_WEAK_FRACTION = 0.1
#: Ops whose results every run digests (a run makes more).
DIGESTED_OPS = 4
#: Ops per second on the reference host; sizes a run (`harness.op_count`)
#: in whole passes over the 20 mixes: a run of 20 s runs every mix twice.
NOMINAL_OPS_PER_S = 2.0


def setup(seed: int, seconds: float) -> dict:
    from repro.sim import (
        DDR4_3200,
        MEMSYS_DDR4_3200,
        MemsysTopology,
        NoRefresh,
        PeriodicRefresh,
        raidr_policy,
    )
    from repro.workloads.mixes import MIX_COUNT, make_mix

    rng = random.Random(f"memsys-{seed}")
    passes = harness.op_count(seconds, NOMINAL_OPS_PER_S, multiple=MIX_COUNT) // MIX_COUNT
    mixes = {index: make_mix(index, length=MIX_LENGTH) for index in range(MIX_COUNT)}
    configs = {
        "simple": {"policy": NoRefresh()},
        "raidr": {"policy": raidr_policy(DDR4_3200, ROWS_PER_BANK, RAIDR_WEAK_FRACTION)},
        "command": {"policy": PeriodicRefresh(DDR4_3200), "backend": "command"},
        "enforced": {
            "policy": PeriodicRefresh(MEMSYS_DDR4_3200),
            "timing": MEMSYS_DDR4_3200,
            "topology": MemsysTopology(channels=2, ranks=2),
            "check_timing": True,
            "enforce_timing": True,
        },
    }
    return {
        "seed": seed,
        "order": harness.repeat_order(rng, MIX_COUNT, passes),
        "mixes": mixes,
        "configs": configs,
    }


def _image(result) -> dict:
    """Deterministic JSON image of a result (`SystemResult.to_json` where
    the backend returns one)."""
    if hasattr(result, "to_json"):
        return result.to_json()
    return dataclasses.asdict(result)


def run(ctx: dict, recorder: tracer.Recorder | None) -> dict:
    from repro.sim import simulate_mix
    from repro.sim.memsys import system, timingcheck

    patches = tracer.Patches()
    root = None
    if recorder is not None:
        patches.wrap(
            timingcheck.TimingChecker, "check",
            tracer.timed(recorder, "sim.timingcheck.check", "sim"),
        )
        root = recorder.open("bench.memsys", "bench")
    outs: list[dict] = []
    probes = [harness.python_probe()]
    try:
        for mix_index in ctx["order"]:
            out = {"seconds": {}, "requests": {}, "images": {}}
            op_start = time.perf_counter()
            for name in CONFIGS:
                serve_next = span = None
                if recorder is not None:
                    span = recorder.open("sim.simulate_mix", "sim", config=name, mix=mix_index)
                    if name == "enforced":
                        serve_next = tracer.Patches()
                        serve_next.wrap(
                            system.MemorySystem, "serve_next",
                            tracer.accumulated(recorder, "sim.memsys.serve_next"),
                        )
                begin = time.perf_counter()
                try:
                    result = simulate_mix(ctx["mixes"][mix_index], **ctx["configs"][name])
                finally:
                    out["seconds"][name] = time.perf_counter() - begin
                    if serve_next is not None:
                        serve_next.restore()
                    if span is not None:
                        recorder.close(*span)
                out["requests"][name] = result.requests
                out["images"][name] = _image(result)
            out["op_seconds"] = time.perf_counter() - op_start
            outs.append(out)
            probes.append(harness.python_probe())
    finally:
        if root is not None:
            recorder.close(*root)
        patches.restore()
    ops = ctx["order"]

    tally = harness.Tally()
    tally.attempt(len(ops) * len(CONFIGS))
    checks = {"enforced_zero_violations": True, "repeated_mixes_identical": True}
    first: dict[int, dict] = {}
    for op, (mix_index, out) in enumerate(zip(ops, outs)):
        if out["images"]["enforced"]["timing"]["violations"]:
            checks["enforced_zero_violations"] = False
            tally.fail((op, "enforced"), f"op {op}: enforced run has violations")
        if first.setdefault(mix_index, out["images"]) != out["images"]:
            checks["repeated_mixes_identical"] = False
            tally.fail((op, "repeat"), f"op {op}: mix {mix_index} not reproducible")

    op_requests = [sum(out["requests"].values()) for out in outs]
    requests = sum(op_requests)
    op_seconds = [out["op_seconds"] for out in outs]
    rate, op_best = harness.best_of_repeats(
        ops, harness.host_normalized(op_seconds, probes), op_requests
    )
    named = {
        "sim_requests_per_s": [rate, "req/s", requests],
        "sim_requests_per_s.raw": [requests / sum(op_seconds), "req/s", requests],
        "host.probe_ms_p50": [statistics.median(probes) * 1e3, "ms", len(probes)],
    }
    for name in CONFIGS:
        config_requests = sum(out["requests"][name] for out in outs)
        named[f"sim_requests_per_s.{name}"] = [
            config_requests / sum(out["seconds"][name] for out in outs),
            "req/s",
            config_requests,
        ]
    digested = outs[:DIGESTED_OPS]
    result = {
        "metrics": {
            "ops_per_s": [rate, "1/s", len(outs)],
            "op_p50_ms": [op_best * 1e3, "ms", len(outs)],
            "peak_rss_mb": [harness.own_peak_rss_mb(), "MiB", 1],
        },
        "named": named,
        "checks": checks,
        "digests": {
            f"result.{name}": harness.digest([out["images"][name] for out in digested])
            for name in CONFIGS
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
    }
    if recorder is not None:
        spans = recorder.named("sim.simulate_mix")
        layers = {}
        for name in CONFIGS:
            took = sum(r["duration_s"] for r in spans if r["attributes"]["config"] == name)
            config_requests = sum(out["requests"][name] for out in outs)
            layers[f"sim.{name}.ns_per_request"] = took * 1e9 / config_requests
        layers["sim.memsys.serve_next_share"] = recorder.sums["sim.memsys.serve_next"][
            1
        ] / sum(out["seconds"]["enforced"] for out in outs)
        layers["sim.timingcheck.busy_s"] = sum(
            r["duration_s"] for r in recorder.named("sim.timingcheck.check")
        )
        # Exact counts over the ops every run makes, so a speed-only
        # change leaves them identical.
        images = [image for out in digested for image in out["images"].values()]
        layers["sim.requests"] = sum(image["requests"] for image in images)
        layers["sim.cycles"] = sum(image["cycles"] for image in images)
        layers["sim.violations"] = sum(
            len(image.get("timing", {}).get("violations", ())) for image in images
        )
        window = (root[0]["start_unix"], root[0]["start_unix"] + root[0]["duration_s"])
        result["layers"] = layers
        result["layer_table"] = tracer.layer_table(recorder.records, window)
    return result
