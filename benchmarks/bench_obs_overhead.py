"""Paired observability-overhead benchmark: the same characterization
campaign with metrics/spans disabled and enabled.

The observability layer promises zero cost when off (a single module-
attribute check per instrumentation site) and <=5% when on.  This bench
holds it to that: it runs one serial campaign per state, interleaving
rounds so drift hits both states equally, and reports the best-of-round
wall times.  It also measures the *tracing-enabled serve path* — HTTP
requests against a warmed in-process server, where every request mints a
trace, opens spans, and stamps log/metric correlation — and records that
alongside.  Run standalone to refresh the ``obs`` block in
``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

Exit status is non-zero when the enabled overhead exceeds the gate
(``REPRO_OBS_GATE_PCT``, default 5.0) — CI uses that as the regression
check on the campaign path.  The serve-path numbers are recorded and
printed (loopback HTTP jitter makes them too noisy for a hard gate).
The pytest wrapper (marked ``slow``) asserts the same bound.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import pytest

from _common import merge_bench_block
from repro import obs
from repro.chip import BankGeometry
from repro.core import Campaign, CampaignScale, WORST_CASE

#: Small enough to keep a paired multi-round run under a minute, large
#: enough that per-command metric increments (the hot path) dominate any
#: constant setup cost.
GEOMETRY = BankGeometry(subarrays=4, rows_per_subarray=512, columns=1024)
INTERVALS = (0.512, 1.0, 4.0, 16.0)
GATE_PCT = float(os.environ.get("REPRO_OBS_GATE_PCT", "5.0"))


def _campaign_once() -> None:
    Campaign(scale=CampaignScale(GEOMETRY)).characterize_module(
        "S0", WORST_CASE, INTERVALS
    )


def measure_overhead(rounds: int = 10) -> dict:
    """Median-of-``rounds`` wall time per state.  Rounds are interleaved so
    CPU-frequency / scheduler drift is shared rather than attributed to one
    state, and the median (not the best) is compared because single-run
    noise on this workload is of the same order as the overhead itself."""
    times: dict[str, list[float]] = {"disabled": [], "enabled": []}
    _campaign_once()  # common warm-up: imports, memoised retention arrays
    for _ in range(rounds):
        for state in ("disabled", "enabled"):
            obs.disable()
            obs.reset()
            if state == "enabled":
                obs.enable()
            start = time.perf_counter()
            _campaign_once()
            times[state].append(time.perf_counter() - start)
    obs.disable()
    obs.reset()
    median = {state: statistics.median(walls)
              for state, walls in times.items()}
    overhead = (median["enabled"] - median["disabled"]) / median["disabled"]
    return {
        "rounds": rounds,
        "geometry": {
            "subarrays": GEOMETRY.subarrays,
            "rows_per_subarray": GEOMETRY.rows_per_subarray,
            "columns": GEOMETRY.columns,
        },
        "intervals": list(INTERVALS),
        "disabled_s": round(median["disabled"], 3),
        "enabled_s": round(median["enabled"], 3),
        "overhead_pct": round(100.0 * overhead, 2),
    }


#: Serve-path workload: a request whose result is already cached, so the
#: measurement isolates dispatch + tracing + serialization rather than
#: the engine computation the campaign bench already covers.
SERVE_REQUEST = {"serial": "S0", "subarrays": 2, "rows": 64,
                 "columns": 128, "intervals": [0.512, 16.0]}


def measure_serve_overhead(rounds: int = 5, requests: int = 50) -> dict:
    """Median round wall time for ``requests`` cached HTTP requests per
    state, against one in-process server.  With observability enabled,
    every request mints a trace id, opens a ``serve.request`` span, and
    stamps the access-log record — the full tracing-enabled path."""
    from repro.serve import ServeClient, ServeConfig, ServerThread

    thread = ServerThread(ServeConfig(port=0))
    times: dict[str, list[float]] = {"disabled": [], "enabled": []}
    try:
        with ServeClient(port=thread.port) as client:
            client.characterize(SERVE_REQUEST)  # warm the response cache
            for _ in range(rounds):
                for state in ("disabled", "enabled"):
                    obs.disable()
                    obs.reset()
                    if state == "enabled":
                        obs.enable()
                    start = time.perf_counter()
                    for _ in range(requests):
                        client.characterize(SERVE_REQUEST)
                    times[state].append(time.perf_counter() - start)
    finally:
        obs.disable()
        obs.reset()
        thread.shutdown()
    median = {state: statistics.median(walls)
              for state, walls in times.items()}
    overhead = (median["enabled"] - median["disabled"]) / median["disabled"]
    return {
        "rounds": rounds,
        "requests_per_round": requests,
        "disabled_s": round(median["disabled"], 4),
        "enabled_s": round(median["enabled"], 4),
        "overhead_pct": round(100.0 * overhead, 2),
    }


def _record(result: dict) -> None:
    merge_bench_block("obs", result)


@pytest.mark.slow
def test_obs_enabled_overhead_within_gate():
    result = measure_overhead()
    assert result["overhead_pct"] <= GATE_PCT, (
        f"metrics-enabled campaign is {result['overhead_pct']}% slower than "
        f"disabled ({result['enabled_s']}s vs {result['disabled_s']}s); "
        f"gate is {GATE_PCT}%"
    )


def main() -> int:
    result = measure_overhead(rounds=int(os.environ.get("REPRO_OBS_ROUNDS",
                                                        "10")))
    result["serve"] = measure_serve_overhead()
    _record(result)
    print(f"disabled: {result['disabled_s']} s")
    print(f"enabled:  {result['enabled_s']} s")
    print(f"overhead: {result['overhead_pct']}% (gate {GATE_PCT}%)")
    serve = result["serve"]
    print(f"serve path ({serve['requests_per_round']} cached requests): "
          f"disabled {serve['disabled_s']} s, enabled {serve['enabled_s']} s, "
          f"overhead {serve['overhead_pct']}%")
    if result["overhead_pct"] > GATE_PCT:
        print("FAIL: enabled-metrics overhead exceeds gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
