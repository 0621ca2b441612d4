"""Serving throughput/latency bench: closed-loop clients vs `repro.serve`.

Drives an in-process server (`repro.serve.ServerThread`) with a
closed-loop client mix — a small *hot set* of request shapes issued
repeatedly (once a shape's units are in the memory tier its repeats are
answered at submit; before that they coalesce onto its in-flight
computation) plus a stream of unique *cold* shapes (each is a genuine
engine submission).  Reports throughput, p50/p95 request latency, the
coalesce ratio and the answered and coalesced counts, and merges them as
the ``serve`` block of ``BENCH_engine.json`` (repo root +
``benchmarks/results/``) via the shared block-preserving writer in
``_common`` — other benches' blocks survive a refresh and vice versa.

``--fleet N`` additionally drives a real ``repro serve --fleet N``
subprocess (front door + N workers) with the same mix and records the
post-sharding numbers — throughput, p95, and the fleet-wide counters
read from ``/fleet/stats`` — under the ``fleet`` subkey of the ``serve``
block.

Run directly for the committed numbers::

    PYTHONPATH=src python benchmarks/bench_serve.py --fleet 4

or via pytest (marked ``slow``; asserts that hot repeats cost no engine
work — more than half of all requests answered or coalesced, and no
more engine jobs than cold requests plus hot shapes — without rewriting
the JSON)::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_serve.py -m slow
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from _common import merge_bench_block
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

#: Small silicon so the bench measures the serving layer, not the engine.
_GEOMETRY = {"subarrays": 2, "rows": 64, "columns": 128}

#: The hot set: repeatedly-requested shapes, computed once each.
HOT_REQUESTS = (
    {"serial": "S0", **_GEOMETRY, "intervals": [0.512, 16.0]},
    {"serial": "M8", **_GEOMETRY, "intervals": [0.512, 16.0]},
)


def _cold_request(index: int) -> dict:
    """A unique request shape per index: a fresh temperature fold means a
    fresh cache identity AND a fresh batch bucket — a guaranteed miss."""
    return {
        "serial": "S0",
        **_GEOMETRY,
        "intervals": [0.512],
        "temperature_c": 40.0 + index * 0.125,
    }


def _cold_count(requests: int, hot_fraction: float) -> int:
    """Cold (unique, engine-bound) requests in a mix of ``requests``."""
    return requests - int(requests * hot_fraction)


def _work_list(requests: int, hot_fraction: float) -> list[dict]:
    """The exact hot/cold mix, deterministically interleaved.

    A coprime stride permutes the list so hot repeats and cold misses
    alternate the way a mixed client population would (no RNG).
    """
    hot_count = requests - _cold_count(requests, hot_fraction)
    work: list[dict] = []
    for index in range(requests):
        if index < hot_count:
            work.append(HOT_REQUESTS[index % len(HOT_REQUESTS)])
        else:
            work.append(_cold_request(index))
    stride = max(1, requests // 12)
    while math.gcd(stride, requests) != 1:
        stride += 1
    return [work[(i * stride) % requests] for i in range(requests)]


def _drive(
    port: int, work: list[dict], clients: int
) -> tuple[float, list[float], int]:
    """Closed-loop load: returns (wall_s, latencies_s, retried_429).

    Each client thread owns one keep-alive connection and draws from the
    shared work list.  A 429 sleeps the parsed ``Retry-After`` (floored
    at 1 s by the client) and retries the same item — admission-control
    pushback is part of the workload, not an error.
    """
    latencies: list[float] = []
    errors: list[str] = []
    retried = [0]
    lock = threading.Lock()
    cursor = iter(range(len(work)))

    def worker() -> None:
        with ServeClient(port=port) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter()
                while True:
                    try:
                        client.characterize(work[index])
                        break
                    except ServeError as exc:
                        if exc.status != 429:
                            with lock:
                                errors.append(f"HTTP {exc.status}: {exc}")
                            return
                        with lock:
                            retried[0] += 1
                        time.sleep(exc.retry_after or 1.0)
                    except Exception as exc:  # pragma: no cover - bench guard
                        with lock:
                            errors.append(f"{type(exc).__name__}: {exc}")
                        return
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise RuntimeError(f"{len(errors)} client error(s): {errors[0]}")
    return wall, latencies, retried[0]


def _latency_summary(latencies: list[float]) -> tuple[float, float]:
    latencies_ms = sorted(x * 1000.0 for x in latencies)
    quantiles = statistics.quantiles(latencies_ms, n=20)
    return statistics.median(latencies_ms), quantiles[18]


def run_serve_bench(
    requests: int = 240,
    clients: int = 8,
    hot_fraction: float = 0.8,
    batch_window_ms: float = 10.0,
) -> dict:
    """Closed-loop client mix against an in-process single server."""
    work = _work_list(requests, hot_fraction)
    server = ServerThread(
        ServeConfig(port=0, batch_window_ms=batch_window_ms)
    )
    try:
        wall, latencies, retried = _drive(server.port, work, clients)
        stats = dict(server.scheduler.stats)
    finally:
        server.shutdown()
    p50, p95 = _latency_summary(latencies)
    return {
        "requests": requests,
        "clients": clients,
        "hot_fraction": hot_fraction,
        "batch_window_ms": batch_window_ms,
        "wall_s": round(wall, 3),
        "throughput_rps": round(requests / wall, 1),
        "p50_ms": round(p50, 2),
        "p95_ms": round(p95, 2),
        "coalesce_ratio": round(stats["coalesced"] / stats["requests"], 3),
        "coalesced": stats["coalesced"],
        "answered": stats["answered"],
        "engine_jobs": stats["jobs"],
        "batched_requests": stats["batched_requests"],
    }


def run_fleet_bench(
    fleet: int = 4,
    requests: int = 240,
    clients: int = 8,
    hot_fraction: float = 0.8,
    batch_window_ms: float = 10.0,
) -> dict:
    """The same mix against a real ``repro serve --fleet N`` subprocess.

    Spawns the front door (which spawns its workers), waits for the
    listening banner, runs the closed loop through the sharding proxy,
    reads the fleet-wide coalesce ratio from ``/fleet/stats``, and
    SIGTERMs the fleet — a non-zero exit or unclean drain is a bench
    failure, not a statistic.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--fleet", str(fleet),
            "--port", "0",
            "--batch-window-ms", str(batch_window_ms),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    stderr_lines: list[str] = []
    port: int | None = None
    try:
        assert process.stderr is not None
        deadline = time.monotonic() + 120.0
        while port is None:
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "fleet never announced its front-door port; stderr:\n"
                    + "".join(stderr_lines[-20:])
                )
            line = process.stderr.readline()
            if not line:
                continue
            stderr_lines.append(line)
            match = re.search(
                r"front door listening on http://[^:]+:(\d+)", line
            )
            if match:
                port = int(match.group(1))
        # Keep draining stderr (worker log forwarding) off-thread so the
        # fleet can never block on a full pipe mid-bench.
        drain = threading.Thread(
            target=lambda: stderr_lines.extend(process.stderr),
            daemon=True,
        )
        drain.start()

        work = _work_list(requests, hot_fraction)
        wall, latencies, retried = _drive(port, work, clients)
        with ServeClient(port=port) as client:
            stats = client.fleet_stats()
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=120)
    if returncode != 0:
        raise RuntimeError(f"fleet exited {returncode} after drain")

    totals = stats["totals"]
    p50, p95 = _latency_summary(latencies)
    # Honesty rule (same as the engine suite): a fleet cannot beat one
    # process on a host without the cores to run its workers — flag the
    # measurement rather than letting a proxy-overhead number pass for a
    # scaling result.
    meaningful = (os.cpu_count() or 1) > fleet
    if not meaningful:
        print(
            f"WARNING: fleet throughput is not a scaling measurement on "
            f"this host (cpu_count={os.cpu_count()} for fleet={fleet}); "
            "it prices the sharding proxy, not horizontal scale-out",
            file=sys.stderr,
        )
    return {
        "fleet": fleet,
        "parallel_measurement_meaningful": meaningful,
        "requests": requests,
        "clients": clients,
        "hot_fraction": hot_fraction,
        "batch_window_ms": batch_window_ms,
        "cpu_count": os.cpu_count(),
        "wall_s": round(wall, 3),
        "throughput_rps": round(requests / wall, 1),
        "p50_ms": round(p50, 2),
        "p95_ms": round(p95, 2),
        "retried_429": retried,
        "coalesce_ratio": stats["coalesce_ratio"],
        "coalesced": totals.get("coalesced", 0),
        "answered": totals.get("answered", 0),
        "engine_jobs": totals.get("jobs", 0),
        "batched_requests": totals.get("batched_requests", 0),
        "clean_drain": True,
    }


def _assert_hot_repeats_cost_no_engine_work(result: dict, share: float) -> None:
    """Hot repeats are answered from memory or coalesce onto an in-flight
    computation: more than ``share`` of all requests run no engine work,
    and each hot shape costs at most one engine job."""
    free = result["coalesced"] + result["answered"]
    assert free / result["requests"] > share
    assert result["engine_jobs"] < result["requests"]
    cold = _cold_count(result["requests"], result["hot_fraction"])
    assert result["engine_jobs"] <= cold + len(HOT_REQUESTS)


@pytest.mark.slow
def test_serve_bench_hot_repeats_coalesce():
    """The serving layer's reason to exist: in a hot-repeat mix more than
    half of all requests cost no engine work."""
    result = run_serve_bench(requests=120, clients=8)
    _assert_hot_repeats_cost_no_engine_work(result, 0.5)
    assert result["p95_ms"] > 0


@pytest.mark.slow
def test_fleet_bench_sharding_preserves_coalescing():
    """Hash-sharded fleet keeps each hot key on one worker, so hot repeats
    still cost no engine work fleet-wide (read from /fleet/stats)."""
    result = run_fleet_bench(fleet=2, requests=120, clients=8)
    _assert_hot_repeats_cost_no_engine_work(result, 0.4)
    assert result["clean_drain"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop bench of the repro.serve service; merges "
                    "a 'serve' block into BENCH_engine.json",
    )
    parser.add_argument("--requests", type=int, default=240)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--hot-fraction", type=float, default=0.8)
    parser.add_argument("--batch-window-ms", type=float, default=10.0)
    parser.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="also bench a repro serve --fleet N subprocess and record "
             "the post-sharding numbers under the serve block's 'fleet' "
             "subkey",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="print the result without rewriting BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    result = run_serve_bench(
        requests=args.requests,
        clients=args.clients,
        hot_fraction=args.hot_fraction,
        batch_window_ms=args.batch_window_ms,
    )
    if args.fleet:
        fleet_result = run_fleet_bench(
            fleet=args.fleet,
            requests=args.requests,
            clients=args.clients,
            hot_fraction=args.hot_fraction,
            batch_window_ms=args.batch_window_ms,
        )
        fleet_result["rps_vs_single_process"] = round(
            fleet_result["throughput_rps"] / result["throughput_rps"], 2
        )
        result["fleet"] = fleet_result
    print(json.dumps({"serve": result}, indent=2))
    if not args.no_json:
        merge_bench_block("serve", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
