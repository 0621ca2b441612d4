"""The sharded serve fleet: ring routing, lifecycle, drain, crash recovery.

Three contracts anchor this file:

* the consistent-hash ring is deterministic, balanced, and remaps only a
  dead worker's keys (everything else stays home);
* SIGTERM drains the whole fleet — in-flight requests complete, every
  worker exits, the front door exits 0;
* a SIGKILLed worker is restarted with backoff, and while it is down its
  keys are served by ring successors (no failed client requests beyond
  any that were in flight on the dead worker).
"""

from __future__ import annotations

import collections
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import HashRing, ServeClient

REQ = {"serial": "S0", "subarrays": 2, "rows": 64, "columns": 128,
       "intervals": [0.512, 16.0]}
#: A cold request that keeps a worker's lane busy for most of a second.
SLOW_REQ = {**REQ, "subarrays": 4, "rows": 1024, "columns": 2048}


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------

def test_ring_is_deterministic_across_instances():
    a = HashRing(4)
    b = HashRing(4)
    keys = [f"key-{i}" for i in range(200)]
    assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]


def test_ring_balances_keys_across_workers():
    ring = HashRing(4)
    counts = collections.Counter(
        ring.lookup(f"key-{i}") for i in range(2000)
    )
    assert set(counts) == {0, 1, 2, 3}
    # 64 virtual replicas per worker keep the spread sane: no worker owns
    # more than half the keyspace or less than a twentieth of it.
    assert max(counts.values()) < 1000
    assert min(counts.values()) > 100


def test_ring_remaps_only_the_dead_workers_keys():
    ring = HashRing(4)
    keys = [f"key-{i}" for i in range(500)]
    before = {k: ring.lookup(k) for k in keys}
    alive = {0, 1, 3}  # worker 2 died
    after = {k: ring.lookup(k, alive) for k in keys}
    for key in keys:
        if before[key] != 2:
            assert after[key] == before[key], "a live worker's key moved"
        else:
            assert after[key] in alive
    # ...and they return home unchanged when it comes back.
    recovered = {k: ring.lookup(k, {0, 1, 2, 3}) for k in keys}
    assert recovered == before


def test_ring_rejects_empty_membership():
    ring = HashRing(2)
    with pytest.raises(LookupError):
        ring.lookup("key", alive=set())
    with pytest.raises(ValueError):
        HashRing(0)


# ---------------------------------------------------------------------------
# Fleet subprocess harness
# ---------------------------------------------------------------------------

def _spawn_fleet(fleet: int = 2, extra_args: list[str] | None = None,
                 stderr_lines: list[str] | None = None):
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--fleet", str(fleet), "--port", "0",
         *(extra_args or [])],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    port = None
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        if stderr_lines is not None:
            stderr_lines.append(line)
        match = re.search(r"front door listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        process.kill()
        process.wait()
        raise RuntimeError("fleet never announced its front-door port")

    # Keep stderr drained so log forwarding can never block the fleet
    # (collecting the lines when the caller asked to inspect them).
    def _drain():
        for line in process.stderr:
            if stderr_lines is not None:
                stderr_lines.append(line)

    threading.Thread(target=_drain, daemon=True).start()
    return process, port


@pytest.fixture(scope="module")
def fleet():
    process, port = _spawn_fleet()
    yield process, port
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=120) == 0, "fleet did not drain cleanly"


# ---------------------------------------------------------------------------
# Routing and observability through the front door
# ---------------------------------------------------------------------------

def test_fleet_serves_and_reports_workers(fleet):
    _, port = fleet
    with ServeClient(port=port) as client:
        assert client.readyz() == {"status": "ready"}
        health = client.healthz()
        assert health["role"] == "fleet-front-door"
        assert len(health["workers"]) == 2
        assert all(w["state"] == "ready" for w in health["workers"])
        assert len({w["pid"] for w in health["workers"]}) == 2

        result = client.characterize(REQ)
        assert len(result["records"]) == REQ["subarrays"]

        catalog = client.catalog()
        assert {"S0", "M8"} <= {m["serial"] for m in catalog["modules"]}

        text = client.metrics()
    assert "fleet_workers" in text
    assert "fleet_proxied_total" in text
    assert "fleet_restarts_total" in text


def test_fleet_metrics_are_federated_per_worker(fleet):
    """The front door's /metrics merges every worker's exposition under a
    ``worker`` label, plus a summed ``worker="all"`` aggregate."""
    _, port = fleet
    with ServeClient(port=port) as client:
        client.characterize(REQ)
        # The scrape itself hits each worker's /metrics route, so a second
        # scrape is guaranteed per-worker serve_requests_total samples.
        client.metrics()
        text = client.metrics()
    assert 'worker="0"' in text
    assert 'worker="1"' in text
    # Counters aggregate across the fleet; each family is declared once.
    pattern = r'^serve_requests_total\{.*worker="(\d+|all)".*\} (\d+(?:\.\d+)?)$'
    samples = collections.defaultdict(float)
    for match in re.finditer(pattern, text, re.MULTILINE):
        samples[match.group(1)] += float(match.group(2))
    assert samples["0"] > 0 and samples["1"] > 0
    assert samples["all"] == pytest.approx(samples["0"] + samples["1"])
    assert text.count("# TYPE serve_requests_total ") == 1
    # Histograms merge bucket-by-bucket too.
    assert re.search(r'serve_request_seconds_bucket\{.*worker="all"', text)


def test_fleet_duplicates_coalesce_on_one_worker(fleet):
    """Hash-sharding's purpose: concurrent duplicates all land on the
    same worker and coalesce there into one engine job.  The request is
    slow, so its job is still in flight when the last duplicate arrives
    (one arriving after it would be answered from memory instead)."""
    _, port = fleet
    with ServeClient(port=port) as client:
        before = client.fleet_stats()["totals"]
    barrier = threading.Barrier(6)
    results = [None] * 6
    request = {**SLOW_REQ, "serial": "M8"}

    def hit(i):
        with ServeClient(port=port) as client:
            barrier.wait()
            results[i] = client.characterize(request)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    with ServeClient(port=port) as client:
        after = client.fleet_stats()["totals"]
    assert after["jobs"] - before.get("jobs", 0) == 1
    assert after["coalesced"] - before.get("coalesced", 0) == 5


def test_fleet_front_door_validates_before_proxying(fleet):
    from repro.serve import ServeError

    _, port = fleet
    with ServeClient(port=port) as client:
        with pytest.raises(ServeError) as excinfo:
            client.characterize({"serial": "NOPE"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404


def test_fleet_worker_crash_reroutes_then_restarts(fleet):
    """SIGKILL one worker mid-service: requests keep succeeding (the ring
    walks to the survivor) and the monitor respawns the dead worker."""
    _, port = fleet
    with ServeClient(port=port) as client:
        victim = client.healthz()["workers"][0]["pid"]
    os.kill(victim, signal.SIGKILL)

    # Immediately after the kill, requests must still succeed — either
    # the survivor serves them or the proxy retries over the ring.
    with ServeClient(port=port) as client:
        result = client.characterize({**REQ, "serial": "S1"})
        assert len(result["records"]) == REQ["subarrays"]

    deadline = time.monotonic() + 60
    restarted = None
    while time.monotonic() < deadline:
        with ServeClient(port=port) as client:
            worker = client.healthz()["workers"][0]
        if worker["state"] == "ready" and worker["restarts"] >= 1:
            restarted = worker
            break
        time.sleep(0.25)
    assert restarted is not None, "worker was never restarted"
    assert restarted["pid"] != victim

    with ServeClient(port=port) as client:
        text = client.metrics()
        # The restarted worker serves its keys again.
        result = client.characterize({**REQ, "serial": "H0"})
    assert len(result["records"]) == REQ["subarrays"]
    match = re.search(r"^fleet_restarts_total (\d+)", text, re.MULTILINE)
    assert match and int(match.group(1)) >= 1


# ---------------------------------------------------------------------------
# End-to-end tracing (own fleet: captures everything via --slow-trace-ms 0)
# ---------------------------------------------------------------------------

def test_one_request_is_one_trace_across_the_fleet(tmp_path):
    """The tentpole contract: a single request through the front door
    yields ONE trace id visible in the front door's proxy span, the
    worker's serve.request span, the engine's work-unit span, the
    X-Request-Id response header, and a correlated worker log line."""
    stderr_lines: list[str] = []
    process, port = _spawn_fleet(
        extra_args=["--trace-dir", str(tmp_path), "--slow-trace-ms", "0"],
        stderr_lines=stderr_lines,
    )
    try:
        with ServeClient(port=port) as client:
            result = client.characterize(REQ)
            request_id = client.last_request_id
        assert len(result["records"]) == REQ["subarrays"]
        assert request_id and re.fullmatch(r"[0-9a-f]{32}", request_id)

        # Front door AND the serving worker each dumped the trace (their
        # own pid's slow-*.jsonl) — stitch the span tree back together.
        deadline = time.monotonic() + 30
        spans_by_name: dict[str, list[dict]] = collections.defaultdict(list)
        while time.monotonic() < deadline:
            spans_by_name.clear()
            for path in tmp_path.glob("slow-*.jsonl"):
                for line in path.read_text().splitlines():
                    entry = json.loads(line)
                    if entry["request_id"] != request_id:
                        continue
                    for span in entry["spans"]:
                        spans_by_name[span["name"]].append(span)
            if {"fleet.proxy", "serve.request", "engine.unit"} <= set(
                spans_by_name
            ):
                break
            time.sleep(0.2)
        assert "fleet.proxy" in spans_by_name, "front door capture missing"
        assert "serve.request" in spans_by_name, "worker capture missing"
        assert "engine.unit" in spans_by_name, "engine spans missing"

        # One request, one trace — every layer agrees, and the trace id
        # IS the minted request id.
        trace_ids = {
            span["trace_id"]
            for name in ("fleet.request", "fleet.proxy", "serve.request",
                         "serve.batch", "engine.unit")
            for span in spans_by_name.get(name, ())
        }
        assert trace_ids == {request_id}

        # The worker logged the request as JSON, correlated by id; the
        # front door forwarded that line to its own stderr verbatim.
        def worker_logged():
            for line in stderr_lines:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (
                    record.get("request_id") == request_id
                    and "worker" in record
                ):
                    return record
            return None

        deadline = time.monotonic() + 30
        record = None
        while record is None and time.monotonic() < deadline:
            record = worker_logged()
            if record is None:
                time.sleep(0.2)
        assert record is not None, "no correlated worker log line"
        assert record["trace_id"] == request_id
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=120) == 0


# ---------------------------------------------------------------------------
# Graceful drain (own fleet: the signal ends it)
# ---------------------------------------------------------------------------

def test_fleet_sigterm_drains_in_flight_work_before_exit():
    """A request on a worker's lane when SIGTERM lands still gets its 200
    through the proxy, every worker exits, front door exits 0."""
    process, port = _spawn_fleet()
    try:
        outcome = {}

        def request():
            with ServeClient(port=port) as client:
                outcome["result"] = client.characterize(SLOW_REQ)

        def queued() -> int:
            with ServeClient(port=port) as client:
                workers = client.fleet_stats()["workers"]
            return sum(worker.get("queue_depth") or 0 for worker in workers)

        worker = threading.Thread(target=request)
        worker.start()
        deadline = time.monotonic() + 60
        while queued() == 0:  # the slow request is on a worker's lane
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.005)
        process.send_signal(signal.SIGTERM)
        worker.join(timeout=120)
        assert not worker.is_alive(), "request never completed"
        assert len(outcome["result"]["records"]) == SLOW_REQ["subarrays"]
        assert process.wait(timeout=120) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
