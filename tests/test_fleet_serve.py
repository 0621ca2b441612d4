"""``/v1/fleet-risk``: async jobs over HTTP, single server and sharded fleet.

The serving contract under test: submission is idempotent (the job id is
the content address of the spec, so re-POSTing attaches instead of
duplicating work), polling streams percentile snapshots while the
campaign runs, and the front door shards one campaign across its workers
and merges their exact aggregator states on every poll.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.fleet import FleetAggregator, FleetJobManager, FleetSpec
from repro.fleet.jobs import FleetBusyError
from repro.serve import (
    FleetRiskRequest,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
)

#: Small sampled fleet so jobs finish in well under a second.
REQ = {"modules": 24, "rows": 32, "columns": 64, "intervals": [1.0, 16.0]}


@pytest.fixture
def server(tmp_path):
    thread = ServerThread(
        ServeConfig(
            port=0,
            cache_dir=str(tmp_path / "cache"),
            fleet_checkpoint_every=8,
        )
    )
    yield thread
    thread.shutdown()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def test_fleet_risk_request_defaults_and_roundtrip():
    request = FleetRiskRequest.from_json({"modules": 1000})
    assert request.seed == 0 and request.offset == 0
    assert request.scenario == "worst-case"
    assert FleetRiskRequest.from_json(request.to_json()) == request
    assert request.spec == FleetSpec(modules=1000, intervals=request.intervals)


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({}, "modules"),
        ({"modules": 0}, "modules must be in"),
        ({"modules": 10**9}, "modules must be in"),
        ({"modules": 10, "scenario": "rowclone"}, "scenario"),
        ({"modules": 10, "serials": ["NOPE"]}, "unknown module"),
        ({"modules": 10, "serials": ["S0", "S0"]}, "repeat"),
        ({"modules": 10, "sigma_kappa_die": 99.0}, "sigma_kappa_die"),
        ({"modules": 10, "intervals": [4.0, 1.0]}, "intervals"),
        ({"modules": 10, "rows": 4}, "rows"),
        ({"modules": 10, "bogus": 1}, "unknown field"),
    ],
)
def test_fleet_risk_request_validation(payload, fragment):
    with pytest.raises(ProtocolError, match=re.escape(fragment)):
        FleetRiskRequest.from_json(payload)


def test_shard_splits_only_the_range():
    request = FleetRiskRequest.from_json({"modules": 100, "seed": 9})
    shard = request.shard(offset=40, modules=25)
    assert (shard.offset, shard.modules) == (40, 25)
    assert shard.seed == request.seed
    assert shard.cache_key() != request.cache_key()


# ---------------------------------------------------------------------------
# Single-server async jobs
# ---------------------------------------------------------------------------


def test_submit_poll_and_attach(server):
    with ServeClient(port=server.port) as client:
        first = client.fleet_risk(REQ)
        assert first["status"] in ("running", "done")
        job_id = first["job_id"]
        final = client.fleet_risk_wait(job_id, poll_s=0.05, timeout=60.0)
        assert final["status"] == "done"
        assert final["modules_done"] == REQ["modules"]
        worst = final["intervals"][-1]
        assert set(worst) >= {
            "interval_s",
            "p50_flip_rate",
            "p95_flip_rate",
            "p99_flip_rate",
            "vulnerable_fraction",
        }
        again = client.fleet_risk(REQ)
        assert again["job_id"] == job_id
        assert again["status"] == "done"


def test_poll_streams_exact_state_for_merging(server):
    with ServeClient(port=server.port) as client:
        job_id = client.fleet_risk(REQ)["job_id"]
        client.fleet_risk_wait(job_id, poll_s=0.05, timeout=60.0)
        payload = client.fleet_risk_status(job_id, include_state=True)
    state = payload["state"]["aggregator"]
    rebuilt = FleetAggregator.from_state(state)
    assert rebuilt.modules == REQ["modules"]
    assert rebuilt.snapshot()["intervals"] == payload["intervals"]


def test_unknown_job_is_404(server):
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeError) as excinfo:
            client.fleet_risk_status("deadbeefdeadbeef")
        assert excinfo.value.status == 404


def test_job_checkpoints_land_under_the_cache_dir(server, tmp_path):
    with ServeClient(port=server.port) as client:
        job_id = client.fleet_risk(REQ)["job_id"]
        client.fleet_risk_wait(job_id, poll_s=0.05, timeout=60.0)
    checkpoint_dir = tmp_path / "cache" / "fleet-jobs" / job_id
    assert list(checkpoint_dir.glob("checkpoint-*.json"))


def test_job_manager_caps_concurrent_campaigns(tmp_path):
    manager = FleetJobManager(
        checkpoint_root=tmp_path, cache=None, workers=0, max_running=1
    )
    slow = FleetSpec(modules=500_000, rows=32, columns=64)
    other = FleetSpec(modules=500_000, seed=1, rows=32, columns=64)
    try:
        job, started = manager.submit(slow)
        assert started
        with pytest.raises(FleetBusyError):
            manager.submit(other)
        attached, restarted = manager.submit(slow)
        assert attached is job and not restarted
    finally:
        manager.stop_all()
    assert job.campaign.stop_event.is_set()


# ---------------------------------------------------------------------------
# Sharded fleet front door
# ---------------------------------------------------------------------------


def _spawn_fleet(cache_dir: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--fleet",
            "2",
            "--port",
            "0",
            "--cache-dir",
            cache_dir,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    port = None
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        match = re.search(r"front door listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        process.kill()
        process.wait()
        raise RuntimeError("fleet never announced its front-door port")
    threading.Thread(
        target=lambda: [None for _ in process.stderr], daemon=True
    ).start()
    return process, port


def test_front_door_shards_a_campaign_across_workers(tmp_path):
    process, port = _spawn_fleet(str(tmp_path / "cache"))
    try:
        with ServeClient(port=port) as client:
            request = {**REQ, "modules": 40, "seed": 2}
            submitted = client.fleet_risk(request)
            assert len(submitted["shards"]) == 2
            assert all(s["job_id"] for s in submitted["shards"])
            job_id = submitted["job_id"]
            final = client.fleet_risk_wait(job_id, poll_s=0.1, timeout=120.0)
            assert final["status"] == "done"
            assert final["modules_done"] == 40 and final["modules"] == 40
            assert final["intervals"][-1]["vulnerable_modules"] > 0
            again = client.fleet_risk(request)
            assert again["job_id"] == job_id
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=120) == 0, "fleet did not drain cleanly"
