"""The characterization service: coalescing, batching, backpressure, drain.

Five contracts anchor this file (they are the serving subsystem's
acceptance criteria):

* N concurrent identical requests produce exactly ONE engine submission;
* a request whose every unit is in the memory tier is answered without
  the submission lane, with the lane's bytes;
* a full admission queue answers 429 with a ``Retry-After`` hint;
* SIGTERM drains in-flight work before the process exits;
* a served record is byte-identical to a direct `Campaign` run.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    Campaign,
    CampaignScale,
    OutcomeCache,
    plan_units,
)
from repro.serve import (
    CharacterizeRequest,
    DrainingError,
    ProtocolError,
    QueueFullError,
    RequestScheduler,
    RiskRequest,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
)
from repro.serve.protocol import record_to_json

REQ = {"serial": "S0", "subarrays": 2, "rows": 64, "columns": 128,
       "intervals": [0.512, 16.0]}


def run_async(coro):
    return asyncio.run(coro)


@pytest.fixture
def server():
    thread = ServerThread(ServeConfig(port=0, batch_window_ms=25.0))
    yield thread
    thread.shutdown()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

def test_characterize_request_defaults_and_roundtrip():
    request = CharacterizeRequest.from_json({"serial": "S0"})
    assert request.subarrays == 4 and request.rows == 256
    assert request.intervals == (0.512, 16.0)
    assert request.temperature_c == 85.0
    assert CharacterizeRequest.from_json(request.to_json()) == request


@pytest.mark.parametrize("payload,fragment", [
    ([], "JSON object"),
    ({}, "serial"),
    ({"serial": "NOPE"}, "unknown module"),
    ({"serial": "S0", "rows": "many"}, "rows must be an integer"),
    ({"serial": "S0", "rows": 1 << 20}, "rows must be in"),
    ({"serial": "S0", "subarrays": 0}, "subarrays must be in"),
    ({"serial": "S0", "intervals": []}, "non-empty"),
    ({"serial": "S0", "intervals": [-1.0]}, "intervals must be in"),
    ({"serial": "S0", "intervals": [float("nan")]}, "intervals must be in"),
    ({"serial": "S0", "temperature_c": 9000}, "temperature_c must be in"),
    ({"serial": "S0", "bogus": 1}, "unknown field"),
    ({"serial": "S0", "columns": 7}, "columns must be even"),  # geometry rule
])
def test_characterize_request_rejects_bad_input(payload, fragment):
    with pytest.raises(ProtocolError, match=re.escape(fragment)):
        CharacterizeRequest.from_json(payload)


def test_risk_request_validation():
    request = RiskRequest.from_json({"serial": "M8", "window_ms": 32.0})
    assert request.window_ms == 32.0
    with pytest.raises(ProtocolError, match="window_ms"):
        RiskRequest.from_json({"serial": "M8", "window_ms": 0.0})


def test_cache_key_separates_distinct_requests():
    base = CharacterizeRequest.from_json({"serial": "S0"})
    same = CharacterizeRequest.from_json({"serial": "S0"})
    other = CharacterizeRequest.from_json({"serial": "S1"})
    hotter = CharacterizeRequest.from_json(
        {"serial": "S0", "temperature_c": 45.0}
    )
    assert base.cache_key() == same.cache_key()
    assert len({base.cache_key(), other.cache_key(), hotter.cache_key()}) == 3
    # Same geometry + temperature batch together even across modules...
    assert base.batch_key() == other.batch_key()
    # ...but a different condition is a different engine submission.
    assert base.batch_key() != hotter.batch_key()


# ---------------------------------------------------------------------------
# Scheduler: coalescing, batching, admission control
# ---------------------------------------------------------------------------

def test_concurrent_identical_requests_make_one_submission():
    """The tentpole contract: N duplicates -> 1 engine job."""

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.02)
        request = CharacterizeRequest.from_json(REQ)
        results = await asyncio.gather(
            *(scheduler.submit(request) for _ in range(8))
        )
        await scheduler.drain()
        return scheduler.stats, results

    stats, results = run_async(scenario())
    assert stats["jobs"] == 1
    assert stats["coalesced"] == 7
    assert stats["batched_requests"] == 1  # one primary in the batch
    assert all(r == results[0] for r in results)
    assert results[0]["records"][0]["status"] == "ok"


def test_distinct_requests_fold_into_one_batch():
    """Same geometry/temperature, different modules -> one submission."""

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.05)
        requests = [
            CharacterizeRequest.from_json({**REQ, "serial": serial})
            for serial in ("S0", "S1", "M8")
        ]
        results = await asyncio.gather(
            *(scheduler.submit(r) for r in requests)
        )
        await scheduler.drain()
        return scheduler.stats, results

    stats, results = run_async(scenario())
    assert stats["jobs"] == 1
    assert stats["batched_requests"] == 3
    assert [r["serial"] for r in results] == ["S0", "S1", "M8"]


def test_full_queue_raises_queue_full_with_retry_after():
    async def scenario():
        # Window long enough that the first request is still bucketed
        # when the second arrives.
        scheduler = RequestScheduler(max_queue=1, batch_window_s=5.0)
        first = asyncio.create_task(
            scheduler.submit(CharacterizeRequest.from_json(REQ))
        )
        await asyncio.sleep(0)  # let the primary occupy the queue slot
        with pytest.raises(QueueFullError) as excinfo:
            await scheduler.submit(
                CharacterizeRequest.from_json({**REQ, "serial": "S1"})
            )
        assert excinfo.value.retry_after >= 1.0
        scheduler.begin_drain()
        results = await asyncio.gather(first)
        await scheduler.drain()
        return scheduler.stats, results

    stats, _ = run_async(scenario())
    assert stats["rejected"] == 1
    assert stats["jobs"] == 1


def test_draining_scheduler_refuses_new_primaries():
    async def scenario():
        scheduler = RequestScheduler()
        scheduler.begin_drain()
        with pytest.raises(DrainingError):
            await scheduler.submit(CharacterizeRequest.from_json(REQ))
        await scheduler.drain()

    run_async(scenario())


def test_engine_errors_propagate_to_every_waiter():
    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.02)

        def explode(batch_key, requests, contexts=None):
            raise RuntimeError("engine fell over")

        scheduler._execute_batch = explode
        request = CharacterizeRequest.from_json(REQ)
        results = await asyncio.gather(
            scheduler.submit(request),
            scheduler.submit(request),
            return_exceptions=True,
        )
        await scheduler.drain()
        return results

    results = run_async(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_risk_requests_served():
    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        result = await scheduler.submit(
            RiskRequest.from_json(
                {"serial": "M8", "rows": 64, "columns": 128, "subarrays": 2}
            )
        )
        await scheduler.drain()
        return result

    result = run_async(scenario())
    assert result["serial"] == "M8"
    assert result["at_risk"] is True
    assert result["vulnerable_cells"] > 0


@pytest.mark.parametrize("geometry", [
    {"subarrays": 3, "rows": 128, "columns": 256},
    {"subarrays": 1, "rows": 100, "columns": 64},
], ids=("3x128x256", "1x100x64"))
def test_every_legal_risk_geometry_is_served(server, geometry):
    """Bank sizes that are not a power of two are legal requests; every
    module, whatever its row mapping, answers them with the in-process
    result."""
    from repro.chip import CATALOG
    from repro.core import refresh_window_risk
    from repro.serve.protocol import risk_to_json

    with ServeClient(port=server.port, timeout=60) as client:
        for serial in sorted(CATALOG):
            request = RiskRequest.from_json({"serial": serial, **geometry})
            expected = risk_to_json(refresh_window_risk(
                serial, request.scale,
                window=request.window_ms / 1000.0,
                temperature_c=request.temperature_c,
            ))
            assert client.risk(request) == expected


def test_cli_risk_prints_the_served_default(server, capsys):
    from repro.analysis import seconds
    from repro.cli import main

    with ServeClient(port=server.port, timeout=60) as client:
        served = client.risk({"serial": "S0"})
    assert main(["risk", "S0"]) == 0
    out = capsys.readouterr().out
    assert f"at risk: {'YES' if served['at_risk'] else 'no'}" in out
    assert (
        f"vulnerable cells: {served['vulnerable_cells']} in "
        f"{served['vulnerable_rows']} rows"
    ) in out
    assert f"fastest bitflip: {seconds(served['time_to_first'])}" in out
    if served["closest_victim_rows"] is not None:
        assert (
            f"victim distance from aggressor: {served['closest_victim_rows']}-"
            f"{served['farthest_victim_rows']} rows"
        ) in out


# ---------------------------------------------------------------------------
# Scheduler: failure accounting (queue depth must survive a dead batch)
# ---------------------------------------------------------------------------

def test_failed_batch_releases_queue_slots_and_readmits():
    """Fault injection on the flush path: a batch job that raises must
    still return every admitted slot, or ``retry_after`` inflates forever
    and the queue eventually wedges shut."""

    async def scenario():
        scheduler = RequestScheduler(max_queue=2, batch_window_s=0.01)
        calls = {"n": 0}

        real_execute = scheduler._execute_batch

        def explode_once(batch_key, requests, contexts=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("engine fell over")
            return real_execute(batch_key, requests, contexts)

        scheduler._execute_batch = explode_once
        request = CharacterizeRequest.from_json(REQ)
        failed = await asyncio.gather(
            scheduler.submit(request),
            scheduler.submit(CharacterizeRequest.from_json(
                {**REQ, "serial": "S1"}
            )),
            return_exceptions=True,
        )
        depth_after_failure = scheduler.queue_depth
        # The queue recovered: a fresh request is admitted and served.
        recovered = await scheduler.submit(request)
        stats = dict(scheduler.stats)
        await scheduler.drain()
        return failed, depth_after_failure, recovered, stats, scheduler

    failed, depth, recovered, stats, scheduler = run_async(scenario())
    assert all(isinstance(r, RuntimeError) for r in failed)
    assert depth == 0
    assert scheduler.queue_depth == 0
    assert recovered["records"][0]["status"] == "ok"
    assert stats["failed_jobs"] == 1
    assert stats["rejected"] == 0  # nothing bounced off a phantom queue


def test_short_result_list_fails_the_batch_not_the_queue():
    """A batch that silently returns too few results is a bug in the
    execution layer; every waiter gets an error and depth returns to 0."""

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.02)
        scheduler._execute_batch = lambda batch_key, requests, contexts=None: []
        results = await asyncio.gather(
            scheduler.submit(CharacterizeRequest.from_json(REQ)),
            scheduler.submit(CharacterizeRequest.from_json(
                {**REQ, "serial": "S1"}
            )),
            return_exceptions=True,
        )
        depth = scheduler.queue_depth
        stats = dict(scheduler.stats)
        await scheduler.drain()
        return results, depth, stats

    results, depth, stats = run_async(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)
    assert all("result(s)" in str(r) for r in results)
    assert depth == 0
    assert stats["failed_jobs"] == 1


def test_finish_is_idempotent_on_double_settlement():
    """Double-finishing one primary must not decrement depth twice (it
    would drift negative and over-admit past ``max_queue``)."""

    async def scenario():
        scheduler = RequestScheduler()
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        scheduler._inflight["k"] = future
        scheduler._queued = 1
        scheduler._finish("k", future, result={"ok": True})
        scheduler._finish("k", future, error=RuntimeError("again"))
        depth = scheduler.queue_depth
        await scheduler.drain()
        return depth, await future

    depth, result = run_async(scenario())
    assert depth == 0
    assert result == {"ok": True}


# ---------------------------------------------------------------------------
# Scheduler: requests answered from the memory tier
# ---------------------------------------------------------------------------

def _refuse_lane(batch_key, requests, contexts=None):
    raise AssertionError("an answerable request reached the submission lane")


def _direct_records(request: CharacterizeRequest) -> list[dict]:
    """The response rows of a direct `Campaign` run of ``request``."""
    records = Campaign(scale=request.scale).characterize_module(
        request.serial, request.config, intervals=request.intervals
    )
    return [record_to_json(record) for record in records]


def test_warm_request_is_answered_without_the_lane():
    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        request = CharacterizeRequest.from_json(REQ)
        lane = await scheduler.submit(request)
        jobs = scheduler.stats["jobs"]
        scheduler._execute_batch = _refuse_lane
        answered = await scheduler.submit(request)
        stats = dict(scheduler.stats)
        await scheduler.drain()
        return lane, answered, jobs, stats

    lane, answered, jobs, stats = run_async(scenario())
    assert json.dumps(answered) == json.dumps(lane)
    assert stats["jobs"] == jobs == 1
    assert stats["answered"] == 1
    assert stats["requests"] == 2


def test_longer_interval_grows_the_entry_then_is_answered():
    short = CharacterizeRequest.from_json(REQ)
    long = CharacterizeRequest.from_json({**REQ, "intervals": [0.512, 64.0]})

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        await scheduler.submit(short)
        grown = await scheduler.submit(long)  # 64 s > the cached horizon
        lane_jobs = scheduler.stats["jobs"]
        scheduler._execute_batch = _refuse_lane
        repeat = await scheduler.submit(long)
        shorter = await scheduler.submit(short)  # the grown entry answers it
        stats = dict(scheduler.stats)
        await scheduler.drain()
        return grown, repeat, shorter, lane_jobs, stats

    grown, repeat, shorter, lane_jobs, stats = run_async(scenario())
    assert lane_jobs == 2
    assert grown["records"] == _direct_records(long)
    assert repeat == grown
    assert shorter["intervals"] == [0.512, 16.0]
    assert stats["jobs"] == 2 and stats["answered"] == 2


def test_disk_only_entry_goes_through_the_lane_once(tmp_path):
    request = CharacterizeRequest.from_json(REQ)

    async def scenario():
        first = RequestScheduler(cache=OutcomeCache(tmp_path), batch_window_s=0.01)
        written = await first.submit(request)
        await first.drain()
        # A fresh process over the same directory: memory is empty.
        scheduler = RequestScheduler(cache=OutcomeCache(tmp_path), batch_window_s=0.01)
        from_disk = await scheduler.submit(request)
        after_disk = dict(scheduler.stats)
        from_memory = await scheduler.submit(request)
        stats, cache = dict(scheduler.stats), scheduler.cache.stats
        await scheduler.drain()
        return written, from_disk, after_disk, from_memory, stats, cache

    written, from_disk, after_disk, from_memory, stats, cache = run_async(scenario())
    assert written == from_disk == from_memory
    assert after_disk["jobs"] == 1 and after_disk["answered"] == 0
    assert stats["jobs"] == 1 and stats["answered"] == 1
    units = len(plan_units(("S0",), request.config, request.scale))
    assert cache["disk_hits"] == units
    assert cache["hits"] == cache["lookups"] == 2 * units


def test_answered_request_is_admitted_while_the_queue_is_full():
    async def scenario():
        cache = OutcomeCache()
        warm = RequestScheduler(cache=cache, batch_window_s=0.01)
        expected = await warm.submit(CharacterizeRequest.from_json(REQ))
        await warm.drain()
        scheduler = RequestScheduler(cache=cache, max_queue=1, batch_window_s=5.0)
        cold = asyncio.create_task(
            scheduler.submit(CharacterizeRequest.from_json({**REQ, "serial": "S1"}))
        )
        await asyncio.sleep(0)  # the cold primary takes the only slot
        answered = await scheduler.submit(CharacterizeRequest.from_json(REQ))
        with pytest.raises(QueueFullError):
            await scheduler.submit(CharacterizeRequest.from_json({**REQ, "serial": "M8"}))
        scheduler.begin_drain()
        await cold
        stats = dict(scheduler.stats)
        await scheduler.drain()
        return expected, answered, stats

    expected, answered, stats = run_async(scenario())
    assert answered == expected
    assert stats["answered"] == 1
    assert stats["rejected"] == 1
    assert stats["jobs"] == 1  # the cold request's batch only


def test_drain_refuses_an_answerable_request():
    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        request = CharacterizeRequest.from_json(REQ)
        await scheduler.submit(request)
        scheduler.begin_drain()
        with pytest.raises(DrainingError):
            await scheduler.submit(request)
        stats = dict(scheduler.stats)
        await scheduler.drain()
        return stats

    assert run_async(scenario())["answered"] == 0


def test_unit_evicted_after_its_probe_falls_back_to_the_lane():
    """If a probed unit is gone by its lookup, the request takes the lane
    and still gets the lane's answer."""
    request = CharacterizeRequest.from_json(REQ)

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        scheduler.cache.holds = lambda key, min_horizon=0.0: True  # stale probe
        result = await scheduler.submit(request)
        stats, cache = dict(scheduler.stats), scheduler.cache.stats
        await scheduler.drain()
        return result, stats, cache

    result, stats, cache = run_async(scenario())
    assert result["records"] == _direct_records(request)
    assert stats["jobs"] == 1 and stats["answered"] == 0
    assert cache["hits"] + cache["misses"] == cache["lookups"]


def test_cache_counters_stay_exact_across_answered_and_cold_requests():
    warm, cold = 7, 3
    units = len(plan_units(("S0",), WORST_CASE, CharacterizeRequest.from_json(REQ).scale))

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        colds = [
            CharacterizeRequest.from_json({**REQ, "temperature_c": 40.0 + 5.0 * index})
            for index in range(cold)
        ]
        for request in colds:
            await scheduler.submit(request)
        for index in range(warm):
            await scheduler.submit(colds[index % cold])
        stats, cache = dict(scheduler.stats), scheduler.cache.stats
        await scheduler.drain()
        return stats, cache

    stats, cache = run_async(scenario())
    assert stats["jobs"] == cold and stats["answered"] == warm
    assert cache["lookups"] == cache["hits"] + cache["misses"]
    assert cache["misses"] == cold * units
    assert cache["hits"] == warm * units


# ---------------------------------------------------------------------------
# Client: Retry-After parsing (a malformed header must still back off)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("header,expected", [
    (None, None),          # absent: caller decides
    ("5", 5.0),            # honest hint passes through
    ("2.5", 2.5),
    ("0", 1.0),            # zero would spin; floored
    ("0.2", 1.0),          # sub-floor clamps up
    ("-3", 1.0),           # negative clamps up
    ("abc", 1.0),          # garbage means "back off", not "retry now"
    ("", 1.0),
    ("inf", 1.0),          # non-finite is garbage too
    ("nan", 1.0),
])
def test_parse_retry_after_never_spins(header, expected):
    from repro.serve import parse_retry_after

    assert parse_retry_after(header) == expected


# ---------------------------------------------------------------------------
# Byte-identity with the direct campaign path
# ---------------------------------------------------------------------------

def test_served_records_byte_identical_to_direct_campaign():
    request = CharacterizeRequest.from_json(REQ)
    direct = Campaign(scale=request.scale).characterize_module(
        request.serial, request.config, intervals=request.intervals
    )
    expected = [record_to_json(record) for record in direct]

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        result = await scheduler.submit(request)
        await scheduler.drain()
        return result

    served = run_async(scenario())["records"]
    assert json.dumps(served, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_batched_mixed_intervals_stay_byte_identical():
    """Two requests with different interval lists share one submission yet
    each gets exactly its own intervals back."""
    short = CharacterizeRequest.from_json({**REQ, "intervals": [0.512]})
    long = CharacterizeRequest.from_json(
        {**REQ, "serial": "S1", "intervals": [16.0, 64.0]}
    )
    expected = {
        request.serial: [
            record_to_json(record)
            for record in Campaign(scale=request.scale).characterize_module(
                request.serial, request.config, intervals=request.intervals
            )
        ]
        for request in (short, long)
    }

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.05)
        results = await asyncio.gather(
            scheduler.submit(short), scheduler.submit(long)
        )
        await scheduler.drain()
        return scheduler.stats, results

    stats, results = run_async(scenario())
    assert stats["jobs"] == 1
    for result in results:
        assert result["records"] == expected[result["serial"]]
        queried = {key for record in result["records"]
                   for key in record["cd_flips"]}
        assert queried == {repr(t) for t in
                           (short if result["serial"] == "S0"
                            else long).intervals}


# ---------------------------------------------------------------------------
# HTTP server (in-process)
# ---------------------------------------------------------------------------

def test_http_round_trip_and_metrics(server):
    client = ServeClient(port=server.port)
    assert client.readyz() == {"status": "ready"}
    health = client.healthz()
    assert health["status"] == "ok" and "stats" in health

    catalog = client.catalog()
    serials = {m["serial"] for m in catalog["modules"]}
    assert {"S0", "M8", "H0"} <= serials

    result = client.characterize(REQ)
    assert len(result["records"]) == REQ["subarrays"]

    text = client.metrics()
    assert "serve_requests_total" in text
    assert "serve_batch_size" in text
    client.close()


def test_http_concurrent_duplicates_coalesce(server):
    barrier = threading.Barrier(6)
    results = [None] * 6

    def hit(i):
        with ServeClient(port=server.port) as client:
            barrier.wait()
            results[i] = client.characterize(REQ)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    stats = server.scheduler.stats
    assert stats["jobs"] == 1
    assert stats["coalesced"] == 5


def test_http_bad_input_is_400(server):
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeError) as excinfo:
            client.characterize({"serial": "NOPE"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.characterize({"serial": "S0", "bogus": True})
        assert excinfo.value.status == 400


def test_http_unknown_route_and_method(server):
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/characterize")
        assert excinfo.value.status == 405


def test_http_full_queue_is_429_with_retry_after():
    thread = ServerThread(ServeConfig(port=0, max_queue=0))
    try:
        with ServeClient(port=thread.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.characterize(REQ)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 1.0
    finally:
        thread.shutdown()


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------

def test_sigterm_drains_in_flight_work_before_exit():
    """End-to-end: a request in flight when SIGTERM lands still gets its
    200 response, and the process exits 0 after a clean drain."""
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--batch-window-ms", "300"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = process.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port, "server never announced its port"

        outcome = {}

        def request():
            with ServeClient(port=port) as client:
                outcome["result"] = client.characterize(REQ)

        worker = threading.Thread(target=request)
        worker.start()
        # The 300 ms batch window guarantees the request is still queued
        # when the signal arrives; drain must complete it regardless.
        time.sleep(0.1)
        process.send_signal(signal.SIGTERM)
        worker.join(timeout=60)
        assert not worker.is_alive(), "request never completed"
        assert len(outcome["result"]["records"]) == REQ["subarrays"]
        assert process.wait(timeout=30) == 0
        remainder = process.stderr.read()
        assert "drained cleanly" in remainder
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


def test_server_thread_drain_completes_queued_work():
    thread = ServerThread(ServeConfig(port=0, batch_window_ms=200.0))
    outcome = {}

    def request():
        with ServeClient(port=thread.port) as client:
            outcome["result"] = client.characterize(REQ)

    worker = threading.Thread(target=request)
    worker.start()
    time.sleep(0.05)  # inside the batch window
    thread.shutdown()
    worker.join(timeout=30)
    assert outcome["result"]["records"]
    assert thread.scheduler.stats["jobs"] == 1


# ---------------------------------------------------------------------------
# Scheduler reuses the engine's outcome cache across submissions
# ---------------------------------------------------------------------------

def test_scheduler_cache_spans_batches(tmp_path):
    from repro.core import OutcomeCache

    async def scenario():
        cache = OutcomeCache(tmp_path)
        scheduler = RequestScheduler(cache=cache, batch_window_s=0.01)
        first = await scheduler.submit(CharacterizeRequest.from_json(REQ))
        # A fresh scheduler on the same directory: disk hits, same bytes.
        await scheduler.drain()
        second_scheduler = RequestScheduler(
            cache=OutcomeCache(tmp_path), batch_window_s=0.01
        )
        second = await second_scheduler.submit(
            CharacterizeRequest.from_json(REQ)
        )
        stats = dict(second_scheduler.cache.stats)
        await second_scheduler.drain()
        return first, second, stats

    first, second, stats = run_async(scenario())
    assert first == second
    assert stats["hits"] == stats["lookups"] > 0


def test_quick_scale_request_matches_quick_scale_campaign():
    """The service's geometry mapping hits the same CampaignScale."""
    request = CharacterizeRequest.from_json(
        {"serial": "S0", "subarrays": 4, "rows": 64, "columns": 128}
    )
    assert request.scale == CampaignScale(QUICK_SCALE.geometry)
    assert request.config == WORST_CASE.at_temperature(85.0)
