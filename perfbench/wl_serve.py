"""``serve``: ``POST /v1/characterize`` against ``repro serve`` in its own process.

The server is launched through the CLI entry point with default settings
(in-memory cache, 5 ms batch window, in-process engine).  Load is a closed
loop over ``nproc`` keep-alive connections: callers of this API wait for
their records before asking again.  Requests have the protocol's default
shape (4 x 256 x 512, intervals 0.512 s and 16 s):

* nine in ten repeat a seed-chosen hot set of catalog modules at 85 C —
  cache hits once the warm-up (excluded from timing) has filled the
  cache;
* exactly one in ten (every tenth, by construction) asks for a fresh,
  seed-chosen temperature — a cold engine run on the scheduler's
  one-thread submission lane, where warm requests then queue.

It is the only workload through transport, protocol, the scheduler, the
memory cache and the serving-path spans (`repro.obs` is on, because the
``repro serve`` CLI enables it).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
import tracer
import wl_campaign

HOT_SET = 8
COLD_EVERY = 10
#: Requests per second on the reference host; sizes a run
#: (`harness.op_count`): 1,300 requests in a run of 20 s, enough for at
#: least 1,000 warm samples behind a p99.
NOMINAL_REQUESTS_PER_S = 65.0
#: Fresh temperatures of cold requests: 40.00 C to 84.99 C by 0.01 C.
COLD_TEMPERATURES = [round(40.0 + step / 100.0, 2) for step in range(4500)]
#: Cold requests checked against a direct `Campaign` run, drawn from the
#: first `CHECK_COLD_WINDOW` cold requests (every run reaches them).
CHECK_COLD = 3
CHECK_COLD_WINDOW = 30
SETUP_REPEATS = 3
#: Consecutive completions per window of the request rate's median.
RATE_WINDOW = 50
BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


def plan(seed: int, seconds: float) -> dict:
    """The request sequence and hot set of one seed."""
    from repro.chip.catalog import CATALOG

    ddr4 = sorted(serial for serial, spec in CATALOG.items() if spec.interface == "DDR4")
    rng = random.Random(f"serve-{seed}")
    hot = rng.sample(ddr4, HOT_SET)
    temperatures = list(COLD_TEMPERATURES)
    rng.shuffle(temperatures)
    # Cold serials walk seed-ordered passes over the whole catalog:
    # serials differ in cost by up to 2x, and every seed then pays the same.
    cold_serials: list[str] = []
    requests = []
    for index in range(harness.op_count(seconds, NOMINAL_REQUESTS_PER_S)):
        if index % COLD_EVERY == COLD_EVERY - 1:
            if not cold_serials:
                cold_serials = rng.sample(ddr4, len(ddr4))
            body = {
                "serial": cold_serials.pop(),
                "temperature_c": temperatures[index // COLD_EVERY],
            }
            requests.append(("cold", body))
        else:
            requests.append(("warm", {"serial": rng.choice(hot)}))
    cold_indices = [i for i, (kind, _) in enumerate(requests) if kind == "cold"]
    checked_cold = sorted(rng.sample(cold_indices[:CHECK_COLD_WINDOW], CHECK_COLD))
    return {"seed": seed, "hot": hot, "requests": requests, "checked_cold": checked_cold}


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on an ephemeral port.

    `setup_s` is the time from spawn until the first ``/readyz`` 200;
    `http_requests` counts every exchange the benchmark had with it.
    """

    def __init__(self, traced_spans: str | None, log_path) -> None:
        if traced_spans is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [
                sys.executable, str(harness.BENCH_DIR / "serve_entry.py"),
                traced_spans, "serve", "--port", "0",
            ]
        self.http_requests = 0
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log,
                env=harness.child_env(), cwd=str(harness.ROOT),
            )
        try:
            self.port = self._scrape_port(log_path)
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _scrape_port(self, log_path) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = BANNER.search(log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            time.sleep(0.002)
        raise RuntimeError("server never announced its port")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    connection.request("GET", "/readyz")
                    status = connection.getresponse().status
                finally:
                    connection.close()
                self.http_requests += 1
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never became ready")

    def metrics(self) -> dict:
        from repro.obs import parse_prometheus_text

        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        self.http_requests += 1
        return parse_prometheus_text(text)

    def peak_rss_mb(self) -> float:
        return harness.pid_peak_rss_mb(self.process.pid)

    def stop(self) -> int:
        """Graceful drain (SIGTERM); returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain in time") from None

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def _metric(samples: dict, name: str, **labels) -> float:
    return sum(
        value for sample_labels, value in samples.get(name, ())
        if all(sample_labels.get(k) == v for k, v in labels.items())
    )


def _scheduler_counters(before: dict, after: dict) -> dict:
    def delta(name, **labels):
        return _metric(after, name, **labels) - _metric(before, name, **labels)

    batches = delta("serve_batch_size_count")
    requests = delta("serve_requests_total", route="/v1/characterize")
    return {
        "serve.scheduler.batches": batches,
        "serve.scheduler.batch_size_mean": (
            delta("serve_batch_size_sum") / batches if batches else 0.0
        ),
        "serve.scheduler.coalesce_ratio": (
            delta("serve_coalesced_total") / requests if requests else 0.0
        ),
        "serve.scheduler.rejected": delta("serve_rejected_total"),
    }


# ---------------------------------------------------------------------------
# Server-side wrappers (installed by serve_entry.py before the CLI runs)
# ---------------------------------------------------------------------------
def install_server(recorder: tracer.Recorder, patches: tracer.Patches) -> None:
    """Time the scheduler, engine, cache and compute layers in the server.

    Server spans join the client's request span through the trace context
    the server already extracts from ``traceparent``: `repro.obs` is read
    for that context, never used to record.
    """
    from repro import obs
    from repro.core import engine
    from repro.core.cache import OutcomeCache
    from repro.serve.scheduler import RequestScheduler

    submits: dict[str, dict] = {}

    def submit_make(original):
        async def submit(self, request):
            active = obs.current_span()
            record, token = recorder.open(
                "serve.scheduler.submit", "serve",
                parent_id=active.parent_id, trace_id=active.trace_id,
                obs_request=active.span_id,
            )
            submits[active.span_id] = record
            try:
                return await original(self, request)
            except BaseException as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                if active.links:
                    record["attributes"]["coalesced_with"] = active.links[0]["span_id"]
                recorder.close(record, token)

        return submit

    def compute_make(original):
        def compute_summaries(self, units, intervals=()):
            batch = obs.current_span()
            members = [batch.parent_id] + [link["span_id"] for link in batch.links]
            primary = submits.get(batch.parent_id)
            record, token = recorder.open(
                "core.engine.compute_summaries", "core.engine",
                parent_id=primary["span_id"] if primary else None,
                trace_id=primary["trace_id"] if primary else None,
                members=members, units=len(units),
            )
            try:
                return original(self, units, intervals)
            finally:
                recorder.close(record, token)

        return compute_summaries

    def tier(record, result, args, kwargs):
        record["attributes"]["tier"] = result[1]

    patches.wrap(RequestScheduler, "submit", submit_make)
    patches.wrap(engine.CharacterizationEngine, "compute_summaries", compute_make)
    patches.wrap(
        OutcomeCache, "lookup",
        tracer.timed(recorder, "core.cache.lookup", "core.cache", tier),
    )
    patches.wrap(
        engine, "execute_unit",
        tracer.timed(recorder, "core.engine.execute_unit", "core.engine"),
    )
    wl_campaign.install_cell_layers(recorder, patches, engine)


# ---------------------------------------------------------------------------
# Load and checks
# ---------------------------------------------------------------------------
def _load(server: Server, plan_: dict, recorder, root_id) -> dict:
    """Closed loop over ``nproc`` keep-alive connections until every
    planned request has been sent."""
    from repro.serve import ServeClient, ServeError

    requests = plan_["requests"]
    keep = set(plan_["checked_cold"])
    lock = threading.Lock()
    cursor = [0]
    outcomes: dict[int, tuple] = {}
    first_hot: dict[str, object] = {}
    kept: dict[int, object] = {}
    start = time.perf_counter()

    def client_loop() -> None:
        client = ServeClient(port=server.port, timeout=120)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    break
                kind, body = requests[index]
                span = None
                if recorder is not None:
                    span = recorder.open(
                        "serve.client.request", "serve",
                        parent_id=root_id, trace_id=os.urandom(16).hex(),
                        kind=kind, index=index,
                    )
                    client.headers["traceparent"] = (
                        f"00-{span[0]['trace_id']}-{span[0]['span_id']}-01"
                    )
                    client.headers["X-Request-Id"] = span[0]["span_id"]
                begin = time.perf_counter()
                status = "ok"
                try:
                    response = client.characterize(body)
                except ServeError as exc:
                    response, status = None, f"http {exc.status}"
                except OSError as exc:
                    response, status = None, type(exc).__name__
                took = time.perf_counter() - begin
                if span is not None:
                    recorder.close(*span)
                if response is not None and kind == "warm":
                    reference = first_hot.setdefault(body["serial"], response)
                    if response != reference:
                        status = "differs from the first response of its shape"
                if index in keep:
                    kept[index] = response
                outcomes[index] = (kind, took, status, time.perf_counter() - start)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(harness.nproc())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.http_requests += len(outcomes)
    return {
        "outcomes": outcomes,
        "first_hot": first_hot,
        "kept": kept,
        "elapsed": max(done for *_, done in outcomes.values()),
    }


def _reference(body: dict) -> list:
    """Records of a direct in-process `Campaign` run of one request."""
    from repro.core.campaign import Campaign
    from repro.serve.protocol import CharacterizeRequest, record_to_json

    request = CharacterizeRequest.from_json(body)
    records = Campaign(scale=request.scale).characterize_module(
        request.serial, request.config, intervals=request.intervals
    )
    return json.loads(json.dumps([record_to_json(record) for record in records]))


def _latency_metrics(kind: str, summary: dict) -> dict:
    """Median and rule-chosen tail of one request class, by name."""
    metrics = {f"{kind}_p50_ms": [summary["p50_ms"], "ms", summary["n"]]}
    if summary["tail_q"] is not None:
        metrics[f"{kind}_p{summary['tail_q']:g}_ms"] = [summary["tail_ms"], "ms", summary["n"]]
    return metrics


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _pass(plan_: dict, spans: Path | None) -> dict:
    """Spawn, warm up, load, scrape and stop one server; check outputs.
    With ``spans`` the server is the traced one and the merged client and
    server spans are written there."""
    traced = spans is not None
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"serve-{os.getpid()}-{'traced' if traced else 'plain'}"
    spans_path = harness.WORK_DIR / f"{tag}.server-spans.json"
    log_path = harness.WORK_DIR / f"{tag}.log"
    setups = []
    for attempt in range(SETUP_REPEATS):
        server = Server(str(spans_path) if traced else None, log_path)
        setups.append(server.setup_s)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    recorder = tracer.Recorder() if traced else None
    try:
        from repro.serve import ServeClient

        with ServeClient(port=server.port, timeout=120) as client:
            for serial in plan_["hot"]:
                client.characterize({"serial": serial})
                server.http_requests += 1
        before = server.metrics()
        root = recorder.open("bench.serve", "bench") if recorder else None
        load = _load(server, plan_, recorder, root[0]["span_id"] if root else None)
        if root is not None:
            recorder.close(*root)
        after = server.metrics()
        peak_rss = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    exit_code = server.stop()

    tally = harness.Tally()
    outcomes = load["outcomes"]
    tally.attempt(len(outcomes))
    for index, (kind, _, status, _) in outcomes.items():
        if status != "ok":
            tally.fail(index, f"request {index} ({kind}): {status}")
    checks = {"hot_shapes_match_campaign": True, "cold_sample_matches_campaign": True}
    for serial, response in load["first_hot"].items():
        if _canonical(response["records"]) != _canonical(_reference({"serial": serial})):
            checks["hot_shapes_match_campaign"] = False
            for index, (kind, *_rest) in outcomes.items():
                if kind == "warm" and plan_["requests"][index][1]["serial"] == serial:
                    tally.fail(index, f"hot shape {serial} differs from Campaign")
    for index in plan_["checked_cold"]:
        response = load["kept"].get(index)
        body = plan_["requests"][index][1]
        if response is None or _canonical(response["records"]) != _canonical(_reference(body)):
            checks["cold_sample_matches_campaign"] = False
            tally.fail(index, f"cold request {index} differs from Campaign")
    if exit_code != 0:
        checks["server_drained_cleanly"] = False
        tally.fail("drain", f"server exited with {exit_code}")

    latencies = {"warm": [], "cold": []}
    failures = {"warm": 0, "cold": 0}
    for kind, took, status, _ in outcomes.values():
        if status == "ok":
            latencies[kind].append(took)
        else:
            failures[kind] += 1
    warm, cold = latencies["warm"], latencies["cold"]
    warm_summary = harness.latency_summary(warm, failures["warm"])
    cold_summary = harness.latency_summary(cold, failures["cold"])
    completed = len(warm) + len(cold)
    # Median over windows of consecutive completions: a burst of load from
    # another tenant of the host moves one window rather than the run.
    done = sorted(finished for *_, status, finished in outcomes.values() if status == "ok")
    edges = [0.0] + done[RATE_WINDOW - 1 :: RATE_WINDOW]
    rate = statistics.median(
        RATE_WINDOW / (end - begin) for begin, end in zip(edges, edges[1:])
    )
    result = {
        "setup_samples": setups,
        "metrics": {
            "ops_per_s": [rate, "1/s", completed],
            "op_p50_ms": [warm_summary["p50_ms"], "ms", warm_summary["n"]],
            "peak_rss_mb": [peak_rss, "MiB", 1],
        },
        "named": {
            "requests_per_s": [rate, "req/s", completed],
            "requests_per_s.whole_run": [completed / load["elapsed"], "req/s", completed],
            **_latency_metrics("warm", warm_summary),
            **_latency_metrics("cold", cold_summary),
        },
        "checks": checks,
        "digests": {
            "hot.records": harness.digest(
                {serial: response["records"] for serial, response in load["first_hot"].items()}
            ),
            "cold.sample.records": harness.digest(
                [(load["kept"].get(i) or {}).get("records") for i in plan_["checked_cold"]]
            ),
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
    }
    log_path.unlink(missing_ok=True)
    if traced:
        server_side = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        records = recorder.records + server_side["records"]
        window = (root[0]["start_unix"], root[0]["start_unix"] + root[0]["duration_s"])
        layers = _layer_metrics(records, window)
        layers.update(_scheduler_counters(before, after))
        layers.update(wl_campaign.cell_layer_metrics_of(server_side["records"]))
        layers["obs.spans_per_request"] = (
            server_side["obs_spans"] + server_side["obs_dropped"]
        ) / server.http_requests
        result["layers"] = layers
        result["layer_table"] = tracer.layer_table(records, window)
        tracer.write_spans(records, spans)
    return result


def _layer_metrics(records: list[dict], window: tuple[float, float]) -> dict:
    """Per-layer serve metrics from merged client and server spans."""
    lo, hi = window
    clients = {r["span_id"]: r for r in records if r["name"] == "serve.client.request"}
    submits = [r for r in records if r["name"] == "serve.scheduler.submit"]
    computes = [r for r in records if r["name"] == "core.engine.compute_summaries"]
    lookups = [
        r for r in records
        if r["name"] == "core.cache.lookup" and lo <= r["start_unix"] <= hi
    ]
    # Each request's batch: the compute span listing its repro.obs request
    # span, or, for a coalesced request, its primary's batch.
    batch_start: dict[str, float] = {}
    for compute in computes:
        for member in compute["attributes"]["members"]:
            batch_start[member] = compute["start_unix"]
    transport, waits = [], []
    for submit in submits:
        client = clients.get(submit["parent_id"])
        if client is None:
            continue
        transport.append((client["duration_s"] - submit["duration_s"]) * 1e3)
        attributes = submit["attributes"]
        key = attributes.get("coalesced_with", attributes["obs_request"])
        started = batch_start.get(key)
        wait = submit["duration_s"] if started is None else started - submit["start_unix"]
        waits.append(max(0.0, wait) * 1e3)
    lane = tracer.union_length(
        [
            (max(lo, r["start_unix"]), min(hi, r["start_unix"] + r["duration_s"]))
            for r in computes
            if r["start_unix"] < hi and r["start_unix"] + r["duration_s"] > lo
        ]
    )
    hits = sum(1 for r in lookups if r["attributes"]["tier"] != "miss")
    # Batches that ran engine units: the cold ones (a warm batch only
    # looks its units up).
    computing = {r["parent_id"] for r in records if r["name"] == "core.engine.execute_unit"}
    cold_batches = [
        r for r in computes if r["span_id"] in computing and lo <= r["start_unix"] <= hi
    ]
    return {
        "serve.transport.self_ms_p50": harness.percentile(transport, 50.0),
        "serve.scheduler.wait_ms_p50": harness.percentile(waits, 50.0),
        "serve.scheduler.wait_ms_p99": harness.percentile(waits, 99.0),
        "serve.scheduler.lane_busy_share": lane / (hi - lo),
        "core.engine.busy_ms_p50": harness.percentile(
            [r["duration_s"] * 1e3 for r in cold_batches], 50.0
        ),
        "core.cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "core.cache.lookup_us_p50": harness.percentile(
            [r["duration_s"] * 1e6 for r in lookups], 50.0
        ) if lookups else 0.0,
    }


def run(seed: int, seconds: float, spans: Path | None) -> dict:
    """The untraced pass and, when ``spans`` names a file for them, the
    traced pass."""
    sys.path.insert(0, str(harness.SRC))
    from repro import obs

    obs.disable()  # the load generator's own process records nothing
    plan_ = plan(seed, seconds)
    plain = _pass(plan_, None)
    if spans is None:
        return {"plain": plain}
    return {"plain": plain, "traced": _pass(plan_, spans)}
