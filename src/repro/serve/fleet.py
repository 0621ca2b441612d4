"""Fleet front door: consistent-hash sharding over N serve workers.

``repro serve --fleet N`` turns the single-process service into a
horizontally sharded tier: one asyncio *front door* process that owns N
``repro serve`` worker subprocesses and proxies every request to exactly
one of them.

The routing invariant is the whole point.  Requests are sharded by their
``batch_key()`` — (kind, geometry, temperature) — through a
consistent-hash ring, so duplicates always land on the *same* worker,
where they still coalesce after sharding, and the requests of one
condition share that worker's memory tier.  Random or round-robin
spraying would slice each hot key across N workers and divide the
coalesce ratio by N; hashing the batch key preserves it.

The front door owns the worker lifecycle:

* **spawn** — each worker is a real ``repro serve`` subprocess on an
  ephemeral port, all sharing one ``--cache-dir`` (the crash-safe disk
  `OutcomeCache` is the fleet's shared warm tier: any worker's computed
  outcome is every other worker's disk hit);
* **health** — a worker is routable only after its ``/readyz`` answers
  200;
* **restart** — a crashed worker is respawned with exponential backoff
  (``fleet_restarts_total``); while it is down, the ring walks to the
  next live worker so its keys keep being served;
* **drain** — SIGTERM/SIGINT closes the listener, lets in-flight proxied
  requests finish, SIGTERMs every worker (each performs its own graceful
  drain), and exits 0.

Proxying applies a per-worker in-flight cap (an asyncio semaphore): a
slow worker backs its own shard up instead of starving the fleet, and the
workers' own 429/``Retry-After`` admission control still applies behind
the cap.

Front-door routes: the data-plane routes (``/v1/characterize``,
``/v1/risk``, ``/v1/catalog``) proxy to workers; ``/healthz`` reports
worker states (pid, port, restarts); ``/readyz`` is 200 while at least
one worker is routable; ``/metrics`` exposes the front door's own fleet
metrics (``fleet_workers{state}``, ``fleet_proxied_total{worker}``,
``fleet_restarts_total``); ``/fleet/stats`` aggregates every worker's
scheduler stats into one JSON body (the bench reads its post-sharding
coalesce ratio there).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import re
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro import obs
from repro.fleet.aggregate import FleetAggregator
from repro.obs import logs as obs_logs
from repro.obs.export import federate_prometheus, prometheus_text
from repro.serve.protocol import (
    REQUEST_ID_HEADER,
    REQUEST_ID_RESPONSE_HEADER,
    CharacterizeRequest,
    FleetRiskRequest,
    ProtocolError,
    RiskRequest,
)
from repro.serve.server import capture_slow_trace
from repro.serve.transport import (
    AsyncHttpServer,
    BadRequest,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
    read_http_response,
)

_WORKERS = obs.gauge(
    "fleet_workers",
    "Fleet workers by lifecycle state.",
    labelnames=("state",),
)
_PROXIED = obs.counter(
    "fleet_proxied_total",
    "Requests proxied to each worker.",
    labelnames=("worker",),
)
_RESTARTS = obs.counter(
    "fleet_restarts_total",
    "Workers respawned after crashing.",
)
_PROXY_SECONDS = obs.histogram(
    "fleet_proxy_seconds",
    "Wall-clock seconds per proxied request (queueing + worker time).",
    buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0),
)

#: Worker lifecycle states (the label values of ``fleet_workers``).
WORKER_STATES = ("starting", "ready", "restarting", "stopped")

_LOG = obs_logs.get_logger("serve.fleet")


@dataclass
class FleetConfig:
    """Everything the front door needs, mirroring ``repro serve`` flags.

    ``fleet`` is the worker count; the remaining serve knobs are passed
    through to every worker.  ``cache_dir`` defaults to a front-door
    owned temporary directory so the workers always share a warm tier.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    fleet: int = 2
    workers: int = 0
    cache_dir: str | None = None
    max_queue: int = 64
    max_inflight: int = 32
    hash_replicas: int = 64
    restart_backoff_s: float = 0.5
    restart_backoff_max_s: float = 8.0
    startup_timeout_s: float = 60.0
    trace_dir: str | None = None
    slow_trace_ms: float = 1000.0


def _ring_hash(text: str) -> int:
    """Stable 64-bit ring position (process-independent, unlike hash())."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over worker indices.

    Each worker owns ``replicas`` pseudo-random points on a 64-bit ring;
    a key routes to the first point at or after its own hash.  `lookup`
    walks clockwise past points whose worker is not in ``alive``, so a
    down worker's keys spill to their ring successors — and return home
    unchanged when it comes back, keeping remapping minimal (the reason
    this beats ``hash(key) % N``, which reshuffles every key on any
    membership change).
    """

    def __init__(self, workers: int, replicas: int = 64) -> None:
        if workers < 1:
            raise ValueError("a hash ring needs at least one worker")
        self.workers = workers
        self.replicas = replicas
        self._points = sorted(
            (_ring_hash(f"worker-{index}:replica-{replica}"), index)
            for index in range(workers)
            for replica in range(replicas)
        )

    def lookup(self, key: str, alive: set[int] | None = None) -> int:
        """The worker owning ``key``, skipping workers not in ``alive``."""
        if alive is not None and not alive:
            raise LookupError("no live workers")
        position = bisect.bisect_right(self._points, (_ring_hash(key), -1))
        total = len(self._points)
        for step in range(total):
            worker = self._points[(position + step) % total][1]
            if alive is None or worker in alive:
                return worker
        raise LookupError("no live workers")  # pragma: no cover - guarded above


@dataclass
class WorkerHandle:
    """One serve worker: subprocess, routing state, and in-flight cap."""

    index: int
    state: str = "starting"
    port: int | None = None
    process: asyncio.subprocess.Process | None = None
    restarts: int = 0
    inflight: int = 0
    semaphore: asyncio.Semaphore = field(default_factory=lambda: asyncio.Semaphore(1))

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class FleetFrontDoor(AsyncHttpServer):
    """The sharding proxy: worker lifecycle + batch-key-affine routing."""

    def __init__(self, config: FleetConfig) -> None:
        if config.fleet < 1:
            raise ValueError("--fleet needs at least one worker")
        super().__init__(config.host, config.port)
        self.config = config
        self.ring = HashRing(config.fleet, config.hash_replicas)
        self.handles = [
            WorkerHandle(
                index=index,
                semaphore=asyncio.Semaphore(config.max_inflight),
            )
            for index in range(config.fleet)
        ]
        self._draining = False
        self._started = time.monotonic()
        self._active_requests = 0
        self._monitors: list[asyncio.Task] = []
        self._stderr_tasks: set[asyncio.Task] = set()
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if config.cache_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-fleet-cache-")
            config.cache_dir = self._tempdir.name
        self._round_robin = 0
        # Fleet-risk campaigns sharded across workers: fleet job id ->
        # {"modules_total", "shards": [{"worker", "job_id", "body"}]}.
        # The shard *bodies* are kept so a restarted worker (which lost
        # its in-memory job table) can be re-POSTed the same sub-request
        # on the next poll; it resumes from its checkpoint because every
        # worker shares the front door's --cache-dir.
        self._fleet_risk_jobs: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _worker_command(self) -> list[str]:
        config = self.config
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            str(config.workers),
            "--cache-dir",
            str(config.cache_dir),
            "--max-queue",
            str(config.max_queue),
        ]
        if config.trace_dir:
            command += [
                "--trace-dir",
                str(config.trace_dir),
                "--slow-trace-ms",
                str(config.slow_trace_ms),
            ]
        return command

    def _worker_env(self, index: int) -> dict[str, str]:
        """Child env with the parent's `repro` package importable and the
        worker's fleet index (stamped into its JSON log lines)."""
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            path
            for path in (package_root, env.get("PYTHONPATH"))
            if path
        )
        env[obs_logs.WORKER_ENV] = str(index)
        return env

    def _set_state(self, handle: WorkerHandle, state: str) -> None:
        handle.state = state
        counts = {name: 0 for name in WORKER_STATES}
        for worker in self.handles:
            counts[worker.state] += 1
        for name, count in counts.items():
            _WORKERS.labels(state=name).set(count)

    async def _spawn(self, handle: WorkerHandle) -> None:
        """Start one worker subprocess and wait until it is routable."""
        self._set_state(handle, "starting")
        handle.port = None
        handle.process = await asyncio.create_subprocess_exec(
            *self._worker_command(),
            env=self._worker_env(handle.index),
            stderr=asyncio.subprocess.PIPE,
        )
        deadline = time.monotonic() + self.config.startup_timeout_s
        while handle.port is None:
            if handle.process.returncode is not None:
                raise RuntimeError(
                    f"worker {handle.index} exited during startup "
                    f"(code {handle.process.returncode})"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"worker {handle.index} never announced its port"
                )
            line = await asyncio.wait_for(
                handle.process.stderr.readline(), timeout=self.config.startup_timeout_s
            )
            if not line:
                continue
            text = line.decode(errors="replace").rstrip()
            self._emit_worker_line(handle, text)
            match = re.search(r"listening on http://[^:]+:(\d+)", text)
            if match:
                handle.port = int(match.group(1))
        task = asyncio.get_running_loop().create_task(self._forward_stderr(handle))
        self._stderr_tasks.add(task)
        task.add_done_callback(self._stderr_tasks.discard)
        await self._wait_ready(handle, deadline)
        self._set_state(handle, "ready")

    def _emit_worker_line(self, handle: WorkerHandle, text: str) -> None:
        """Re-emit one line of worker stderr on the front door's stderr.

        Workers log JSON lines already stamped with their ``worker`` index;
        those are forwarded verbatim (one write per line, so interleaved
        worker streams stay record-atomic).  Anything else — tracebacks,
        third-party prints — is wrapped in a structured record carrying
        the worker index rather than passed through raw.
        """
        if not text:
            return
        if text.startswith("{") and text.endswith("}"):
            try:
                json.loads(text)
            except json.JSONDecodeError:
                pass
            else:
                print(text, file=sys.stderr, flush=True)
                return
        _LOG.info(
            "repro serve fleet: [worker %d] %s",
            handle.index,
            text,
            extra={"worker": handle.index, "forwarded": True},
        )

    async def _forward_stderr(self, handle: WorkerHandle) -> None:
        """Keep draining a worker's stderr so it never blocks on the pipe."""
        process = handle.process
        assert process is not None and process.stderr is not None
        while True:
            line = await process.stderr.readline()
            if not line:
                return
            self._emit_worker_line(handle, line.decode(errors="replace").rstrip())

    async def _wait_ready(self, handle: WorkerHandle, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                status, _, _ = await self._raw_request(handle, "GET", "/readyz")
            except (OSError, BadRequest, asyncio.IncompleteReadError):
                await asyncio.sleep(0.05)
                continue
            if status == 200:
                return
            await asyncio.sleep(0.05)
        raise RuntimeError(f"worker {handle.index} never became ready")

    async def _monitor(self, handle: WorkerHandle) -> None:
        """Restart-with-backoff loop: runs for the front door's lifetime."""
        backoff = self.config.restart_backoff_s
        while not self._draining:
            assert handle.process is not None
            await handle.process.wait()
            if self._draining:
                break
            code = handle.process.returncode
            handle.restarts += 1
            _RESTARTS.inc()
            self._set_state(handle, "restarting")
            _LOG.warning(
                "repro serve fleet: worker %d exited (code %s); restarting "
                "in %gs (restart #%d)",
                handle.index,
                code,
                backoff,
                handle.restarts,
                extra={"worker": handle.index, "exit_code": code},
            )
            await asyncio.sleep(backoff)
            try:
                await self._spawn(handle)
            except (RuntimeError, OSError) as exc:
                _LOG.error(
                    "repro serve fleet: worker %d respawn failed: %s",
                    handle.index,
                    exc,
                    extra={"worker": handle.index},
                )
                backoff = min(backoff * 2, self.config.restart_backoff_max_s)
                continue
            backoff = self.config.restart_backoff_s
        self._set_state(handle, "stopped")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the whole fleet, then open the front-door listener."""
        try:
            await asyncio.gather(*(self._spawn(handle) for handle in self.handles))
        except BaseException:
            # One worker failing to start must not leak the others.
            for handle in self.handles:
                if handle.process is not None and handle.process.returncode is None:
                    handle.process.kill()
                    await handle.process.wait()
            raise
        self._monitors = [
            asyncio.get_running_loop().create_task(self._monitor(handle))
            for handle in self.handles
        ]
        await super().start()

    async def shutdown(self, drain_timeout_s: float = 60.0) -> None:
        """Drain: stop accepting, finish in-flight, then drain workers."""
        self._draining = True
        await self.close_listener()
        # In-flight proxied requests still need their worker round trips;
        # workers stay up until every active request has its response.
        # Idle keep-alive connections (blocked waiting for a next request
        # that will never come) are dropped right after.
        deadline = time.monotonic() + drain_timeout_s
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        await self.finish_connections(timeout=1.0)
        for handle in self.handles:
            if handle.process is not None and handle.process.returncode is None:
                handle.process.send_signal(signal.SIGTERM)
        for handle in self.handles:
            if handle.process is None:
                continue
            try:
                await asyncio.wait_for(handle.process.wait(), timeout=60.0)
            except asyncio.TimeoutError:
                handle.process.kill()
                await handle.process.wait()
            self._set_state(handle, "stopped")
        for monitor in self._monitors:
            monitor.cancel()
        if self._tempdir is not None:
            self._tempdir.cleanup()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _alive(self) -> set[int]:
        return {handle.index for handle in self.handles if handle.state == "ready"}

    def _keep_alive(self, request: HttpRequest) -> bool:
        return super()._keep_alive(request) and not self._draining

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        self._active_requests += 1
        route = request.path.split("?", 1)[0]
        start = time.perf_counter()
        try:
            # The fleet front door is where a trace is born: join the
            # client's traceparent if it sent one, mint a fresh trace
            # otherwise, and echo an X-Request-Id on every response so
            # callers can quote the id that correlates spans and logs
            # across the front door and whichever worker served them.
            context = obs.extract(request.headers)
            with obs.use_context(context):
                with obs.span("fleet.request", route=route) as span:
                    trace_id = getattr(span, "trace_id", "") or (
                        context.trace_id if context else obs.new_trace_id()
                    )
                    request_id = request.headers.get(REQUEST_ID_HEADER) or trace_id
                    request.headers[REQUEST_ID_HEADER] = request_id
                    response = await self._route(request)
                    span.set_attribute("status", response.status)
                    span.set_attribute("request_id", request_id)
            response.headers.setdefault(REQUEST_ID_RESPONSE_HEADER, request_id)
            capture_slow_trace(
                self.config.trace_dir,
                self.config.slow_trace_ms,
                trace_id,
                request_id,
                route,
                time.perf_counter() - start,
            )
            return response
        finally:
            self._active_requests -= 1

    async def _route(self, request: HttpRequest) -> HttpResponse:
        route = request.path.split("?", 1)[0]
        try:
            if request.method == "GET" and route == "/healthz":
                return self._healthz()
            if request.method == "GET" and route == "/readyz":
                return self._readyz()
            if request.method == "GET" and route == "/metrics":
                return await self._metrics()
            if request.method == "GET" and route == "/fleet/stats":
                return await self._fleet_stats()
            if request.method == "POST" and route in (
                "/v1/characterize",
                "/v1/risk",
            ):
                return await self._proxy_sharded(request, route)
            if request.method == "POST" and route == "/v1/fleet-risk":
                return await self._fleet_risk_submit(request)
            if request.method == "GET" and route.startswith("/v1/fleet-risk/"):
                return await self._fleet_risk_poll(route)
            if request.method == "GET" and route == "/v1/catalog":
                return await self._proxy_any(request, route)
            return error_response(404, f"no such route: {route}")
        except ProtocolError as exc:
            return error_response(400, str(exc))
        except LookupError:
            return error_response(503, "no live workers")
        except (KeyboardInterrupt, SystemExit, asyncio.CancelledError):
            raise
        except Exception as exc:
            return error_response(500, f"{type(exc).__name__}: {exc}")

    def _batch_key(self, route: str, body: bytes) -> str:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None
        if route == "/v1/characterize":
            parsed = CharacterizeRequest.from_json(payload)
        else:
            parsed = RiskRequest.from_json(payload)
        return repr(parsed.batch_key())

    async def _proxy_sharded(self, request: HttpRequest, route: str) -> HttpResponse:
        """Data-plane proxy: batch-key affinity via the consistent ring.

        The body is validated *here* (the front door answers 400 itself
        rather than burning a worker round trip), and its batch key picks
        the shard.  If the owning worker dies mid-flight the ring walks
        to its successor — at most one attempt per live worker.
        """
        if self._draining:
            return error_response(503, "service is draining")
        key = self._batch_key(route, request.body)
        attempted: set[int] = set()
        while True:
            alive = self._alive() - attempted
            if not alive:
                return error_response(503, "no live workers")
            handle = self.handles[self.ring.lookup(key, alive)]
            attempted.add(handle.index)
            try:
                return await self._proxy(
                    handle,
                    request.method,
                    route,
                    request.body,
                    request_id=request.headers.get(REQUEST_ID_HEADER),
                )
            except (OSError, BadRequest, asyncio.IncompleteReadError):
                continue  # worker died mid-flight; walk the ring.

    async def _proxy_any(self, request: HttpRequest, route: str) -> HttpResponse:
        """Control-plane proxy (catalog): any live worker, round robin."""
        alive = sorted(self._alive())
        if not alive:
            return error_response(503, "no live workers")
        self._round_robin += 1
        handle = self.handles[alive[self._round_robin % len(alive)]]
        return await self._proxy(
            handle,
            request.method,
            route,
            request.body,
            request_id=request.headers.get(REQUEST_ID_HEADER),
        )

    async def _proxy(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes,
        request_id: str | None = None,
    ) -> HttpResponse:
        """One proxied round trip under the worker's in-flight cap.

        The ``fleet.proxy`` span is the propagation point: its context is
        injected as the outgoing ``traceparent``, so the worker's
        ``serve.request`` span becomes its child and the whole hop chain
        shares one trace_id.
        """
        start = time.perf_counter()
        with obs.span("fleet.proxy", worker=handle.index, route=path) as span:
            headers = obs.inject({})
            if request_id:
                headers[REQUEST_ID_RESPONSE_HEADER] = request_id
            async with handle.semaphore:
                handle.inflight += 1
                try:
                    status, resp_headers, payload = await self._raw_request(
                        handle, method, path, body, headers=headers
                    )
                finally:
                    handle.inflight -= 1
            span.set_attribute("status", status)
        _PROXIED.labels(worker=str(handle.index)).inc()
        _PROXY_SECONDS.observe(time.perf_counter() - start)
        passthrough = {}
        if "retry-after" in resp_headers:
            passthrough["Retry-After"] = resp_headers["retry-after"]
        return HttpResponse(
            status,
            payload,
            content_type=resp_headers.get("content-type", "application/json"),
            headers=passthrough,
        )

    async def _raw_request(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One ``Connection: close`` HTTP exchange with a worker."""
        if handle.port is None:
            raise OSError(f"worker {handle.index} has no port")
        reader, writer = await asyncio.open_connection("127.0.0.1", handle.port)
        try:
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: 127.0.0.1:{handle.port}",
                "Connection: close",
                f"Content-Length: {len(body)}",
            ]
            if body:
                head.append("Content-Type: application/json")
            if headers:
                head.extend(f"{name}: {value}" for name, value in headers.items())
            writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
            await writer.drain()
            return await read_http_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Front-door routes
    # ------------------------------------------------------------------
    def _worker_info(self) -> list[dict]:
        return [
            {
                "index": handle.index,
                "pid": handle.pid,
                "port": handle.port,
                "state": handle.state,
                "restarts": handle.restarts,
                "inflight": handle.inflight,
            }
            for handle in self.handles
        ]

    def _healthz(self) -> HttpResponse:
        return json_response(
            200,
            {
                "status": "ok",
                "role": "fleet-front-door",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "fleet": self.config.fleet,
                "cache_dir": str(self.config.cache_dir),
                "workers": self._worker_info(),
            },
        )

    def _readyz(self) -> HttpResponse:
        if self._draining:
            return error_response(503, "draining")
        if not self._alive():
            return error_response(503, "no live workers")
        return json_response(200, {"status": "ready"})

    async def _metrics(self) -> HttpResponse:
        """Federated exposition: front-door metrics plus every ready
        worker's scrape re-labeled ``worker="<index>"``, with fleet-wide
        ``worker="all"`` aggregates for counters and histograms."""
        expositions: list[tuple[str, str]] = []
        for handle in self.handles:
            if handle.state != "ready":
                continue
            try:
                status, _, payload = await self._raw_request(
                    handle, "GET", "/metrics"
                )
            except (OSError, BadRequest, asyncio.IncompleteReadError):
                continue
            if status == 200:
                expositions.append(
                    (str(handle.index), payload.decode("utf-8", errors="replace"))
                )
        merged = federate_prometheus(prometheus_text(obs.REGISTRY), expositions)
        return HttpResponse(
            200,
            merged.encode(),
            content_type="text/plain; version=0.0.4",
        )

    async def _fleet_stats(self) -> HttpResponse:
        """Aggregate every live worker's scheduler stats into one body.

        The coalescing and job counters live in the workers (that is where
        the scheduling happens); this route is how a load generator or an
        operator reads the *fleet-wide* hit ratios after sharding.
        """
        totals: dict[str, int] = {}
        per_worker: list[dict] = []
        for handle in self.handles:
            if handle.state != "ready":
                per_worker.append({"index": handle.index, "state": handle.state})
                continue
            try:
                status, _, payload = await self._raw_request(handle, "GET", "/healthz")
            except OSError:
                per_worker.append({"index": handle.index, "state": "unreachable"})
                continue
            if status != 200:
                per_worker.append({"index": handle.index, "state": f"http {status}"})
                continue
            health = json.loads(payload)
            stats = health.get("stats", {})
            for name, value in stats.items():
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + value
            per_worker.append(
                {
                    "index": handle.index,
                    "state": handle.state,
                    "restarts": handle.restarts,
                    "stats": stats,
                    "queue_depth": health.get("queue_depth"),
                }
            )
        requests = totals.get("requests", 0)
        coalesced = totals.get("coalesced", 0)
        return json_response(
            200,
            {
                "fleet": self.config.fleet,
                "totals": totals,
                "coalesce_ratio": round(coalesced / requests, 3) if requests else None,
                "workers": per_worker,
            },
        )

    # ------------------------------------------------------------------
    # Fleet-risk campaigns (sharded across workers)
    # ------------------------------------------------------------------
    async def _fleet_risk_submit(self, request: HttpRequest) -> HttpResponse:
        """Split one fleet campaign into contiguous instance ranges, one
        per live worker, and submit each as a worker-local job.

        Instance identity depends only on ``(seed, index)``, so an
        offset split partitions the campaign *exactly* — the merged
        shard aggregates equal the single-process campaign bit for bit.
        Re-POSTing the same body attaches to the existing sharded job
        (and resumes any shard a restarted worker forgot).
        """
        if self._draining:
            return error_response(503, "service is draining")
        try:
            payload = json.loads(request.body or b"{}")
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None
        parsed = FleetRiskRequest.from_json(payload)
        fleet_job_id = parsed.cache_key()[:16]
        if fleet_job_id in self._fleet_risk_jobs:
            return await self._fleet_risk_status(fleet_job_id, status_code=200)
        alive = sorted(self._alive())
        if not alive:
            return error_response(503, "no live workers")
        base, extra = divmod(parsed.modules, len(alive))
        shards: list[dict] = []
        offset = parsed.offset
        for position, worker_index in enumerate(alive):
            count = base + (1 if position < extra else 0)
            if count == 0:
                continue
            shards.append(
                {
                    "worker": worker_index,
                    "body": parsed.shard(offset, count).to_json(),
                    "job_id": None,
                }
            )
            offset += count
        for shard in shards:
            handle = self.handles[shard["worker"]]
            status, _, raw = await self._raw_request(
                handle,
                "POST",
                "/v1/fleet-risk",
                json.dumps(shard["body"]).encode(),
            )
            if status not in (200, 202):
                # Worker jobs already started are left running: a retry
                # of this POST re-submits identical shard bodies, which
                # attach idempotently on the workers that accepted them.
                message = raw.decode(errors="replace")
                return error_response(
                    status if status in (429, 503) else 502,
                    f"worker {shard['worker']} refused shard: {message}",
                )
            shard["job_id"] = json.loads(raw)["job_id"]
        self._fleet_risk_jobs[fleet_job_id] = {
            "modules_total": parsed.modules,
            "intervals": list(parsed.intervals),
            "shards": shards,
        }
        return await self._fleet_risk_status(fleet_job_id, status_code=202)

    async def _fleet_risk_poll(self, route: str) -> HttpResponse:
        fleet_job_id = route.rsplit("/", 1)[-1]
        if fleet_job_id not in self._fleet_risk_jobs:
            return error_response(404, f"no such fleet job: {fleet_job_id}")
        return await self._fleet_risk_status(fleet_job_id, status_code=200)

    async def _poll_shard(self, shard: dict) -> dict | None:
        """One shard's snapshot+state; re-submits to a worker that lost
        the job (restart) so its campaign resumes from checkpoint."""
        handle = self.handles[shard["worker"]]
        if handle.state != "ready":
            return None
        path = f"/v1/fleet-risk/{shard['job_id']}?state=1"
        try:
            status, _, raw = await self._raw_request(handle, "GET", path)
            if status == 404:
                status, _, _ = await self._raw_request(
                    handle,
                    "POST",
                    "/v1/fleet-risk",
                    json.dumps(shard["body"]).encode(),
                )
                if status not in (200, 202):
                    return None
                status, _, raw = await self._raw_request(handle, "GET", path)
            if status != 200:
                return None
            return json.loads(raw)
        except (OSError, BadRequest, asyncio.IncompleteReadError):
            return None

    async def _fleet_risk_status(
        self, fleet_job_id: str, status_code: int
    ) -> HttpResponse:
        """Merge shard aggregator states into one fleet-level snapshot.

        The merge is exact (integer histogram addition), so the fleet
        percentiles equal what one worker running the whole range would
        report.  Shards on unreachable workers degrade the status to
        ``running`` — never to wrong numbers.
        """
        record = self._fleet_risk_jobs[fleet_job_id]
        merged: FleetAggregator | None = None
        shard_views: list[dict] = []
        statuses: list[str] = []
        modules_done = 0
        for shard in record["shards"]:
            snapshot = await self._poll_shard(shard)
            if snapshot is None:
                statuses.append("unreachable")
                shard_views.append(
                    {
                        "worker": shard["worker"],
                        "job_id": shard["job_id"],
                        "status": "unreachable",
                    }
                )
                continue
            statuses.append(snapshot.get("status", "running"))
            modules_done += int(snapshot.get("modules_done", 0))
            state = snapshot.get("state")
            if state is not None:
                aggregator = FleetAggregator.from_state(state["aggregator"])
                if merged is None:
                    merged = aggregator
                else:
                    merged.merge(aggregator)
            shard_views.append(
                {
                    "worker": shard["worker"],
                    "job_id": shard["job_id"],
                    "status": snapshot.get("status"),
                    "modules_done": snapshot.get("modules_done"),
                    "error": snapshot.get("error"),
                }
            )
        if any(status == "failed" for status in statuses):
            overall = "failed"
        elif statuses and all(status == "done" for status in statuses):
            overall = "done"
        else:
            overall = "running"
        body: dict = (
            merged.snapshot()
            if merged is not None
            else {"modules": 0, "intervals": []}
        )
        body["job_id"] = fleet_job_id
        body["status"] = overall
        body["modules_total"] = record["modules_total"]
        body["modules_done"] = modules_done
        body["shards"] = shard_views
        return json_response(status_code, body)


async def _run_async(config: FleetConfig) -> None:
    obs_logs.configure()
    front_door = FleetFrontDoor(config)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _request_stop(signame: str) -> None:
        _LOG.info("repro serve fleet: received %s, draining fleet", signame)
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, _request_stop, sig.name)
    await front_door.start()
    _LOG.info(
        "repro serve fleet: front door listening on http://%s:%d "
        "(fleet=%d, cache_dir=%s, max_inflight=%d/worker)",
        config.host,
        front_door.port,
        config.fleet,
        config.cache_dir,
        config.max_inflight,
        extra={"host": config.host, "port": front_door.port},
    )
    await stop.wait()
    await front_door.shutdown()
    _LOG.info("repro serve: drained cleanly")


def run(config: FleetConfig) -> int:
    """Blocking entry point used by ``repro serve --fleet N``.

    Returns 0 after a graceful (signal-initiated) drain of the fleet.
    """
    asyncio.run(_run_async(config))
    return 0
