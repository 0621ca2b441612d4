"""Async HTTP front end for the characterization service.

One process of the serving tier: routes, scheduler wiring, and lifecycle
live here; the HTTP/1.1 transport itself (parsing, framing, keep-alive,
connection tracking) is shared with the fleet front door through
`repro.serve.transport`.

Routes:

====================  =====================================================
``POST /v1/characterize``  run (or coalesce onto) a characterization
``POST /v1/risk``          refresh-window risk for one module
``POST /v1/fleet-risk``    submit an async fleet-scale risk campaign
``GET /v1/fleet-risk/<id>``  poll a campaign's percentile snapshot
``GET /v1/catalog``        the module catalog the service can characterize
``GET /healthz``           liveness (always 200 while the process runs)
``GET /readyz``            readiness (503 once draining)
``GET /metrics``           Prometheus text exposition of the live registry
====================  =====================================================

Error contract: malformed requests get 400 with a JSON ``error`` body; a
full admission queue gets 429 with a ``Retry-After`` header; a draining
server gets 503.  SIGTERM/SIGINT trigger a graceful drain — the listener
closes, queued work finishes, metrics/trace files flush — before exit.

For horizontal scale-out (N of these processes behind one consistent-hash
front door) see `repro.serve.fleet` and ``repro serve --fleet N``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.chip.catalog import CATALOG
from repro.fleet.jobs import FleetBusyError, FleetJobManager
from repro.obs import logs as obs_logs
from repro.obs.export import prometheus_text
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    REQUEST_ID_HEADER,
    REQUEST_ID_RESPONSE_HEADER,
    CharacterizeRequest,
    FleetRiskRequest,
    ProtocolError,
    RiskRequest,
)
from repro.serve.scheduler import (
    DrainingError,
    QueueFullError,
    RequestScheduler,
)
from repro.serve.transport import (
    AsyncHttpServer,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
)

_REQUESTS = obs.counter(
    "serve_requests_total",
    "HTTP requests served, by route and status code.",
    labelnames=("route", "status"),
)
_LATENCY = obs.histogram(
    "serve_request_seconds",
    "Wall-clock seconds from request receipt to response write.",
    labelnames=("route",),
    buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0),
)

_LOG = obs_logs.get_logger("serve")
_ACCESS_LOG = obs_logs.get_logger("serve.access")


@dataclass
class ServeConfig:
    """Everything `ReproServer` needs, mirroring ``repro serve`` flags."""

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 0
    cache_dir: str | None = None
    max_queue: int = 64
    trace_dir: str | None = None
    slow_trace_ms: float = 1000.0
    fleet_checkpoint_every: int = 500


def capture_slow_trace(
    trace_dir: str | None,
    slow_ms: float,
    trace_id: str,
    request_id: str,
    route: str,
    duration_s: float,
) -> Path | None:
    """Consume a finished request's span tree; persist it when slow.

    With capture active (``trace_dir`` set), *every* request's spans are
    taken out of the bounded buffer — a long-running server's buffer is
    not consumed by routine traffic — and only requests at or above the
    ``slow_ms`` threshold are appended (one JSON object per line) to
    ``<trace_dir>/slow-<pid>.jsonl``.  Returns the file written, if any.
    """
    if trace_dir is None or not trace_id or not obs.is_enabled():
        return None
    spans = obs.take_trace(trace_id)
    if not spans or duration_s * 1000.0 < slow_ms:
        return None
    path = Path(trace_dir) / f"slow-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "trace_id": trace_id,
        "request_id": request_id,
        "route": route,
        "duration_s": duration_s,
        "spans": spans,
    }
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


class ReproServer(AsyncHttpServer):
    """The service: one scheduler behind an asyncio socket server."""

    def __init__(self, config: ServeConfig) -> None:
        from repro.core.cache import OutcomeCache

        super().__init__(config.host, config.port)
        self.config = config
        self.scheduler = RequestScheduler(
            workers=config.workers,
            cache=OutcomeCache(directory=config.cache_dir),
            max_queue=config.max_queue,
        )
        # Fleet campaigns get their own cache handle (job threads must not
        # share the scheduler's memory tier) over the same disk directory,
        # and checkpoint under <cache_dir>/fleet-jobs — a restarted server
        # on the same directories resumes killed campaigns.
        self.fleet_jobs = FleetJobManager(
            checkpoint_root=(
                Path(config.cache_dir) / "fleet-jobs" if config.cache_dir else None
            ),
            cache=OutcomeCache(directory=config.cache_dir),
            workers=config.workers,
            checkpoint_every=config.fleet_checkpoint_every,
        )
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        self.config.port = self.port

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish queued work.

        Running fleet campaigns are stopped cooperatively — each flushes
        a checkpoint first, so a re-submitted job resumes where the
        drain cut it off.
        """
        await self.close_listener()
        await asyncio.to_thread(self.fleet_jobs.stop_all)
        await self.scheduler.drain()
        # Drained work still needs its responses flushed; give handlers a
        # moment, then drop idle keep-alive connections.
        await self.finish_connections(timeout=1.0)

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain and return."""
        await self.start()
        await stop.wait()
        await self.shutdown()

    def _keep_alive(self, request: HttpRequest) -> bool:
        return super()._keep_alive(request) and not self.scheduler.draining

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        route = request.path.split("?", 1)[0]
        start = time.perf_counter()
        # Join the caller's trace (fresh one on a missing/malformed header)
        # and answer with an X-Request-Id — the client's if it sent one,
        # else the trace id itself, so the response header, the span tree,
        # and the access-log line all correlate on the same identifiers.
        context = obs.extract(request.headers)
        with obs.use_context(context):
            with obs.span("serve.request", route=route) as span:
                trace_id = getattr(span, "trace_id", "") or (
                    context.trace_id if context else obs.new_trace_id()
                )
                request_id = request.headers.get(REQUEST_ID_HEADER) or trace_id
                response = await self._route(request, route)
                span.set_attribute("status", response.status)
                span.set_attribute("request_id", request_id)
        duration = time.perf_counter() - start
        _LATENCY.labels(route=route).observe(duration)
        _REQUESTS.labels(route=route, status=str(response.status)).inc()
        response.headers.setdefault(REQUEST_ID_RESPONSE_HEADER, request_id)
        _ACCESS_LOG.info(
            "%s %s -> %d",
            request.method,
            route,
            response.status,
            extra={
                "route": route,
                "status": response.status,
                "duration_ms": round(duration * 1000.0, 3),
                "request_id": request_id,
                "trace_id": trace_id,
            },
        )
        capture_slow_trace(
            self.config.trace_dir,
            self.config.slow_trace_ms,
            trace_id,
            request_id,
            route,
            duration,
        )
        return response

    async def _route(self, request: HttpRequest, route: str) -> HttpResponse:
        handlers = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/readyz"): self._readyz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/v1/catalog"): self._catalog,
            ("POST", "/v1/characterize"): self._characterize,
            ("POST", "/v1/risk"): self._risk,
            ("POST", "/v1/fleet-risk"): self._fleet_risk_submit,
        }
        handler = handlers.get((request.method, route))
        if handler is None and route.startswith("/v1/fleet-risk/"):
            if request.method != "GET":
                return error_response(
                    405, f"method {request.method} not allowed on {route}"
                )
            handler = self._fleet_risk_poll
        if handler is None:
            if any(path == route for _, path in handlers):
                return error_response(
                    405, f"method {request.method} not allowed on {route}"
                )
            return error_response(404, f"no such route: {route}")
        try:
            return await handler(request)
        except QueueFullError as exc:
            return error_response(
                429, str(exc), **{"Retry-After": f"{exc.retry_after:g}"}
            )
        except FleetBusyError as exc:
            return error_response(429, str(exc), **{"Retry-After": "5"})
        except DrainingError as exc:
            return error_response(503, str(exc))
        except ProtocolError as exc:
            return error_response(400, str(exc))
        except (KeyboardInterrupt, SystemExit, asyncio.CancelledError):
            raise
        except Exception as exc:
            return error_response(500, f"{type(exc).__name__}: {exc}")

    def _parse_body(self, request: HttpRequest) -> object:
        try:
            return json.loads(request.body or b"{}")
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None

    async def _characterize(self, request: HttpRequest) -> HttpResponse:
        parsed = CharacterizeRequest.from_json(self._parse_body(request))
        result = await self.scheduler.submit(parsed)
        return json_response(200, result)

    async def _risk(self, request: HttpRequest) -> HttpResponse:
        parsed = RiskRequest.from_json(self._parse_body(request))
        result = await self.scheduler.submit(parsed)
        return json_response(200, result)

    async def _fleet_risk_submit(self, request: HttpRequest) -> HttpResponse:
        """Submit (or attach to / resume) an async fleet campaign.

        Idempotent on the request body: the job id is the content digest
        of the spec, so re-POSTing the same body after a crash resumes
        the campaign from its on-disk checkpoint.  202 on a fresh start,
        200 when attaching to a running or finished job.
        """
        if self.scheduler.draining:
            return error_response(503, "draining")
        parsed = FleetRiskRequest.from_json(self._parse_body(request))
        job, started = await asyncio.to_thread(self.fleet_jobs.submit, parsed.spec)
        return json_response(202 if started else 200, job.snapshot())

    async def _fleet_risk_poll(self, request: HttpRequest) -> HttpResponse:
        """Poll one campaign's live percentile snapshot.

        ``?state=1`` includes the exact aggregator state — the fleet
        front door merges shard states through this.
        """
        route, _, query = request.path.partition("?")
        job_id = route.rsplit("/", 1)[-1]
        job = self.fleet_jobs.get(job_id)
        if job is None:
            return error_response(404, f"no such fleet job: {job_id}")
        include_state = "state=1" in query.split("&")
        return json_response(200, job.snapshot(include_state=include_state))

    async def _catalog(self, request: HttpRequest) -> HttpResponse:
        modules = [
            {
                "serial": spec.serial,
                "manufacturer": spec.manufacturer,
                "density": spec.density,
                "die_revision": spec.die_revision,
                "organization": spec.organization,
                "interface": spec.interface,
                "chips": spec.chips,
            }
            for spec in CATALOG.values()
        ]
        return json_response(
            200, {"protocol_version": PROTOCOL_VERSION, "modules": modules}
        )

    async def _healthz(self, request: HttpRequest) -> HttpResponse:
        return json_response(
            200,
            {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "stats": dict(self.scheduler.stats),
                "queue_depth": self.scheduler.queue_depth,
            },
        )

    async def _readyz(self, request: HttpRequest) -> HttpResponse:
        if self.scheduler.draining:
            return error_response(503, "draining")
        return json_response(200, {"status": "ready"})

    async def _metrics(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(
            200,
            prometheus_text(obs.REGISTRY).encode(),
            content_type="text/plain; version=0.0.4",
        )


async def _run_async(config: ServeConfig) -> None:
    obs_logs.configure()
    server = ReproServer(config)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _request_stop(signame: str) -> None:
        _LOG.info(
            "repro serve: received %s, draining (%d request(s) in flight)",
            signame,
            server.scheduler.queue_depth,
        )
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, _request_stop, sig.name)
    await server.start()
    _LOG.info(
        "repro serve: listening on http://%s:%d (lanes=%d, workers=%d, "
        "max_queue=%d)",
        config.host,
        server.port,
        server.scheduler.lanes,
        config.workers,
        config.max_queue,
        extra={"host": config.host, "port": server.port},
    )
    await stop.wait()
    await server.shutdown()
    _LOG.info("repro serve: drained cleanly")


def run(config: ServeConfig) -> int:
    """Blocking entry point used by ``repro serve``.

    Returns 0 after a graceful (signal-initiated) drain.
    """
    asyncio.run(_run_async(config))
    return 0


class ServerThread:
    """In-process server on a background thread (tests and benchmarks).

    Starts on an ephemeral port by default; ``.port`` is valid once the
    constructor returns.  `shutdown` performs the same graceful drain the
    signal path does.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig(port=0)
        self.server: ReproServer | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-thread", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start")
        if self.server is None:
            raise RuntimeError("serve thread died during startup")

    def _main(self) -> None:
        asyncio.run(self._async_main())

    async def _async_main(self) -> None:
        try:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.server = ReproServer(self.config)
            await self.server.start()
        finally:
            self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def scheduler(self) -> RequestScheduler:
        assert self.server is not None
        return self.server.scheduler

    def shutdown(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not drain in time")
