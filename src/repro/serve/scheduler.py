"""Request scheduler: coalescing, answering from memory, lane jobs and
admission control.

The serving hot path of `repro.serve`.  Every submitted request takes the
first of these three paths that applies:

1. **In-flight coalescing.**  Requests are content-addressed
   (`repro.serve.protocol` reuses the cache key derivation from
   `repro.core.cache`); a request whose key matches an already-running
   computation attaches to its future instead of recomputing.  Coalesced
   attachments are free — they consume no queue slot and no engine work.

2. **Answered from memory.**  Once the drain check has passed, a
   characterize request whose every work unit the `OutcomeCache` memory
   tier already holds, at the horizon the request needs, is answered at
   once on the event loop.  It takes no queue slot and never reaches a
   lane.  The scheduler probes units in plan order (`OutcomeCache.holds`)
   and stops at the first one that is not held, so a cold request pays
   one key and one probe before it is admitted.  Disk-tier hits and risk
   requests still go through a lane, which keeps file I/O off the loop.

3. **A lane job.**  Any other request is admitted and sent straight to a
   submission lane as its own job.  A characterize job plans the
   request's work units and resolves them through one
   `CharacterizationEngine.compute_summaries` call; its records are
   assembled at the request's own intervals by the same code that
   assembles an answered request's records.  A risk job walks its own
   units.  Each job is one ``serve.batch`` span and one observation of
   each ``serve_batch_*`` metric.

**Admission control.**  At most ``max_queue`` primary requests may be
admitted-but-unfinished; past that, `submit` raises
:class:`QueueFullError` carrying a ``retry_after`` hint (the server turns
it into HTTP 429 + ``Retry-After``).  Answered requests, like coalesced
ones, are always admitted.  `begin_drain` flips the scheduler into drain
mode: new primaries and answerable requests are refused
(:class:`DrainingError` -> 503), and `drain` returns once every admitted
request has completed.

Execution happens on submission lanes (``run_in_executor``): one thread
per CPU the process may run on (`repro._util.cpus.usable_cpus`, its
affinity mask, worked out once when the scheduler is built), so
independent cold requests — two modules or two temperatures, say — run
side by side, and a process confined to one CPU keeps one lane that runs
jobs in order.  ``workers`` is the engine's own thread count per job, in
each lane.  The event loop looks units up in the `OutcomeCache` while the
lanes write to it; the cache's memory lock keeps every side consistent,
and a summary only ever grows in the memory tier, so two lanes that
compute one unit to two horizons leave the longer one held.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro._util.cpus import usable_cpus
from repro.chip.catalog import get_module
from repro.core.analytic import OutcomeSummary
from repro.core.cache import OutcomeCache
from repro.core.config import SEARCH_INTERVAL
from repro.core.engine import (
    CharacterizationEngine,
    WorkUnit,
    plan_units,
    record_from_summary,
)
from repro.core.risk import refresh_window_risk
from repro.serve.protocol import (
    CharacterizeRequest,
    RiskRequest,
    record_to_json,
    risk_to_json,
)

_COALESCED = obs.counter(
    "serve_coalesced_total",
    "Requests attached to an already-in-flight identical computation.",
)
_ANSWERED = obs.counter(
    "serve_answered_total",
    "Requests answered from the outcome cache's memory tier at submit, "
    "without a submission lane.",
)
_REJECTED = obs.counter(
    "serve_rejected_total",
    "Requests refused because the admission queue was full.",
)
_QUEUE_DEPTH = obs.gauge(
    "serve_queue_depth",
    "Primary requests admitted and not yet completed.",
)
_BATCH_SIZE = obs.histogram(
    "serve_batch_size",
    "Requests per lane job: one observation of 1 per job, so the count "
    "is the number of lane jobs.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)
_BATCH_SECONDS = obs.histogram(
    "serve_batch_seconds",
    "Wall-clock seconds per lane job.",
)
_BATCH_FAILURES = obs.counter(
    "serve_batch_failures_total",
    "Lane jobs that raised instead of producing a response.",
)


class QueueFullError(RuntimeError):
    """Admission queue at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float):
        self.retry_after = retry_after
        super().__init__(f"admission queue full; retry after {retry_after:g}s")


class DrainingError(RuntimeError):
    """The scheduler is draining and accepts no new work."""

    def __init__(self) -> None:
        super().__init__("service is draining; not accepting new requests")


class RequestScheduler:
    """Coalescing scheduler over the characterization engine: every
    admitted request runs on a submission lane as its own job.

    One submission lane per usable CPU; ``lanes`` holds the count.

    Args:
        workers: engine worker threads per lane job (0 = in-process).
        cache: shared `OutcomeCache`; created in-memory when ``None``.
        max_queue: admission bound on primary (non-coalesced) requests.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        cache: OutcomeCache | None = None,
        max_queue: int = 64,
    ) -> None:
        self.workers = workers
        self.cache = cache if cache is not None else OutcomeCache()
        self.max_queue = max_queue
        self.lanes = usable_cpus()
        self.stats = {
            "lanes": self.lanes,
            "requests": 0,
            "coalesced": 0,
            "answered": 0,
            "rejected": 0,
            "jobs": 0,
            "failed_jobs": 0,
        }
        self._inflight: dict[str, asyncio.Future] = {}
        self._contexts: dict[str, object] = {}
        self._jobs: set[asyncio.Task] = set()
        self._queued = 0
        self._draining = False
        self._ewma_batch_s = 0.0
        self._ewma_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.lanes, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # Submission (event-loop side)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Primary requests admitted and not yet completed."""
        return self._queued

    @property
    def draining(self) -> bool:
        return self._draining

    def retry_after(self) -> float:
        """Back-off hint for a refused request: the time the current
        queue is expected to take to clear on every lane, from a moving
        average of lane-job seconds, floored at one second."""
        expected = self._queued * self._ewma_batch_s / self.lanes
        return float(min(30, max(1, math.ceil(expected))))

    async def submit(self, request: CharacterizeRequest | RiskRequest):
        """Resolve one request: coalesce, answer from memory, or run it as
        a lane job, as described above.

        Returns the JSON-able response payload.  Raises
        :class:`QueueFullError` past ``max_queue`` and
        :class:`DrainingError` once `begin_drain` has been called.
        """
        self.stats["requests"] += 1
        key = request.cache_key()
        context = obs.current_context()
        future = self._inflight.get(key)
        if future is not None:
            self.stats["coalesced"] += 1
            _COALESCED.inc()
            # The attached request's own trace still records where its
            # answer came from: link its active span to the primary's.
            primary = self._contexts.get(key)
            active = obs.current_span()
            if primary is not None and active is not None:
                active.add_link(primary.trace_id, primary.span_id)
            # shield: one waiter's disconnect must not cancel the shared
            # computation out from under the other attached waiters.
            return await asyncio.shield(future)
        if self._draining:
            raise DrainingError()
        if isinstance(request, CharacterizeRequest):
            payload = self._answer_from_memory(request)
            if payload is not None:
                self.stats["answered"] += 1
                _ANSWERED.inc()
                active = obs.current_span()
                if active is not None:
                    active.set_attribute("answered", "memory")
                return payload
        if self._queued >= self.max_queue:
            self.stats["rejected"] += 1
            _REJECTED.inc()
            raise QueueFullError(self.retry_after())
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        if context is not None:
            self._contexts[key] = context
        self._queued += 1
        _QUEUE_DEPTH.set(self._queued)
        self.stats["jobs"] += 1
        _BATCH_SIZE.observe(1)
        task = loop.create_task(self._run_batch(key, request, future, context))
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)
        return await asyncio.shield(future)

    def _answer_from_memory(self, request: CharacterizeRequest) -> dict | None:
        """The response payload, if the memory tier holds every unit of
        ``request`` at the horizon it needs; ``None`` sends it to a lane.

        Every unit is probed before any is looked up, so only a request
        that can be answered whole touches the hit counters, and each
        lookup keeps the counters, recency and gauges exact.  A unit
        evicted between its probe and its lookup (only a bounded memory
        tier evicts) is read from the disk tier if there is one; if it is
        not there either, the request falls back to a lane.
        """
        horizon = max((SEARCH_INTERVAL, *request.intervals))
        spec = get_module(request.serial)
        units = plan_units((request.serial,), request.config, request.scale)
        keys = []
        for unit in units:
            key = unit.cache_key(spec=spec)
            if not self.cache.holds(key, horizon):
                return None
            keys.append(key)
        summaries = []
        for key in keys:
            summary, _ = self.cache.lookup(key, min_horizon=horizon)
            if summary is None:
                return None
            summaries.append(summary)
        return _characterize_payload(request, units, summaries)

    async def _run_batch(self, key: str, request, future, context) -> None:
        """Run one admitted request as a lane job and settle its future.

        Failure invariant: *whatever* happens inside the job — an engine
        exception, even a cancellation during drain — the primary is
        finished exactly once, so the admission queue returns to zero and
        `retry_after` cannot inflate forever on a dead queue slot.  A
        cancellation, interrupt or exit settles it as abandoned and then
        propagates.
        """
        error: BaseException | None = RuntimeError("lane job abandoned this request")
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._execute_batch, request, context
            )
            error = None
        except Exception as exc:
            error = exc
        finally:
            if error is None:
                self._finish(key, future, result=result)
            else:
                self.stats["failed_jobs"] += 1
                _BATCH_FAILURES.inc()
                self._finish(key, future, error=error)

    def _finish(self, key, future, result=None, error=None) -> None:
        """Settle one primary exactly once (idempotent on double calls).

        A future that is already done has already been accounted for —
        finishing it again must not decrement the queue a second time, or
        depth would drift negative and admission control would over-admit.
        """
        self._inflight.pop(key, None)
        self._contexts.pop(key, None)
        if future.done():
            return
        self._queued -= 1
        _QUEUE_DEPTH.set(self._queued)
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    # ------------------------------------------------------------------
    # Execution (submission-lane threads)
    # ------------------------------------------------------------------
    def _execute_batch(self, request, context=None) -> dict:
        """One lane job: ``request``'s response payload, inside a
        ``serve.batch`` span that continues the request's trace."""
        kind = request.batch_key()[0]
        start = time.perf_counter()
        with obs.use_context(context):
            with obs.span("serve.batch", kind=kind):
                if kind == "characterize":
                    result = self._execute_characterize(request)
                else:
                    result = self._execute_risk(request)
        wall = time.perf_counter() - start
        _BATCH_SECONDS.observe(wall)
        with self._ewma_lock:  # every lane finishes jobs
            self._ewma_batch_s += 0.25 * (wall - self._ewma_batch_s)
        return result

    def _execute_characterize(self, request: CharacterizeRequest) -> dict:
        """Plan ``request``'s units and resolve them through one
        ``compute_summaries`` call, so a served record is the same value a
        direct `Campaign` run of that request would produce."""
        engine = CharacterizationEngine(
            scale=request.scale, workers=self.workers, cache=self.cache
        )
        units = plan_units((request.serial,), request.config, request.scale)
        summaries = engine.compute_summaries(units, request.intervals)
        return _characterize_payload(request, units, summaries)

    def _execute_risk(self, request: RiskRequest) -> dict:
        """A risk request walks its own work units; nothing outlives the
        request, so served memory stays flat across geometries and
        temperatures."""
        return risk_to_json(
            refresh_window_risk(
                request.serial,
                request.scale,
                window=request.window_ms / 1000.0,
                temperature_c=request.temperature_c,
            )
        )

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting primaries and answerable requests."""
        self._draining = True

    async def drain(self) -> None:
        """Complete every admitted request, then release the lanes."""
        self.begin_drain()
        while self._jobs:
            await asyncio.gather(*list(self._jobs), return_exceptions=True)
        self._executor.shutdown(wait=True)


def _characterize_payload(
    request: CharacterizeRequest,
    units: list[WorkUnit],
    summaries: list[OutcomeSummary | None],
) -> dict:
    """The ``/v1/characterize`` response for ``request``: one record per
    unit, in plan order, at the request's own intervals.  Both the lanes
    and the answered path build responses here, so they are the same
    bytes."""
    intervals = tuple(request.intervals)
    return {
        "serial": request.serial,
        "intervals": list(request.intervals),
        "temperature_c": request.temperature_c,
        "records": [
            record_to_json(record_from_summary(unit, summary, intervals))
            for unit, summary in zip(units, summaries)
        ],
    }
