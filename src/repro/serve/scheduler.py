"""Request scheduler: coalescing, answering from memory, micro-batching,
and admission control.

The serving hot path of `repro.serve`.  Four mechanisms, applied in
order to every submitted request:

1. **In-flight coalescing.**  Requests are content-addressed
   (`repro.serve.protocol` reuses the cache key derivation from
   `repro.core.cache`); a request whose key matches an already-running
   computation attaches to its future instead of recomputing.  Coalesced
   attachments are free — they consume no queue slot and no engine work.

2. **Answered from memory.**  Once the drain check has passed, a
   characterize request whose every work unit the `OutcomeCache` memory
   tier already holds, at the horizon the request needs, is answered at
   once on the event loop.  It waits for no batch window, takes no queue
   slot and never reaches the lane.  The scheduler probes units in plan
   order (`OutcomeCache.holds`) and stops at the first one that is not
   held, so a cold request pays one key and one probe before it queues.
   Disk-tier hits and risk requests still go through the lane, which
   keeps file I/O off the loop.

3. **Micro-batching.**  Any other primary (non-coalesced) request does
   not execute immediately: it joins a bucket keyed by its execution
   context (`batch_key` — kind, geometry, temperature) and waits up to
   ``batch_window_s``.  Everything that lands in the bucket inside the
   window is folded into *one* engine submission: characterize batches
   plan all their work units together, deduplicate them by outcome cache
   key, and resolve them through one
   `CharacterizationEngine.compute_summaries` call sharing the worker
   pool; per-request records are then assembled from the shared summaries
   at each request's own intervals, by the same code that assembles an
   answered request's records.

4. **Admission control.**  At most ``max_queue`` primary requests may be
   admitted-but-unfinished; past that, `submit` raises
   :class:`QueueFullError` carrying a ``retry_after`` hint (the server
   turns it into HTTP 429 + ``Retry-After``).  Answered requests, like
   coalesced ones, are always admitted.  `begin_drain` flips the
   scheduler into drain mode: new primaries and answerable requests are
   refused (:class:`DrainingError` -> 503), buckets are flushed
   immediately, and `drain` returns once every admitted request has
   completed.

Execution happens on a single worker thread (``run_in_executor``), which
serializes engine submissions — the engine itself fans out to worker
threads when ``workers > 1``.  The event loop looks units up in the
`OutcomeCache` while the lane writes to it; the cache's memory lock
keeps both sides consistent.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor

from repro import obs
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
    "without a batch or the submission lane.",
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
    "Primary requests folded into one engine submission.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)
_BATCH_SECONDS = obs.histogram(
    "serve_batch_seconds",
    "Wall-clock seconds per batch execution on the submission lane.",
)
_BATCH_FAILURES = obs.counter(
    "serve_batch_failures_total",
    "Batch jobs that raised instead of producing results.",
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
    """Coalescing micro-batch scheduler over the characterization engine.

    Args:
        workers: engine worker threads per submission (0 = in-process).
        cache: shared `OutcomeCache`; created in-memory when ``None``.
        max_queue: admission bound on primary (non-coalesced) requests.
        batch_window_s: how long a bucket collects before executing.
        max_batch: a bucket reaching this size executes immediately.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        cache: OutcomeCache | None = None,
        max_queue: int = 64,
        batch_window_s: float = 0.005,
        max_batch: int = 32,
    ) -> None:
        self.workers = workers
        self.cache = cache if cache is not None else OutcomeCache()
        self.max_queue = max_queue
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.stats = {
            "requests": 0,
            "coalesced": 0,
            "answered": 0,
            "rejected": 0,
            "jobs": 0,
            "failed_jobs": 0,
            "batched_requests": 0,
        }
        self._inflight: dict[str, asyncio.Future] = {}
        self._contexts: dict[str, object] = {}
        self._buckets: dict[tuple, list] = {}
        self._timers: dict[tuple, asyncio.TimerHandle] = {}
        self._jobs: set[asyncio.Task] = set()
        self._queued = 0
        self._draining = False
        self._ewma_batch_s = batch_window_s
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
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
        queue is expected to take to clear, floored at one second."""
        expected = self._queued * max(self._ewma_batch_s, self.batch_window_s)
        return float(min(30, max(1, math.ceil(expected))))

    async def submit(self, request: CharacterizeRequest | RiskRequest):
        """Resolve one request: coalesce, answer from memory, or batch, as
        described above.

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
        batch_key = request.batch_key()
        bucket = self._buckets.setdefault(batch_key, [])
        bucket.append((key, request, future, context))
        if len(bucket) >= self.max_batch:
            self._flush(batch_key)
        elif len(bucket) == 1:
            self._timers[batch_key] = loop.call_later(
                self.batch_window_s, self._flush, batch_key
            )
        return await asyncio.shield(future)

    def _answer_from_memory(self, request: CharacterizeRequest) -> dict | None:
        """The response payload, if the memory tier holds every unit of
        ``request`` at the horizon it needs; ``None`` sends it to the lane.

        Every unit is probed before any is looked up, so only a request
        that can be answered whole touches the hit counters, and each
        lookup keeps the counters, recency and gauges exact.  A unit
        evicted between its probe and its lookup (only a bounded memory
        tier evicts) is read from the disk tier if there is one; if it is
        not there either, the request falls back to the lane.
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

    def _flush(self, batch_key: tuple) -> None:
        timer = self._timers.pop(batch_key, None)
        if timer is not None:
            timer.cancel()
        batch = self._buckets.pop(batch_key, None)
        if not batch:
            return
        self.stats["jobs"] += 1
        self.stats["batched_requests"] += len(batch)
        _BATCH_SIZE.observe(len(batch))
        task = asyncio.get_running_loop().create_task(self._run_batch(batch_key, batch))
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)

    async def _run_batch(self, batch_key: tuple, batch: list) -> None:
        """Execute one flushed bucket and settle every attached future.

        Failure invariant: *whatever* happens inside the job — an engine
        exception, a short result list, even a cancellation during drain —
        every primary in the batch must be finished exactly once, so the
        admission queue returns to zero and `retry_after` cannot inflate
        forever on a dead queue slot.  The ``finally`` clause is the
        backstop for exception paths no branch anticipated.
        """
        requests = [request for _, request, _, _ in batch]
        contexts = [context for _, _, _, context in batch]
        try:
            results = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._execute_batch, batch_key, requests, contexts
            )
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch produced {len(results)} result(s) for "
                    f"{len(batch)} request(s)"
                )
        except (KeyboardInterrupt, SystemExit):
            raise  # the finally clause still releases the batch's slots.
        except BaseException as exc:
            self.stats["failed_jobs"] += 1
            _BATCH_FAILURES.inc()
            for key, _, future, _ in batch:
                self._finish(key, future, error=exc)
        else:
            for (key, _, future, _), result in zip(batch, results):
                self._finish(key, future, result=result)
        finally:
            for key, _, future, _ in batch:
                if not future.done():
                    self._finish(
                        key,
                        future,
                        error=RuntimeError("batch job abandoned this request"),
                    )

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
    # Execution (submission-lane thread)
    # ------------------------------------------------------------------
    def _execute_batch(
        self, batch_key: tuple, requests: list, contexts: list | None = None
    ) -> list:
        kind = batch_key[0]
        contexts = contexts if contexts is not None else [None] * len(requests)
        # A batch folds N request traces into one execution.  The span can
        # have only one parent, so it continues the *first* primary's trace
        # (a single-request batch is then one unbroken trace) and records
        # every other folded request as a span link.
        primary = next((context for context in contexts if context is not None), None)
        start = time.perf_counter()
        with obs.use_context(primary):
            with obs.span("serve.batch", kind=kind, size=len(requests)) as batch_span:
                for context in contexts:
                    if context is not None and context is not primary:
                        batch_span.add_link(context.trace_id, context.span_id)
                if kind == "characterize":
                    results = self._execute_characterize(requests)
                else:
                    results = self._execute_risk(requests)
        wall = time.perf_counter() - start
        _BATCH_SECONDS.observe(wall)
        self._ewma_batch_s += 0.25 * (wall - self._ewma_batch_s)
        return results

    def _execute_characterize(self, requests: list[CharacterizeRequest]) -> list[dict]:
        """One engine submission for a whole characterize batch.

        All requests share scale and condition (that is what the batch key
        groups by); their unit lists are planned together, deduplicated by
        outcome cache key, resolved through one ``compute_summaries``
        call, and re-expanded into per-request records at each request's
        own intervals — so a served record is the same value a direct
        `Campaign` run of that request would produce.
        """
        scale = requests[0].scale
        config = requests[0].config
        engine = CharacterizationEngine(
            scale=scale, workers=self.workers, cache=self.cache
        )
        per_request_units = [
            plan_units((request.serial,), config, scale) for request in requests
        ]
        flat = []
        slot_of: dict[str, int] = {}
        request_slots = []
        for units in per_request_units:
            slots = []
            for unit in units:
                unit_key = engine.unit_key(unit)
                index = slot_of.get(unit_key)
                if index is None:
                    index = slot_of[unit_key] = len(flat)
                    flat.append(unit)
                slots.append(index)
            request_slots.append(slots)
        union_intervals = tuple(
            sorted({t for request in requests for t in request.intervals})
        )
        summaries = engine.compute_summaries(flat, union_intervals)
        return [
            _characterize_payload(request, units, [summaries[index] for index in slots])
            for request, units, slots in zip(requests, per_request_units, request_slots)
        ]

    def _execute_risk(self, requests: list[RiskRequest]) -> list[dict]:
        """Risk requests walk their own work units; nothing outlives the
        request, so served memory stays flat across geometries and
        temperatures."""
        return [
            risk_to_json(
                refresh_window_risk(
                    request.serial,
                    request.scale,
                    window=request.window_ms / 1000.0,
                    temperature_c=request.temperature_c,
                )
            )
            for request in requests
        ]

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting primaries and flush every waiting bucket now."""
        self._draining = True
        for batch_key in list(self._buckets):
            self._flush(batch_key)

    async def drain(self) -> None:
        """Complete every admitted request, then release the lane."""
        self.begin_drain()
        while self._jobs:
            await asyncio.gather(*list(self._jobs), return_exceptions=True)
        self._executor.shutdown(wait=True)

    async def aclose(self) -> None:
        """Drain and shut down (alias used by tests)."""
        await self.drain()


def _characterize_payload(
    request: CharacterizeRequest,
    units: list[WorkUnit],
    summaries: list[OutcomeSummary | None],
) -> dict:
    """The ``/v1/characterize`` response for ``request``: one record per
    unit, in plan order, at the request's own intervals.  Both the lane
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
