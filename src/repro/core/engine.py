"""Parallel characterization engine: work units, sharding, and caching.

A campaign covers modules x chips x banks x subarrays.  This module
decomposes it into self-describing :class:`WorkUnit` values — ``(serial,
chip, bank, subarray, config, geometry)`` — and executes them on a
``ThreadPoolExecutor``.  The per-unit work is NumPy that releases the GIL,
so pool threads overlap real work while sharing the outcome cache and the
obs registry directly.  Because cell populations are *deterministic
functions of their key* (see `repro.chip.cells`), a unit re-derives its
subarray's silicon from the unit alone and returns a compact
`OutcomeSummary` of weak-cell event times.

Work units are the only way an analytic characterization reaches a cell
population: `Campaign` runs this engine, and `repro.core.risk` walks the
same units through `unit_outcome`.

Determinism guarantee: the record list is assembled in plan order (serial ->
chip -> bank -> subarray) and each summary is a pure function of its unit,
so results are bit-identical for any ``workers`` count, with or without a
cache, and for any retry/timeout setting.

Fault tolerance: per-unit execution is wrapped with configurable retries
(exponential backoff) and an optional per-unit timeout.  A unit that
outlives the timeout is charged the attempt and its pool is abandoned
without joining the hung thread; the units still unresolved move to a
fresh pool.  When a unit exhausts its attempts, the
:class:`FailurePolicy` decides: ``raise`` aborts the campaign with a
:class:`UnitExecutionError`, ``skip-with-record`` completes the campaign
with an explicit ``status="skipped"`` record in the unit's plan slot —
never a silent hole.

Telemetry: pass ``trace=RunTrace(...)`` (`repro.core.telemetry`) to record
per-unit wall time, retry counts, and cache tier, streamed as JSONL while
the campaign runs.

Summary sizing: every pass builds its summaries to
``max(SEARCH_INTERVAL, *intervals)`` — the longest interval it must answer,
and never less than the 512 ms time-to-first search — so no pass pays for
events past the question it was asked.

Outcome caching: units are content-addressed (`repro.core.cache`), keyed on
the *condition* rather than the queried intervals, so passes that share a
condition reuse one summary for every interval up to its horizon.  A pass
asking for a longer interval than a cached summary covers misses, computes
the unit once and replaces the entry with the longer summary: entries only
grow, one recompute per growth step.  With ``cache=OutcomeCache(path)``
the summaries also persist across runs (disk tier).
"""

from __future__ import annotations

import contextvars
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from repro import obs
from repro.chip.catalog import get_module
from repro.chip.cells import CellPopulation
from repro.chip.geometry import BankGeometry
from repro.chip.module import ModuleSpec
from repro.chip.timing import DDR4, HBM2, TimingParameters
from repro.core.analytic import (
    DEFAULT_SUMMARY_HORIZON,
    GUARDBAND_ROWS,
    OutcomeSummary,
    SubarrayOutcome,
    SubarrayRole,
    disturb_outcome,
)
from repro.core.cache import OutcomeCache, outcome_cache_key
from repro.core.campaign import (
    STANDARD_SCALE,
    CampaignScale,
    SubarrayRecord,
    record_cell_flip_metrics,
)
from repro.core.config import SEARCH_INTERVAL, DisturbConfig
from repro.core.telemetry import RunTrace, UnitTrace, record_unit_metrics
from repro.obs import state as _obs_state

#: Default horizon of a summary built by `execute_unit` alone.  Engine
#: passes never use it: they size each summary to the intervals they answer.
DEFAULT_ENGINE_HORIZON = DEFAULT_SUMMARY_HORIZON

#: Exponential backoff never sleeps longer than this between attempts.
MAX_BACKOFF_S = 2.0

_SERIAL_FALLBACKS = obs.counter(
    "engine_serial_fallbacks_total",
    "Campaign passes that skipped the worker pool because the host has no "
    "parallelism to offer (os.cpu_count() <= 1).",
)

_log = logging.getLogger("repro.core.engine")


class FailurePolicy(str, Enum):
    """What a campaign does when a unit exhausts its retry budget."""

    RAISE = "raise"
    SKIP = "skip-with-record"


class UnitExecutionError(RuntimeError):
    """A work unit failed every attempt under ``FailurePolicy.RAISE``."""

    def __init__(self, unit: "WorkUnit", attempts: int, error: str | None):
        self.unit = unit
        self.attempts = attempts
        self.error = error
        super().__init__(
            f"unit {unit.population_key} failed after {attempts} "
            f"attempt(s): {error or 'unknown error'}"
        )


@dataclass(frozen=True)
class WorkUnit:
    """One self-describing unit of campaign work: a (subarray, condition).

    Every field is a small immutable value, and the unit carries everything
    a pool thread needs to re-derive the subarray's cell population
    deterministically.
    """

    serial: str
    chip: int
    bank: int
    subarray: int
    config: DisturbConfig
    geometry: BankGeometry

    @property
    def population_key(self) -> tuple:
        """The `CellPopulation` identity this unit characterizes."""
        return (self.serial, self.chip, self.bank, self.subarray)

    def aggressor_local_row(self) -> int:
        """Aggressor row offset within the tested subarray."""
        aggressor_row = self.config.aggressor_row(self.geometry, self.subarray)
        return self.geometry.row_within_subarray(aggressor_row)

    def cache_key(
        self, guardband: int = GUARDBAND_ROWS, spec: ModuleSpec | None = None
    ) -> str:
        """Content hash addressing this unit's outcome in an `OutcomeCache`."""
        if spec is None:
            spec = get_module(self.serial)
        return outcome_cache_key(
            self.population_key,
            self.geometry.subarray_rows(self.subarray),
            self.geometry.columns,
            spec.profile,
            self.config,
            SubarrayRole.AGGRESSOR,
            guardband,
            self.aggressor_local_row(),
        )


def plan_units(
    serials: tuple[str, ...],
    config: DisturbConfig,
    scale: CampaignScale,
) -> list[WorkUnit]:
    """Decompose a campaign into work units, in plan order (serial -> chip
    -> bank -> subarray)."""
    units = []
    for serial in serials:
        spec = get_module(serial)
        for chip in range(min(scale.chips, spec.chips)):
            for bank in range(scale.banks):
                for subarray in scale.subarray_indices():
                    units.append(
                        WorkUnit(
                            serial=serial,
                            chip=chip,
                            bank=bank,
                            subarray=subarray,
                            config=config,
                            geometry=scale.geometry,
                        )
                    )
    return units


def _unit_timing(spec: ModuleSpec) -> TimingParameters:
    return HBM2 if spec.interface == "HBM2" else DDR4


def unit_outcome(
    unit: WorkUnit, guardband: int = GUARDBAND_ROWS
) -> tuple[CellPopulation, SubarrayOutcome]:
    """The full per-cell outcome of one unit, with the population behind it.

    The subarray's cell population is re-derived from the unit's key, so
    the outcome is bit-identical to characterizing through a
    `SimulatedModule`.  Every analytic characterization (`execute_unit`,
    `repro.core.risk`) reaches its cells through this one function.
    """
    spec = get_module(unit.serial)
    population = CellPopulation(
        key=unit.population_key,
        profile=spec.profile,
        rows=unit.geometry.subarray_rows(unit.subarray),
        columns=unit.geometry.columns,
    )
    outcome = disturb_outcome(
        population,
        unit.config,
        timing=_unit_timing(spec),
        role=SubarrayRole.AGGRESSOR,
        aggressor_local_row=unit.aggressor_local_row(),
        guardband=guardband,
    )
    return population, outcome


def execute_unit(
    unit: WorkUnit,
    horizon: float = DEFAULT_ENGINE_HORIZON,
    guardband: int = GUARDBAND_ROWS,
) -> OutcomeSummary:
    """Characterize one unit from scratch (the worker-side entry point);
    the compact event summary is returned."""
    # Hold the population until the summary is built: freeing it first measured slower.
    population, outcome = unit_outcome(unit, guardband)
    return outcome.summarize(horizon)


# ---------------------------------------------------------------------------
# Deterministic fault injection (test-only, env-driven)
# ---------------------------------------------------------------------------

#: JSON fault spec consumed by `_maybe_inject_fault`, e.g.
#: ``{"mode": "poison", "subarray": 1, "times": 1, "dir": "/tmp/faults"}``.
#: ``mode`` is ``poison`` (the unit raises) or ``hang`` (in a pool thread
#: the unit sleeps ``hang_s`` seconds, default 3, before raising; in-process,
#: where no timeout can fire, it raises at once).  ``times`` limits how many
#: attempts fault (claimed atomically via files in ``dir``, so the count is
#: shared across pool threads); ``subarray`` selects the victim units.
#: Unset (the default) costs one dict lookup per unit.
FAULT_ENV = "REPRO_ENGINE_FAULT"

#: Name prefix of the engine's pool threads.
_POOL_THREAD_PREFIX = "repro-engine"


def _maybe_inject_fault(unit: WorkUnit) -> None:
    raw = os.environ.get(FAULT_ENV)
    if not raw:
        return
    spec = json.loads(raw)
    if unit.subarray != spec.get("subarray", 0):
        return
    times = spec.get("times", 1)
    token = "-".join(str(part) for part in unit.population_key)
    fault_dir = spec["dir"]
    for attempt in range(times + 1):
        try:
            fd = os.open(
                os.path.join(fault_dir, f"{token}.{attempt}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        os.close(fd)
        if attempt >= times:
            return  # fault budget spent: execute normally
        break
    else:
        return
    if spec["mode"] == "hang":
        if threading.current_thread().name.startswith(_POOL_THREAD_PREFIX):
            time.sleep(spec.get("hang_s", 3.0))
        raise RuntimeError("injected hang fault")
    raise RuntimeError("injected poison fault")


def _worker_run(
    unit: WorkUnit, horizon: float, guardband: int
) -> tuple[OutcomeSummary, float]:
    """Execute one unit under an ``engine.unit`` span; returns
    ``(summary, wall_s)``."""
    _maybe_inject_fault(unit)
    start = time.perf_counter()
    with obs.span(
        "engine.unit",
        serial=unit.serial,
        chip=unit.chip,
        bank=unit.bank,
        subarray=unit.subarray,
    ):
        summary = execute_unit(unit, horizon=horizon, guardband=guardband)
    return summary, time.perf_counter() - start


def _submit(pool: ThreadPoolExecutor, compute, unit: WorkUnit) -> Future:
    """Submit one attempt of ``unit``, first or retry, to ``pool``.

    A pool thread runs tasks in its own `contextvars` Context, which would
    orphan the unit's span.  Running the task in a copy of the submitter's
    context (one copy per task: a Context is single-entry) nests the span
    under the submitter's active campaign or batch span.
    """
    return pool.submit(contextvars.copy_context().run, compute, unit)


@dataclass
class _ExecResult:
    """Outcome of executing one pending unit (``summary is None`` =>
    skipped under ``FailurePolicy.SKIP``)."""

    summary: OutcomeSummary | None
    attempts: int
    wall: float
    error: str | None = None
    executor: str | None = None


def record_from_summary(
    unit: WorkUnit,
    summary: OutcomeSummary | None,
    intervals: tuple[float, ...],
    spec: ModuleSpec | None = None,
) -> SubarrayRecord:
    """Assemble the campaign record for one unit from its summary.

    ``summary=None`` produces an explicit hole — a ``status="skipped"``
    record with empty metric maps — for units abandoned under
    ``FailurePolicy.SKIP``.
    """
    if spec is None:
        spec = get_module(unit.serial)
    if summary is None:
        rows = unit.geometry.subarray_rows(unit.subarray)
        record = SubarrayRecord(
            serial=spec.serial,
            manufacturer=spec.manufacturer,
            die_label=spec.die_label,
            chip=unit.chip,
            bank=unit.bank,
            subarray=unit.subarray,
            rows=rows,
            cells=rows * unit.geometry.columns,
            time_to_first=float("inf"),
            cd_flips={},
            cd_rows={},
            ret_flips={},
            ret_rows={},
            status="skipped",
        )
    else:
        record = _record_from_ok_summary(unit, summary, intervals, spec)
    if _obs_state.enabled:
        record_cell_flip_metrics(record)
    return record


def _record_from_ok_summary(
    unit: WorkUnit,
    summary: OutcomeSummary,
    intervals: tuple[float, ...],
    spec: ModuleSpec,
) -> SubarrayRecord:
    return SubarrayRecord(
        serial=spec.serial,
        manufacturer=spec.manufacturer,
        die_label=spec.die_label,
        chip=unit.chip,
        bank=unit.bank,
        subarray=unit.subarray,
        rows=summary.rows,
        cells=summary.cells,
        time_to_first=summary.time_to_first,
        cd_flips={t: summary.flip_count(t) for t in intervals},
        cd_rows={t: summary.rows_with_flips(t) for t in intervals},
        ret_flips={t: summary.retention_flip_count(t) for t in intervals},
        ret_rows={t: summary.retention_rows_with_flips(t) for t in intervals},
    )


@dataclass
class CharacterizationEngine:
    """Campaign executor with thread-pool parallelism, outcome caching,
    fault tolerance, and structured run telemetry.

    Attributes:
        scale: how much silicon to instantiate per module (shared with
            `Campaign`).
        workers: thread-pool width; ``0``/``1`` run in-process (serial).
        cache: optional `OutcomeCache`; hits skip computation entirely.
        retries: extra attempts per unit after a failed first execution.
        retry_backoff: base of the exponential backoff between attempts
            (``backoff * 2**(failures - 1)`` seconds, capped).
        timeout: optional per-unit wall-clock limit (pool execution only —
            the in-process path cannot preempt a hung computation).  The
            engine stops waiting on a timed-out unit and charges the
            attempt; its thread is abandoned, never joined, and the units
            still unresolved run on a fresh pool.
        failure_policy: ``raise`` (default) aborts the campaign on an
            exhausted unit; ``skip-with-record`` completes it with an
            explicit ``status="skipped"`` record in the unit's slot.
        trace: optional `RunTrace` receiving one `UnitTrace` per unit.
        serial_fallback: when ``True`` (default), a multi-worker request on
            a host with ``os.cpu_count() <= 1`` runs in-process instead of
            paying pool overhead for no parallelism (logged, counted, and
            recorded as a trace decision).  ``False`` forces the pool —
            used by tests that exercise pool mechanics regardless of host.
    """

    scale: CampaignScale = STANDARD_SCALE
    workers: int = 0
    cache: OutcomeCache | None = None
    guardband: int = GUARDBAND_ROWS
    retries: int = 0
    retry_backoff: float = 0.05
    timeout: float | None = None
    failure_policy: FailurePolicy | str = FailurePolicy.RAISE
    trace: RunTrace | None = None
    serial_fallback: bool = True
    #: Effective-execution report of the most recent campaign pass —
    #: what actually ran (worker count, fallback decision), as
    #: opposed to what was requested.  ``None`` until the first pass.
    last_execution: dict | None = field(default=None, repr=False, compare=False)
    _key_memo: dict = field(default_factory=dict, repr=False, compare=False)
    _spec_memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.failure_policy = FailurePolicy(self.failure_policy)
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and positive, got {self.timeout!r}")

    def characterize_module(
        self,
        serial: str,
        config: DisturbConfig,
        intervals: tuple[float, ...] = (),
    ) -> list[SubarrayRecord]:
        """Characterize every in-scale subarray of one module."""
        return self.characterize_modules((serial,), config, intervals)

    def characterize_modules(
        self,
        serials: tuple[str, ...],
        config: DisturbConfig,
        intervals: tuple[float, ...] = (),
    ) -> list[SubarrayRecord]:
        """Characterize every in-scale subarray of ``serials``.

        Records come back in plan order and are bit-identical for any
        ``workers``/``cache``/retry setting.
        """
        units = plan_units(tuple(serials), config, self.scale)
        with obs.span(
            "engine.characterize",
            serials=",".join(serials), units=len(units),
            workers=self.workers,
        ):
            summaries = self.compute_summaries(units, tuple(intervals))
            return [
                record_from_summary(
                    unit, summary, tuple(intervals),
                    spec=self._spec(unit.serial),
                )
                for unit, summary in zip(units, summaries)
            ]

    def compute_summaries(
        self,
        units: list[WorkUnit],
        intervals: tuple[float, ...] = (),
    ) -> list[OutcomeSummary | None]:
        """Resolve summaries for an explicit unit list, in list order.

        The submission hook used by `repro.serve`: a caller that plans (and
        possibly deduplicates or merges) its own unit lists still gets the
        full engine treatment — cache lookups, pool execution, retries,
        timeout, and the failure policy.  Each summary answers every
        interval up to ``max(SEARCH_INTERVAL, *intervals)``; a cached one
        that is shorter is recomputed to that horizon and replaced.  A
        ``None`` entry is a unit abandoned under ``skip-with-record``.
        """
        horizon = max((SEARCH_INTERVAL, *intervals))
        return self._summaries(list(units), horizon)

    def unit_key(self, unit: WorkUnit) -> str:
        """Content-addressed cache key of one unit (memoized per engine).

        Public so batching layers can deduplicate overlapping submissions
        by the same identity the cache uses.
        """
        return self._unit_key(unit)

    # ------------------------------------------------------------------
    # Memoized per-serial/per-unit lookups
    # ------------------------------------------------------------------
    def _spec(self, serial: str) -> ModuleSpec:
        spec = self._spec_memo.get(serial)
        if spec is None:
            spec = self._spec_memo[serial] = get_module(serial)
        return spec

    def _unit_key(self, unit: WorkUnit) -> str:
        """`WorkUnit.cache_key`, hashed once per unit per engine."""
        key = self._key_memo.get(unit)
        if key is None:
            key = self._key_memo[unit] = unit.cache_key(
                self.guardband, spec=self._spec(unit.serial)
            )
        return key

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _trace_unit(
        self,
        index: int,
        unit: WorkUnit,
        source: str,
        wall: float,
        attempts: int = 0,
        error: str | None = None,
        executor: str | None = None,
    ) -> None:
        """Record one unit's telemetry to the RunTrace and/or the metrics
        registry — both views are built from the same UnitTrace value."""
        if self.trace is None and not _obs_state.enabled:
            return
        unit_trace = UnitTrace(
            index=index,
            serial=unit.serial,
            chip=unit.chip,
            bank=unit.bank,
            subarray=unit.subarray,
            source=source,
            wall_s=wall,
            attempts=attempts,
            worker=None if source == "skipped" else os.getpid(),
            error=error,
            executor=executor,
        )
        record_unit_metrics(unit_trace)
        if self.trace is not None:
            self.trace.record(unit_trace)

    def _summaries(
        self, units: list[WorkUnit], horizon: float
    ) -> list[OutcomeSummary | None]:
        summaries: list[OutcomeSummary | None] = [None] * len(units)
        keys: list[str | None] = [None] * len(units)
        resolved = [False] * len(units)
        if self.cache is not None:
            for i, unit in enumerate(units):
                keys[i] = self._unit_key(unit)
                start = time.perf_counter()
                summary, tier = self.cache.lookup(keys[i], min_horizon=horizon)
                if summary is not None:
                    summaries[i] = summary
                    resolved[i] = True
                    self._trace_unit(i, unit, tier, time.perf_counter() - start)
        pending = [i for i, done in enumerate(resolved) if not done]
        results = self._execute_pending(units, pending, horizon)
        for i in pending:
            result = results[i]
            if result.summary is not None:
                summaries[i] = result.summary
                if self.cache is not None:
                    self.cache.put(keys[i], result.summary)
            self._trace_unit(
                i, units[i],
                "computed" if result.summary is not None else "skipped",
                result.wall, result.attempts, result.error, result.executor,
            )
        return summaries

    def _execute_pending(
        self, units: list[WorkUnit], pending: list[int], horizon: float
    ) -> dict[int, _ExecResult]:
        """Execute ``pending`` unit indices with retries, timeout, and the
        failure policy; returns results keyed by index."""
        compute = partial(_worker_run, horizon=horizon, guardband=self.guardband)
        results: dict[int, _ExecResult] = {}
        attempts = {i: 0 for i in pending}
        errors: dict[int, str] = {}
        queue = list(pending)
        pooled = self.workers > 1 and len(queue) > 1
        fallback = pooled and self.serial_fallback and (os.cpu_count() or 1) <= 1
        if fallback:
            # The CI case behind BENCH_engine.json's parallel_speedup 0.518:
            # a pool on a 1-core host only adds scheduling overhead.
            pooled = False
            detail = (
                f"workers={self.workers} requested but "
                f"os.cpu_count()={os.cpu_count()!r} offers no parallelism; "
                "running in-process to avoid pool overhead"
            )
            _SERIAL_FALLBACKS.inc()
            _log.warning(detail)
            if self.trace is not None:
                self.trace.note_decision("serial-fallback", detail)
        self.last_execution = {
            "workers": self.workers,
            "effective_workers": min(self.workers, len(queue)) if pooled else 1,
            "serial_fallback": fallback,
        }
        while pooled and queue:
            queue = self._pool_pass(units, queue, compute, results, attempts, errors)
        for i in queue:
            self._run_in_process(units[i], i, compute, results, attempts, errors)
        return results

    def _pool_pass(self, units, queue, compute, results, attempts, errors) -> list[int]:
        """One pool lifetime: submit ``queue`` and collect it in order.

        Returns the indices left unresolved, which is none unless a unit
        timed out.  A timed-out unit is charged the attempt and the pool is
        abandoned without joining its threads, so the hung thread runs on
        alone and no later unit waits behind it; the unresolved units,
        including the timed-out one while it has attempts left, go to the
        next pool.
        """
        pool = ThreadPoolExecutor(
            max_workers=min(self.workers, len(queue)),
            thread_name_prefix=_POOL_THREAD_PREFIX,
        )
        try:
            futures = {i: _submit(pool, compute, units[i]) for i in queue}
            for i in queue:
                while True:
                    try:
                        summary, wall = futures[i].result(timeout=self.timeout)
                    except TimeoutError:
                        attempts[i] += 1
                        errors[i] = f"unit timed out after {self.timeout:g}s"
                        if attempts[i] > self.retries:
                            self._register_failure(units[i], i, attempts, errors, results)
                        self._harvest(queue, futures, results, attempts)
                        pool.shutdown(wait=False, cancel_futures=True)
                        return [j for j in queue if j not in results]
                    except Exception as exc:
                        attempts[i] += 1
                        errors[i] = f"{type(exc).__name__}: {exc}"
                        if attempts[i] <= self.retries:
                            self._backoff(attempts[i])
                            futures[i] = _submit(pool, compute, units[i])
                            continue
                        self._register_failure(units[i], i, attempts, errors, results)
                    else:
                        attempts[i] += 1
                        results[i] = _ExecResult(
                            summary, attempts[i], wall, None, "threads"
                        )
                    break
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        return []

    @staticmethod
    def _harvest(queue, futures, results, attempts) -> None:
        """Keep the results of units that finished before their pool was
        abandoned; a unit that failed there runs again, uncharged."""
        for i in queue:
            future = futures[i]
            if i in results or not future.done() or future.exception() is not None:
                continue
            summary, wall = future.result()
            attempts[i] += 1
            results[i] = _ExecResult(summary, attempts[i], wall, None, "threads")

    def _run_in_process(self, unit, index, compute, results, attempts, errors) -> None:
        """Serial execution of one unit with the same retry/policy rules."""
        while True:
            attempts[index] += 1
            try:
                summary, wall = compute(unit)
            except Exception as exc:
                errors[index] = f"{type(exc).__name__}: {exc}"
                if attempts[index] <= self.retries:
                    self._backoff(attempts[index])
                    continue
                self._register_failure(unit, index, attempts, errors, results)
            else:
                results[index] = _ExecResult(
                    summary, attempts[index], wall, None, "serial"
                )
            return

    def _register_failure(self, unit, index, attempts, errors, results) -> None:
        if self.failure_policy is FailurePolicy.RAISE:
            raise UnitExecutionError(unit, attempts[index], errors.get(index))
        results[index] = _ExecResult(None, attempts[index], 0.0, errors.get(index))

    def _backoff(self, failures: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(min(MAX_BACKOFF_S, self.retry_backoff * 2 ** (failures - 1)))
