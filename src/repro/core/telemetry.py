"""Structured run telemetry for the characterization engine.

A 28-module campaign spends minutes to hours across hundreds of work
units; when it is slow (or silently served stale cache entries) the only
way to know *where* the time went is a per-unit trace.  :class:`RunTrace`
collects one :class:`UnitTrace` per work unit — wall time, retry count,
cache tier (memory / disk / computed / skipped), and the worker pid that
produced it — and can stream them as JSONL while the campaign runs, so a
crashed run still leaves a usable trace behind.

The end-of-run :meth:`RunTrace.summary` aggregates the records into the
numbers an operator actually wants: p50/p95 unit latency, cache hit
ratio, and how many units were retried or skipped.

Opting in: ``CharacterizationEngine(trace=RunTrace(path))``,
``Campaign(trace=...)`` or ``repro characterize --trace FILE`` on the
CLI.  Tracing is off by default and costs nothing when off.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.obs import state as _obs_state

#: Where a unit's summary came from.  ``computed`` means a worker (or the
#: in-process fallback) ran the characterization; ``skipped`` means every
#: attempt failed and the engine's ``FailurePolicy`` recorded an explicit
#: hole instead of raising.
UNIT_SOURCES = ("memory", "disk", "computed", "skipped")

# Registry re-expression of the per-unit telemetry (`repro.obs`): the engine
# feeds every UnitTrace through `record_unit_metrics`, whether or not a
# RunTrace is attached, so the JSONL trace and the metrics snapshot are two
# views of the same records and can never disagree.
_UNITS_TOTAL = obs.counter(
    "engine_units_total",
    "Work units resolved by the characterization engine, by summary source.",
    labelnames=("source",),
)
_UNIT_SECONDS = obs.histogram(
    "engine_unit_seconds",
    "Wall-clock seconds to obtain one unit summary (compute or cache hit).",
)
_UNIT_RETRIES = obs.counter(
    "engine_unit_retries_total",
    "Execution attempts beyond each unit's first, across all units.",
)


def record_unit_metrics(unit_trace: "UnitTrace") -> None:
    """Re-express one unit's telemetry on the metrics registry."""
    if not _obs_state.enabled:
        return
    _UNITS_TOTAL.labels(source=unit_trace.source).inc()
    _UNIT_SECONDS.observe(unit_trace.wall_s)
    if unit_trace.retries:
        _UNIT_RETRIES.inc(unit_trace.retries)


@dataclass(frozen=True)
class UnitTrace:
    """Telemetry for one work unit of one campaign run.

    Attributes:
        index: the unit's plan-order position within its campaign call.
        serial / chip / bank / subarray: the unit's identity.
        source: one of :data:`UNIT_SOURCES`.
        wall_s: wall-clock seconds spent obtaining the summary — worker
            execution time for computed units, lookup time for cache hits.
        attempts: execution attempts made (0 for cache hits).
        worker: pid of the process that produced the summary (``None``
            for skipped units).
        error: last failure message, for skipped (and retried) units.
        executor: how the unit was computed: ``threads`` (the engine's
            pool) or ``serial`` (in-process); ``None`` for cache hits,
            skipped units, and traces recorded before the field existed.
    """

    index: int
    serial: str
    chip: int
    bank: int
    subarray: int
    source: str
    wall_s: float
    attempts: int = 0
    worker: int | None = None
    error: str | None = None
    executor: str | None = None

    @property
    def retries(self) -> int:
        """Attempts beyond the first (0 for cache hits and clean runs)."""
        return max(0, self.attempts - 1)

    def to_json(self) -> str:
        """One JSONL line for this unit."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def _percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile; ``None`` for an empty sample.

    ``None`` (JSON ``null``) rather than NaN: ``json.dumps`` happily emits
    bare ``NaN`` tokens, which are not valid JSON and break downstream
    parsers of trace summaries.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


@dataclass
class RunTrace:
    """Accumulates per-unit telemetry, optionally streaming JSONL.

    Args:
        path: optional JSONL destination.  Records are appended as they
            arrive (one line per unit), so a crashed campaign still
            leaves every completed unit on disk.  ``None`` keeps the
            trace purely in memory.
    """

    path: str | Path | None = None
    records: list[UnitTrace] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)
    _handle: object = field(default=None, repr=False, compare=False)

    def record(self, unit_trace: UnitTrace) -> None:
        """Append one unit's telemetry (and stream it when configured)."""
        self.records.append(unit_trace)
        self._write_line(unit_trace.to_json())

    def note_decision(self, kind: str, detail: str) -> None:
        """Record an engine-level decision (e.g. a serial fallback).

        Decisions are execution-strategy choices the engine made on the
        operator's behalf; they surface in :meth:`summary` and stream as
        ``{"meta": {"decision": ...}}`` lines (skipped by `load_trace`,
        readable via `trace_meta`).
        """
        decision = {"kind": kind, "detail": detail}
        self.decisions.append(decision)
        self._write_line(json.dumps({"meta": {"decision": decision}}))

    def _write_line(self, line: str) -> None:
        if self.path is None:
            return
        if self._handle is None:
            import repro

            self._handle = open(self.path, "a", encoding="utf-8")
            # Meta header: stamp the producing version so a trace file
            # is self-describing; `load_trace` skips meta lines.
            self._handle.write(
                json.dumps({"meta": {"repro_version": repro.__version__}})
                + "\n"
            )
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the JSONL stream (safe to call repeatedly)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunTrace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate statistics over every recorded unit.

        Always JSON-safe: an empty (or all-skipped) trace yields ``None``
        percentiles and zero ratios — never NaN, never a zero division.
        Latency percentiles are computed over *measured* units (cache hits
        and computes); skipped units contribute no wall-time sample.

        Cache hits (microseconds) and computed units (seconds) live in
        wildly different latency regimes, so the combined ``wall_p50_s``
        / ``wall_p95_s`` (kept for backward compatibility) flip between
        regimes with the hit ratio and mislead on mixed runs.  The
        ``computed_wall_*`` / ``cache_wall_*`` keys report each
        population separately — read those first.
        """
        measured = [
            r for r in self.records
            if r.source != "skipped" and math.isfinite(r.wall_s)
        ]
        walls = [r.wall_s for r in measured]
        computed_walls = [r.wall_s for r in measured if r.source == "computed"]
        cache_walls = [
            r.wall_s for r in measured if r.source in ("memory", "disk")
        ]
        computed = sum(1 for r in self.records if r.source == "computed")
        memory = sum(1 for r in self.records if r.source == "memory")
        disk = sum(1 for r in self.records if r.source == "disk")
        skipped = sum(1 for r in self.records if r.source == "skipped")
        retried = sum(1 for r in self.records if r.retries > 0)
        units = len(self.records)
        return {
            "units": units,
            "computed": computed,
            "memory_hits": memory,
            "disk_hits": disk,
            "skipped": skipped,
            "units_retried": retried,
            "total_attempts": sum(r.attempts for r in self.records),
            "cache_hit_ratio": (memory + disk) / units if units else 0.0,
            "wall_p50_s": _percentile(walls, 50.0),
            "wall_p95_s": _percentile(walls, 95.0),
            "computed_wall_p50_s": _percentile(computed_walls, 50.0),
            "computed_wall_p95_s": _percentile(computed_walls, 95.0),
            "cache_wall_p50_s": _percentile(cache_walls, 50.0),
            "cache_wall_p95_s": _percentile(cache_walls, 95.0),
            "total_wall_s": sum(walls),
            "decisions": list(self.decisions),
        }

    def summary_table(self) -> str:
        """Human-readable end-of-run summary (the `--trace` footer)."""
        s = self.summary()

        def _ms(value: float | None) -> str:
            return "n/a" if value is None else f"{value * 1e3:.2f} ms"

        lines = [
            "run trace summary:",
            f"  units: {s['units']} ({s['computed']} computed, "
            f"{s['memory_hits']} memory hits, {s['disk_hits']} disk hits, "
            f"{s['skipped']} skipped)",
            f"  cache hit ratio: {s['cache_hit_ratio']:.1%}",
            f"  units retried: {s['units_retried']} "
            f"({s['total_attempts']} total attempts)",
            f"  unit latency: p50 {_ms(s['wall_p50_s'])}, "
            f"p95 {_ms(s['wall_p95_s'])}",
            f"  computed latency: p50 {_ms(s['computed_wall_p50_s'])}, "
            f"p95 {_ms(s['computed_wall_p95_s'])}",
            f"  cache-hit latency: p50 {_ms(s['cache_wall_p50_s'])}, "
            f"p95 {_ms(s['cache_wall_p95_s'])}",
            f"  total unit wall time: {s['total_wall_s']:.3f} s",
        ]
        for decision in s["decisions"]:
            lines.append(f"  decision [{decision['kind']}]: {decision['detail']}")
        return "\n".join(lines)


def load_trace(path: str | Path) -> list[UnitTrace]:
    """Read a JSONL trace file back into :class:`UnitTrace` records.

    Meta header lines (``{"meta": {...}}``) are skipped; use
    :func:`trace_meta` to read them.
    """
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            payload = json.loads(line)
            if "meta" not in payload:
                records.append(UnitTrace(**payload))
    return records


def trace_meta(path: str | Path) -> dict:
    """Merged meta headers of a JSONL trace (e.g. ``repro_version``)."""
    meta: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            payload = json.loads(line)
            if "meta" in payload:
                meta.update(payload["meta"])
    return meta
