"""Wire protocol for the characterization service.

Requests are plain JSON bodies; this module owns their validation, their
canonical (content-addressed) identity, and the JSON serialization of the
results they produce.  Both sides of the service speak through it: the
server parses and validates with ``*Request.from_json``, and the bundled
client (`repro.serve.client`) builds bodies with ``*Request.to_json`` —
so a request's coalescing key is derived from exactly the fields a client
can set.

Identity: :meth:`CharacterizeRequest.cache_key` /
:meth:`RiskRequest.cache_key` reuse `repro.core.cache.content_key` (the
same digest primitive that addresses engine outcomes), hashing every
request field.  Two requests with equal keys are *the same computation*
and the scheduler coalesces them onto one in-flight future.

Routing: :meth:`batch_key` is the coarser grouping of requests that share
an execution context (kind, geometry, temperature).  The fleet front door
(`repro.serve.fleet`) routes on it, so the requests of one condition
reach one worker.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.chip.catalog import get_module
from repro.chip.geometry import BankGeometry
from repro.core.analytic import GUARDBAND_ROWS
from repro.core.cache import content_key
from repro.core.campaign import CampaignScale, SubarrayRecord
from repro.core.config import WORST_CASE, DisturbConfig
from repro.core.risk import RefreshWindowRisk
from repro.fleet.scenario import SCENARIO_NAMES, FleetSpec
from repro.sim.memsys.topology import MAX_CHANNELS, MAX_RANKS

#: Stamped into every request key; bump when request semantics change so
#: stale coalescing identities can never alias new ones.
PROTOCOL_VERSION = 1

#: Trace-propagation header names.  The transport lower-cases incoming
#: header names, so readers use the lower-cased forms; the canonical
#: ``X-Request-Id`` spelling is what responses echo back.
TRACEPARENT_HEADER = "traceparent"
REQUEST_ID_HEADER = "x-request-id"
REQUEST_ID_RESPONSE_HEADER = "X-Request-Id"

#: Validation bounds: generous for real use, tight enough that one JSON
#: body cannot ask the service to instantiate absurd silicon.
MAX_SUBARRAYS = 64
MAX_ROWS = 4096
MAX_COLUMNS = 8192
MAX_INTERVALS = 32
MAX_INTERVAL_S = 128.0

#: Fleet-campaign bounds: a campaign streams, so the module ceiling is
#: about wall-clock honesty (10M instances is hours, not memory).
MAX_FLEET_MODULES = 10_000_000
MAX_FLEET_SEED = 2**63 - 1
MAX_DIE_SIGMA = 2.0


class ProtocolError(ValueError):
    """A malformed or out-of-bounds request (HTTP 400)."""


def _require_int(payload: dict, name: str, default: int, maximum: int) -> int:
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"{name} must be an integer")
    if not 1 <= value <= maximum:
        raise ProtocolError(f"{name} must be in [1, {maximum}], got {value}")
    return value


def _require_float(
    payload: dict, name: str, default: float, low: float, high: float
) -> float:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name} must be a number")
    value = float(value)
    if not math.isfinite(value) or not low <= value <= high:
        raise ProtocolError(f"{name} must be in [{low:g}, {high:g}], got {value!r}")
    return value


def _require_serial(payload: dict) -> str:
    serial = payload.get("serial")
    if not isinstance(serial, str):
        raise ProtocolError("serial must be a string")
    try:
        get_module(serial)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return serial


def _require_intervals(payload: dict) -> tuple[float, ...]:
    raw = payload.get("intervals", [0.512, 16.0])
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ProtocolError("intervals must be a non-empty array of seconds")
    if len(raw) > MAX_INTERVALS:
        raise ProtocolError(f"at most {MAX_INTERVALS} intervals per request")
    intervals = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError("intervals must be numbers (seconds)")
        value = float(value)
        if not math.isfinite(value) or not 0.0 < value <= MAX_INTERVAL_S:
            raise ProtocolError(f"intervals must be in (0, {MAX_INTERVAL_S:g}] seconds")
        intervals.append(value)
    return tuple(intervals)


def _check_extra_fields(payload: dict, allowed: frozenset[str]) -> None:
    extra = set(payload) - set(allowed)
    if extra:
        raise ProtocolError(
            f"unknown field(s): {', '.join(sorted(extra))}; "
            f"expected a subset of {', '.join(sorted(allowed))}"
        )


@dataclass(frozen=True)
class CharacterizeRequest:
    """``POST /v1/characterize``: per-subarray worst-case characterization.

    Defaults mirror ``repro characterize``: the WORST_CASE condition at
    ``temperature_c`` over a ``subarrays x rows x columns`` bank, metrics
    reported at each refresh interval in ``intervals``.
    """

    FIELDS = frozenset(
        ("serial", "subarrays", "rows", "columns", "intervals", "temperature_c")
    )

    serial: str
    subarrays: int = 4
    rows: int = 256
    columns: int = 512
    intervals: tuple[float, ...] = (0.512, 16.0)
    temperature_c: float = 85.0

    @classmethod
    def from_json(cls, payload: object) -> "CharacterizeRequest":
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        _check_extra_fields(payload, cls.FIELDS)
        request = cls(
            serial=_require_serial(payload),
            subarrays=_require_int(payload, "subarrays", 4, MAX_SUBARRAYS),
            rows=_require_int(payload, "rows", 256, MAX_ROWS),
            columns=_require_int(payload, "columns", 512, MAX_COLUMNS),
            intervals=_require_intervals(payload),
            temperature_c=_require_float(payload, "temperature_c", 85.0, -40.0, 150.0),
        )
        try:
            request.scale  # geometry invariants (minimum rows, column rules)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return request

    def to_json(self) -> dict:
        return {
            "serial": self.serial,
            "subarrays": self.subarrays,
            "rows": self.rows,
            "columns": self.columns,
            "intervals": list(self.intervals),
            "temperature_c": self.temperature_c,
        }

    @property
    def scale(self) -> CampaignScale:
        return CampaignScale(
            BankGeometry(
                subarrays=self.subarrays,
                rows_per_subarray=self.rows,
                columns=self.columns,
            )
        )

    @property
    def config(self) -> DisturbConfig:
        return WORST_CASE.at_temperature(self.temperature_c)

    def cache_key(self) -> str:
        """Coalescing identity: equal keys are the same computation."""
        return content_key(
            (
                "serve.characterize",
                PROTOCOL_VERSION,
                self.serial,
                self.subarrays,
                self.rows,
                self.columns,
                self.intervals,
                self.temperature_c,
            )
        )

    def batch_key(self) -> tuple:
        """Execution-context grouping (same scale, same condition): the
        fleet front door's routing key."""
        return (
            "characterize",
            self.subarrays,
            self.rows,
            self.columns,
            self.temperature_c,
        )


@dataclass(frozen=True)
class RiskRequest:
    """``POST /v1/risk``: refresh-window vulnerability of one module.

    Defaults mirror ``repro risk`` (64 ms window at 85C on the CLI's
    4 x 256 x 512 geometry).
    """

    FIELDS = frozenset(
        ("serial", "window_ms", "temperature_c", "subarrays", "rows", "columns")
    )

    serial: str
    window_ms: float = 64.0
    temperature_c: float = 85.0
    subarrays: int = 4
    rows: int = 256
    columns: int = 512

    @classmethod
    def from_json(cls, payload: object) -> "RiskRequest":
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        _check_extra_fields(payload, cls.FIELDS)
        request = cls(
            serial=_require_serial(payload),
            window_ms=_require_float(payload, "window_ms", 64.0, 0.001, 60_000.0),
            temperature_c=_require_float(payload, "temperature_c", 85.0, -40.0, 150.0),
            subarrays=_require_int(payload, "subarrays", 4, MAX_SUBARRAYS),
            rows=_require_int(payload, "rows", 256, MAX_ROWS),
            columns=_require_int(payload, "columns", 512, MAX_COLUMNS),
        )
        try:
            request.scale
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return request

    def to_json(self) -> dict:
        return {
            "serial": self.serial,
            "window_ms": self.window_ms,
            "temperature_c": self.temperature_c,
            "subarrays": self.subarrays,
            "rows": self.rows,
            "columns": self.columns,
        }

    @property
    def scale(self) -> CampaignScale:
        return CampaignScale(
            BankGeometry(
                subarrays=self.subarrays,
                rows_per_subarray=self.rows,
                columns=self.columns,
            )
        )

    def cache_key(self) -> str:
        return content_key(
            (
                "serve.risk",
                PROTOCOL_VERSION,
                self.serial,
                self.window_ms,
                self.temperature_c,
                self.subarrays,
                self.rows,
                self.columns,
            )
        )

    def batch_key(self) -> tuple:
        return (
            "risk",
            self.subarrays,
            self.rows,
            self.columns,
            self.temperature_c,
        )


def _require_bounded_int(
    payload: dict, name: str, default: int, low: int, high: int
) -> int:
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"{name} must be an integer")
    if not low <= value <= high:
        raise ProtocolError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def _require_serials(payload: dict) -> tuple[str, ...]:
    raw = payload.get("serials", [])
    if not isinstance(raw, (list, tuple)):
        raise ProtocolError("serials must be an array of catalog serials")
    serials = []
    for serial in raw:
        if not isinstance(serial, str):
            raise ProtocolError("serials must be strings")
        try:
            get_module(serial)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        serials.append(serial)
    if len(set(serials)) != len(serials):
        raise ProtocolError("serials must not repeat")
    return tuple(serials)


@dataclass(frozen=True)
class FleetRiskRequest:
    """``POST /v1/fleet-risk``: an async fleet-scale risk campaign.

    Submits a seeded campaign over ``modules`` sampled instances
    (`repro.fleet.FleetSpec` semantics: instance ``i`` depends only on
    ``(seed, i)``, so ``offset`` shards a larger campaign exactly).
    The response carries a job id; poll ``GET /v1/fleet-risk/<id>`` for
    streamed percentile snapshots until ``status`` is ``done``.

    ``channels``/``ranks`` sweep the deployed memory-system topology
    (`repro.sim.memsys` axes): attacker bandwidth dilutes over
    ``channels * ranks`` devices, so risk is evaluated at the effective
    per-device exposure interval (see `FleetSpec.topology_dilution`).
    """

    FIELDS = frozenset(
        (
            "modules",
            "seed",
            "offset",
            "serials",
            "scenario",
            "temperature_c",
            "intervals",
            "rows",
            "columns",
            "sigma_retention_die",
            "sigma_kappa_die",
            "channels",
            "ranks",
        )
    )

    modules: int
    seed: int = 0
    offset: int = 0
    serials: tuple[str, ...] = ()
    scenario: str = "worst-case"
    temperature_c: float = 85.0
    intervals: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    rows: int = 64
    columns: int = 256
    sigma_retention_die: float = 0.25
    sigma_kappa_die: float = 0.35
    channels: int = 1
    ranks: int = 1

    @classmethod
    def from_json(cls, payload: object) -> "FleetRiskRequest":
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        _check_extra_fields(payload, cls.FIELDS)
        scenario = payload.get("scenario", "worst-case")
        if not isinstance(scenario, str) or scenario not in SCENARIO_NAMES:
            raise ProtocolError(f"scenario must be one of {', '.join(SCENARIO_NAMES)}")
        request = cls(
            modules=_require_int(payload, "modules", 0, MAX_FLEET_MODULES),
            seed=_require_bounded_int(payload, "seed", 0, 0, MAX_FLEET_SEED),
            offset=_require_bounded_int(payload, "offset", 0, 0, MAX_FLEET_MODULES),
            serials=_require_serials(payload),
            scenario=scenario,
            temperature_c=_require_float(payload, "temperature_c", 85.0, -40.0, 150.0),
            intervals=_require_intervals(payload),
            rows=_require_bounded_int(
                payload, "rows", 64, 2 * GUARDBAND_ROWS + 2, MAX_ROWS
            ),
            columns=_require_bounded_int(payload, "columns", 256, 8, MAX_COLUMNS),
            sigma_retention_die=_require_float(
                payload, "sigma_retention_die", 0.25, 0.0, MAX_DIE_SIGMA
            ),
            sigma_kappa_die=_require_float(
                payload, "sigma_kappa_die", 0.35, 0.0, MAX_DIE_SIGMA
            ),
            channels=_require_bounded_int(payload, "channels", 1, 1, MAX_CHANNELS),
            ranks=_require_bounded_int(payload, "ranks", 1, 1, MAX_RANKS),
        )
        try:
            request.spec  # FleetSpec invariants (sorted intervals, ...)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return request

    def to_json(self) -> dict:
        return {
            "modules": self.modules,
            "seed": self.seed,
            "offset": self.offset,
            "serials": list(self.serials),
            "scenario": self.scenario,
            "temperature_c": self.temperature_c,
            "intervals": list(self.intervals),
            "rows": self.rows,
            "columns": self.columns,
            "sigma_retention_die": self.sigma_retention_die,
            "sigma_kappa_die": self.sigma_kappa_die,
            "channels": self.channels,
            "ranks": self.ranks,
        }

    @property
    def spec(self) -> FleetSpec:
        return FleetSpec(
            modules=self.modules,
            seed=self.seed,
            offset=self.offset,
            serials=self.serials,
            scenario=self.scenario,
            temperature_c=self.temperature_c,
            intervals=self.intervals,
            rows=self.rows,
            columns=self.columns,
            sigma_retention_die=self.sigma_retention_die,
            sigma_kappa_die=self.sigma_kappa_die,
            channels=self.channels,
            ranks=self.ranks,
        )

    def shard(self, offset: int, modules: int) -> "FleetRiskRequest":
        """A sub-range of this campaign (instance identity unchanged)."""
        return dataclasses.replace(self, offset=offset, modules=modules)

    def cache_key(self) -> str:
        """Campaign identity — the fleet-level job id derives from it."""
        return content_key(
            (
                "serve.fleet-risk",
                PROTOCOL_VERSION,
                self.modules,
                self.seed,
                self.offset,
                self.serials,
                self.scenario,
                self.temperature_c,
                self.intervals,
                self.rows,
                self.columns,
                self.sigma_retention_die,
                self.sigma_kappa_die,
                self.channels,
                self.ranks,
            )
        )


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------

def _finite_or_none(value: float) -> float | None:
    """JSON has no Infinity/NaN: non-finite metrics serialize as null."""
    return value if math.isfinite(value) else None


def _interval_map(values: dict[float, int]) -> dict[str, int]:
    """Interval-keyed metric map with stable string keys (``repr(float)``)."""
    return {repr(float(t)): int(n) for t, n in values.items()}


def record_to_json(record: SubarrayRecord) -> dict:
    """One campaign record as a JSON-able dict (the response row shape)."""
    return {
        "serial": record.serial,
        "manufacturer": record.manufacturer,
        "die_label": record.die_label,
        "chip": record.chip,
        "bank": record.bank,
        "subarray": record.subarray,
        "rows": record.rows,
        "cells": record.cells,
        "status": record.status,
        "time_to_first": _finite_or_none(record.time_to_first),
        "cd_flips": _interval_map(record.cd_flips),
        "cd_rows": _interval_map(record.cd_rows),
        "ret_flips": _interval_map(record.ret_flips),
        "ret_rows": _interval_map(record.ret_rows),
    }


def risk_to_json(risk: RefreshWindowRisk) -> dict:
    """One refresh-window risk result as a JSON-able dict."""
    return {
        "serial": risk.serial,
        "window_s": risk.window,
        "temperature_c": risk.temperature_c,
        "at_risk": risk.at_risk,
        "vulnerable_cells": risk.vulnerable_cells,
        "vulnerable_rows": risk.vulnerable_rows,
        "time_to_first": _finite_or_none(risk.time_to_first),
        "closest_victim_rows": risk.closest_victim_rows,
        "farthest_victim_rows": risk.farthest_victim_rows,
    }
