"""Characterization campaigns: per-figure experiment drivers.

A campaign runs one test condition over many (module, chip, bank, subarray)
targets using the analytic fast path (`repro.core.analytic`) and returns
compact per-subarray records carrying the paper's three metrics at the
requested refresh intervals.  Simulation scale (how much silicon to
instantiate) is explicit via :class:`CampaignScale`; populations are
deterministic, so any scale is a strict subset of a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.chip.catalog import get_module
from repro.chip.geometry import DEFAULT_BANK_GEOMETRY, BankGeometry
from repro.chip.module import ModuleSpec, SimulatedModule
from repro.core.analytic import SubarrayRole, disturb_outcome
from repro.core.config import SEARCH_INTERVAL, DisturbConfig
from repro.obs import state as _obs_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> campaign)
    from repro.core.cache import OutcomeCache
    from repro.core.telemetry import RunTrace


@dataclass(frozen=True)
class CampaignScale:
    """How much silicon a campaign instantiates per module.

    Attributes:
        geometry: bank geometry.
        chips: chips per module to simulate.
        banks: banks per chip to simulate.
        subarrays: subarrays per bank to test (``None`` = all).
    """

    geometry: BankGeometry
    chips: int = 1
    banks: int = 1
    subarrays: int | None = None

    def subarray_indices(self) -> range:
        count = self.geometry.subarrays
        if self.subarrays is not None:
            count = min(count, self.subarrays)
        return range(count)


#: Paper-matching geometry: 1024-row subarrays (Fig. 2 spans rows 0-3071).
STANDARD_SCALE = CampaignScale(DEFAULT_BANK_GEOMETRY)

#: Half-size sweep scale for multi-condition benches.
REDUCED_SCALE = CampaignScale(BankGeometry(subarrays=4, rows_per_subarray=1024,
                                           columns=2048))

#: Tiny scale for unit tests.
QUICK_SCALE = CampaignScale(BankGeometry(subarrays=4, rows_per_subarray=64,
                                         columns=128))


# Shared between the serial path below and the engine's record assembly
# (`repro.core.engine.record_from_summary`), so both execution paths feed
# the same metric family identically.
_CELLS_FLIPPED = obs.counter(
    "cells_flipped_total",
    "ColumnDisturb bitflips in campaign records, at each record's largest "
    "queried refresh interval.",
    labelnames=("mfr", "density"),
)


def record_cell_flip_metrics(record: "SubarrayRecord") -> None:
    """Re-express one campaign record's flip count on the metrics registry."""
    if not _obs_state.enabled or record.status != "ok" or not record.cd_flips:
        return
    flips = record.cd_flips[max(record.cd_flips)]
    if flips:
        _CELLS_FLIPPED.labels(
            mfr=record.manufacturer,
            density=get_module(record.serial).density,
        ).inc(flips)


@dataclass(frozen=True)
class SubarrayRecord:
    """One tested subarray's metrics under one condition.

    ``cd_*`` metrics are ColumnDisturb results with the paper's filtering
    applied (retention-weak cells and the RowHammer guardband excluded);
    ``ret_*`` are idle-bank retention results on the same cells.

    ``status`` is ``"ok"`` for a measured subarray.  Under the engine's
    ``skip-with-record`` failure policy, a unit that exhausted its retry
    budget yields a ``"skipped"`` record (empty metric maps) in its plan
    slot — an explicit hole rather than a silent one.
    """

    serial: str
    manufacturer: str
    die_label: str
    chip: int
    bank: int
    subarray: int
    rows: int
    cells: int
    time_to_first: float
    cd_flips: dict[float, int]
    cd_rows: dict[float, int]
    ret_flips: dict[float, int]
    ret_rows: dict[float, int]
    status: str = "ok"

    def cd_fraction(self, interval: float) -> float:
        """Fraction of the subarray's cells with ColumnDisturb flips."""
        return self.cd_flips[interval] / self.cells

    def ret_fraction(self, interval: float) -> float:
        """Fraction of the subarray's cells with retention failures."""
        return self.ret_flips[interval] / self.cells


class ModulePool:
    """Cache of instantiated modules so cell populations are sampled once
    per (serial, geometry) across a whole bench run."""

    def __init__(self) -> None:
        self._modules: dict[tuple, SimulatedModule] = {}

    def get(
        self, serial: str, scale: CampaignScale, kernel: str | None = None
    ) -> SimulatedModule:
        key = (serial, scale.geometry, scale.chips, scale.banks, kernel)
        if key not in self._modules:
            self._modules[key] = SimulatedModule(
                get_module(serial),
                geometry=scale.geometry,
                sim_chips=min(scale.chips, get_module(serial).chips),
                sim_banks=scale.banks,
                kernel=kernel,
            )
        return self._modules[key]


@dataclass
class Campaign:
    """Campaign driver bound to a scale and a (reusable) module pool.

    ``workers`` / ``cache`` opt in to the parallel characterization
    engine (`repro.core.engine`), as does any of the robustness/telemetry
    knobs (``retries``, ``timeout``, ``failure_policy``, ``trace``); the
    defaults keep the serial in-process path.  Either way the records
    are bit-identical — the engine re-derives the same deterministic
    populations and computes the same metrics.

    ``kernel`` selects the bank hot-path execution kernel
    (`repro.chip.kernels`) for any `SimulatedModule` the campaign
    instantiates; the analytic record path is kernel-independent.
    """

    scale: CampaignScale = STANDARD_SCALE
    pool: ModulePool = field(default_factory=ModulePool)
    workers: int = 0
    cache: "OutcomeCache | None" = None
    retries: int = 0
    timeout: float | None = None
    failure_policy: str = "raise"
    trace: "RunTrace | None" = None
    kernel: str | None = None

    def _delegate_to_engine(self) -> bool:
        return (
            self.workers > 1
            or self.cache is not None
            or self.trace is not None
            or self.retries > 0
            or self.timeout is not None
            or self.failure_policy != "raise"
        )

    def engine(self):
        """The `CharacterizationEngine` this campaign's settings describe.

        The submission hook for callers (notably `repro.serve`) that plan
        their own work-unit lists but want engine execution configured
        exactly as this campaign would configure it.
        """
        from repro.core.engine import CharacterizationEngine

        return CharacterizationEngine(
            scale=self.scale,
            workers=self.workers,
            cache=self.cache,
            retries=self.retries,
            timeout=self.timeout,
            failure_policy=self.failure_policy,
            trace=self.trace,
        )

    def characterize_module(
        self,
        serial: str,
        config: DisturbConfig,
        intervals: tuple[float, ...],
    ) -> list[SubarrayRecord]:
        """Test every in-scale subarray of one module under ``config``.

        Per the paper's default methodology, the aggressor row is placed in
        the *tested* subarray (at the configured location) and bitflips are
        recorded in that subarray.
        """
        if self._delegate_to_engine():
            return self.engine().characterize_module(
                serial, config, tuple(intervals)
            )
        spec = get_module(serial)
        module = self.pool.get(serial, self.scale, self.kernel)
        records = []
        for chip in range(module.sim_chips):
            for bank_index in range(module.sim_banks):
                bank = module.bank(chip, bank_index)
                for subarray in self.scale.subarray_indices():
                    records.append(
                        self._subarray_record(
                            spec, module, bank, chip, bank_index, subarray,
                            config, intervals,
                        )
                    )
        return records

    def characterize_modules(
        self,
        serials: tuple[str, ...],
        config: DisturbConfig,
        intervals: tuple[float, ...] = (),
    ) -> list[SubarrayRecord]:
        """Run `characterize_module` over several modules."""
        if self._delegate_to_engine():
            return self.engine().characterize_modules(
                tuple(serials), config, tuple(intervals)
            )
        records = []
        for serial in serials:
            records.extend(self.characterize_module(serial, config, intervals))
        return records

    def _subarray_record(
        self,
        spec: ModuleSpec,
        module: SimulatedModule,
        bank,
        chip: int,
        bank_index: int,
        subarray: int,
        config: DisturbConfig,
        intervals: tuple[float, ...],
    ) -> SubarrayRecord:
        geometry = self.scale.geometry
        aggressor_row = config.aggressor_row(geometry, subarray)
        aggressor_local = geometry.row_within_subarray(aggressor_row)
        population = bank.population(subarray)
        outcome = disturb_outcome(
            population,
            config,
            timing=module.timing,
            role=SubarrayRole.AGGRESSOR,
            aggressor_local_row=aggressor_local,
        )
        # One sorted-event sweep answers every requested interval (and the
        # time-to-first metric) instead of one full-array mask per interval.
        outcome.summarize(max((SEARCH_INTERVAL, *intervals)))
        record = SubarrayRecord(
            serial=spec.serial,
            manufacturer=spec.manufacturer,
            die_label=spec.die_label,
            chip=chip,
            bank=bank_index,
            subarray=subarray,
            rows=population.rows,
            cells=population.lambda_int.size,
            time_to_first=outcome.time_to_first_flip(),
            cd_flips={t: outcome.flip_count(t) for t in intervals},
            cd_rows={t: outcome.rows_with_flips(t) for t in intervals},
            ret_flips={t: outcome.retention_flip_count(t) for t in intervals},
            ret_rows={t: outcome.retention_rows_with_flips(t) for t in intervals},
        )
        if _obs_state.enabled:
            record_cell_flip_metrics(record)
        return record
