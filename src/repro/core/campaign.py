"""Characterization campaigns: per-figure experiment drivers.

A campaign runs one test condition over many (module, chip, bank, subarray)
targets on the characterization engine (`repro.core.engine`) and returns
compact per-subarray records carrying the paper's three metrics at the
requested refresh intervals.  Simulation scale (how much silicon to
instantiate) is explicit via :class:`CampaignScale`; populations are
deterministic, so any scale is a strict subset of a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.chip.catalog import get_module
from repro.chip.geometry import DEFAULT_BANK_GEOMETRY, BankGeometry
from repro.core.config import DisturbConfig
from repro.obs import state as _obs_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> campaign)
    from repro.core.cache import OutcomeCache


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


# Fed by the engine's record assembly (`repro.core.engine.record_from_summary`).
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


@dataclass
class Campaign:
    """Campaign driver bound to a scale: every pass runs the
    characterization engine (`repro.core.engine`).

    ``workers``, ``cache``, ``retries``, ``timeout`` and
    ``failure_policy`` configure that engine; the defaults run every unit
    in-process with no cache.  Records are bit-identical for any setting,
    because each unit re-derives the same deterministic population.
    """

    scale: CampaignScale = STANDARD_SCALE
    workers: int = 0
    cache: "OutcomeCache | None" = None
    retries: int = 0
    timeout: float | None = None
    failure_policy: str = "raise"

    def engine(self):
        """The `CharacterizationEngine` this campaign's settings describe;
        every pass of the campaign runs on a fresh one."""
        from repro.core.engine import CharacterizationEngine

        return CharacterizationEngine(
            scale=self.scale,
            workers=self.workers,
            cache=self.cache,
            retries=self.retries,
            timeout=self.timeout,
            failure_policy=self.failure_policy,
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
        return self.engine().characterize_module(serial, config, intervals)

    def characterize_modules(
        self,
        serials: tuple[str, ...],
        config: DisturbConfig,
        intervals: tuple[float, ...] = (),
    ) -> list[SubarrayRecord]:
        """Run `characterize_module` over several modules."""
        return self.engine().characterize_modules(serials, config, intervals)
