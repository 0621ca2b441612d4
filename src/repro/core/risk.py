"""Refresh-window risk analysis: the security-facing view of ColumnDisturb.

Obs 3 is the paper's alarm bell: some *existing* chips flip bits within the
nominal 64 ms refresh window under nominal conditions, i.e. standard
periodic refresh no longer guarantees integrity against a column-based
aggressor.  This module quantifies that risk for any module:

* `refresh_window_risk` — cells/rows that a worst-case aggressor can flip
  within one refresh window, with victim-to-aggressor distances (the paper
  reports the closest/farthest sub-window victims at 374/446 rows);
* `find_worst_case` — searches access-pattern parameters (tAggOn, data
  pattern) for the condition that minimizes the time to the first bitflip,
  confirming the paper's worst case (all-0 aggressor, long tAggOn);
* `project_scaling` — extrapolates the time-to-first-bitflip floor across
  future technology scales (the §6 "this will get worse" implication).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.cells import CellPopulation
from repro.chip.module import ModuleSpec
from repro.chip.timing import T_AGG_ON_VALUES, TimingParameters
from repro.core.analytic import SubarrayRole, disturb_outcome
from repro.core.campaign import CampaignScale
from repro.core.config import DisturbConfig
from repro.core.engine import plan_units, unit_outcome


@dataclass(frozen=True)
class RefreshWindowRisk:
    """Vulnerability of one module within one refresh window.

    Attributes:
        serial: module identity.
        window: refresh window analyzed (seconds).
        temperature_c: operating temperature.
        vulnerable_cells: cells a worst-case single aggressor can flip
            within the window (across tested subarrays; retention-weak
            cells excluded, so these are pure ColumnDisturb escapes).
        vulnerable_rows: rows containing at least one such cell.
        time_to_first: fastest bitflip across tested subarrays.
        closest_victim_rows: distance (rows) from the aggressor to the
            nearest sub-window victim, ``None`` if no victim.
        farthest_victim_rows: distance to the farthest sub-window victim.
    """

    serial: str
    window: float
    temperature_c: float
    vulnerable_cells: int
    vulnerable_rows: int
    time_to_first: float
    closest_victim_rows: int | None
    farthest_victim_rows: int | None

    @property
    def at_risk(self) -> bool:
        """Whether periodic refresh at this window fails to protect."""
        return self.vulnerable_cells > 0


def refresh_window_risk(
    serial: str,
    scale: CampaignScale,
    window: float = 0.064,
    temperature_c: float = 85.0,
) -> RefreshWindowRisk:
    """Analyze every in-scale subarray of module ``serial`` for sub-window
    ColumnDisturb bitflips under the worst-case aggressor, placed in the
    middle row (``rows // 2``) of each tested subarray.

    Each subarray is one engine work unit, so its cells are the same
    population a campaign at ``scale`` characterizes.
    """
    config = DisturbConfig().at_temperature(temperature_c)
    cells = 0
    rows = 0
    best_time = float("inf")
    closest: int | None = None
    farthest: int | None = None
    for unit in plan_units((serial,), config, scale):
        _, outcome = unit_outcome(unit)
        flips = outcome._cd_flips(window)
        cells += int(flips.sum())
        row_mask = flips.any(axis=1)
        rows += int(row_mask.sum())
        best_time = min(best_time, float(outcome.cd_times.min()))
        victim_rows = np.nonzero(row_mask)[0]
        if victim_rows.size:
            distances = np.abs(victim_rows - unit.aggressor_local_row())
            near, far = int(distances.min()), int(distances.max())
            closest = near if closest is None else min(closest, near)
            farthest = far if farthest is None else max(farthest, far)
    return RefreshWindowRisk(
        serial=serial,
        window=window,
        temperature_c=temperature_c,
        vulnerable_cells=cells,
        vulnerable_rows=rows,
        time_to_first=best_time,
        closest_victim_rows=closest,
        farthest_victim_rows=farthest,
    )


@dataclass(frozen=True)
class WorstCaseSearchResult:
    """Outcome of the worst-case access-pattern search."""

    config: DisturbConfig
    time_to_first: float
    ranking: tuple  # ((t_agg_on, pattern, time), ...) sorted best-first


def find_worst_case(
    population: CellPopulation,
    timing: TimingParameters,
    temperature_c: float = 85.0,
    t_agg_on_values: tuple = T_AGG_ON_VALUES,
    aggressor_patterns: tuple = (0x00, 0xAA, 0xFF),
) -> WorstCaseSearchResult:
    """Search (tAggOn x aggressor pattern) for the fastest first bitflip.

    The paper determines the most-vulnerable condition "through extensive
    experiments" (§4.1); this automates that sweep for any die.
    """
    trials = []
    for t_agg_on in t_agg_on_values:
        for pattern in aggressor_patterns:
            config = DisturbConfig(
                aggressor_pattern=pattern,
                victim_pattern=0xFF,
                t_agg_on=t_agg_on,
                temperature_c=temperature_c,
            )
            outcome = disturb_outcome(
                population, config, timing, SubarrayRole.AGGRESSOR,
                aggressor_local_row=population.rows // 2,
            )
            trials.append((config, float(outcome.cd_times.min())))
    trials.sort(key=lambda item: item[1])
    best_config, best_time = trials[0]
    ranking = tuple(
        (config.t_agg_on, config.aggressor_pattern, time)
        for config, time in trials
    )
    return WorstCaseSearchResult(
        config=best_config, time_to_first=best_time, ranking=ranking
    )


def project_scaling(
    spec: ModuleSpec,
    scale_factors: tuple = (1.0, 1.5, 2.0, 3.0, 5.0),
    temperature_c: float = 85.0,
    window: float = 0.064,
) -> list[tuple[float, float, bool]]:
    """Project the time-to-first-bitflip floor across future technology
    scales: returns (scale, floor_seconds, inside_refresh_window) tuples.

    Per Obs 2, the coupling susceptibility grows as the node shrinks; each
    factor here models one step of that trend applied on top of the die's
    calibrated scale.
    """
    projections = []
    for factor in scale_factors:
        if factor < 1.0:
            raise ValueError("scale factors must be >= 1")
        profile = spec.profile.with_die_scale(spec.profile.die_scale * factor)
        floor = profile.first_flip_floor(temperature_c)
        projections.append((factor, floor, floor <= window))
    return projections
