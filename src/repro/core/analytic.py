"""Analytic fast path of the characterization methodology.

Characterizing "all subarrays in all banks of all modules" with the
command-level bender would re-run millions of activations per data point.
Because the device model is deterministic given a cell population and a
bitline waveform, every §3.2 experiment reduces to a closed form: per-cell
total leakage rates under the configured waveform, hence per-cell
times-to-flip.  This module computes those, applies the paper's two
filtering rules (retention-failing cells; a +/-8-row RowHammer/RowPress
guardband around the aggressor), and exposes the three vulnerability
metrics.

The command-level path (`repro.core.bisection`, driving `repro.bender`)
measures the same quantities operationally; the test suite cross-validates
the two on small geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.chip.cells import CellPopulation
from repro.chip.datapattern import expand_pattern
from repro.chip.timing import DDR4, TimingParameters
from repro.core.config import SEARCH_INTERVAL, DisturbConfig
from repro.physics.constants import V_PRECHARGE
from repro.physics.coupling import times_to_flip, total_leakage_rates

#: Default event horizon of `SubarrayOutcome.summarize`: interval metrics can
#: be answered from a summary for any interval up to its horizon.  128 s is
#: 8x the longest interval the paper tests (16 s, §4.3).
DEFAULT_SUMMARY_HORIZON = 128.0

#: RowHammer/RowPress guardband: rows excluded around the aggressor (§3.2).
GUARDBAND_ROWS = 8


class SubarrayRole(Enum):
    """How a subarray relates to the aggressor activation."""

    AGGRESSOR = "aggressor"
    UPPER_NEIGHBOUR = "upper"  # subarray index = aggressor - 1
    LOWER_NEIGHBOUR = "lower"  # subarray index = aggressor + 1
    IDLE = "idle"  # not sharing bitlines: retention-like


def aggressor_column_multipliers(
    profile,
    aggressor_bits: np.ndarray,
    t_agg_on: float,
    t_rp: float,
    second_bits: np.ndarray | None = None,
) -> np.ndarray:
    """Per-column mean coupling multiplier inside the aggressor subarray.

    Phase integration over one access-pattern period: driven at the
    aggressor's column value for ``t_agg_on``, precharged for ``t_rp`` (and,
    for the two-aggressor pattern, driven at the second aggressor's value
    for another ``t_agg_on``).
    """
    cm_pre = profile.coupling_multiplier(V_PRECHARGE)
    cm_vdd = profile.coupling_multiplier(1.0)
    cm_gnd = profile.coupling_multiplier(0.0)
    driven = np.where(aggressor_bits == 1, cm_vdd, cm_gnd)
    if second_bits is None:
        period = t_agg_on + t_rp
        return (driven * t_agg_on + cm_pre * t_rp) / period
    second = np.where(second_bits == 1, cm_vdd, cm_gnd)
    period = 2 * (t_agg_on + t_rp)
    return ((driven + second) * t_agg_on + cm_pre * 2 * t_rp) / period


def neighbour_column_multipliers(
    profile,
    aggressor_bits: np.ndarray,
    t_agg_on: float,
    t_rp: float,
    role: SubarrayRole,
    second_bits: np.ndarray | None = None,
) -> np.ndarray:
    """Per-column multipliers in a neighbouring subarray.

    Only the parity-matched half of the neighbour's columns is shared with
    the aggressor subarray (open-bitline architecture); the other half stays
    precharged, i.e. retention-equivalent.
    """
    columns = len(aggressor_bits)
    cm_pre = profile.coupling_multiplier(V_PRECHARGE)
    multipliers = np.full(columns, cm_pre, dtype=np.float64)
    if role is SubarrayRole.UPPER_NEIGHBOUR:
        # Neighbour's ODD columns mirror aggressor's EVEN columns.
        source = aggressor_bits[0::2]
        second_source = None if second_bits is None else second_bits[0::2]
        target = slice(1, None, 2)
    elif role is SubarrayRole.LOWER_NEIGHBOUR:
        # Neighbour's EVEN columns mirror aggressor's ODD columns.
        source = aggressor_bits[1::2]
        second_source = None if second_bits is None else second_bits[1::2]
        target = slice(0, columns - 1, 2)
    else:
        raise ValueError(f"{role} is not a neighbour role")
    multipliers[target] = aggressor_column_multipliers(
        profile, source, t_agg_on, t_rp, second_bits=second_source
    )
    return multipliers


@dataclass(frozen=True)
class OutcomeSummary:
    """Compact event-list form of a `SubarrayOutcome`.

    A cell contributes a ColumnDisturb bitflip at refresh interval ``t``
    exactly when ``cd_time <= t < retention_worst`` (§3.2 filtering), i.e.
    during one half-open time interval per cell.  Keeping only the interval
    *endpoints* of cells whose interval starts within ``horizon`` — sorted —
    turns every count metric into two binary searches:

        count(t) = #{starts <= t} - #{ends <= t}

    Row-level metrics store the per-row unions of those cell intervals the
    same way, and retention metrics (monotone in ``t``) store plain sorted
    failure times.  The arrays are small (weak cells only), picklable, and
    answer *any* interval ``<= horizon`` bit-identically to the full
    per-cell masks — which makes this the unit the campaign engine returns
    from its pool threads and the outcome cache stores on disk.

    Attributes:
        rows: rows in the summarized subarray.
        cells: cells in the summarized subarray.
        horizon: largest queryable interval (seconds).
        time_to_first: the subarray's time-to-first-bitflip metric.
        cd_cell_starts / cd_cell_ends: sorted per-cell interval endpoints.
        cd_row_starts / cd_row_ends: sorted per-row merged-union endpoints.
        ret_cell_times: sorted per-cell nominal retention-failure times.
        ret_row_times: sorted per-row first retention-failure times.
    """

    rows: int
    cells: int
    horizon: float
    time_to_first: float
    cd_cell_starts: np.ndarray
    cd_cell_ends: np.ndarray
    cd_row_starts: np.ndarray
    cd_row_ends: np.ndarray
    ret_cell_times: np.ndarray
    ret_row_times: np.ndarray

    def _check(self, interval: float) -> None:
        if interval > self.horizon:
            raise ValueError(
                f"interval {interval} exceeds the summary horizon "
                f"{self.horizon}; rebuild the summary with a larger horizon"
            )

    @staticmethod
    def _count(starts: np.ndarray, ends: np.ndarray, interval: float) -> int:
        inside = np.searchsorted(starts, interval, side="right")
        left = np.searchsorted(ends, interval, side="right")
        return int(inside - left)

    def flip_count(self, interval: float) -> int:
        """Number of ColumnDisturb bitflips after ``interval`` seconds."""
        self._check(interval)
        return self._count(self.cd_cell_starts, self.cd_cell_ends, interval)

    def rows_with_flips(self, interval: float) -> int:
        """Blast radius: rows with at least one ColumnDisturb bitflip."""
        self._check(interval)
        return self._count(self.cd_row_starts, self.cd_row_ends, interval)

    def retention_flip_count(self, interval: float) -> int:
        """Retention failures (nominal leakage) within ``interval``."""
        self._check(interval)
        return int(np.searchsorted(self.ret_cell_times, interval, side="right"))

    def retention_rows_with_flips(self, interval: float) -> int:
        """Rows with at least one retention failure within ``interval``."""
        self._check(interval)
        return int(np.searchsorted(self.ret_row_times, interval, side="right"))


def _merged_row_intervals(
    row_index: np.ndarray, starts: np.ndarray, ends: np.ndarray, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge each row's half-open cell intervals into disjoint unions.

    ``starts`` must be ascending; ``row_index`` (each cell's row, below
    ``rows``) and ``ends`` are aligned with it.  Returns the (unsorted)
    start/end endpoints of the merged intervals across all rows.
    """
    if row_index.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    counts = np.bincount(row_index, minlength=rows)
    # Group the cells by row, each row's cells staying in start order.  A
    # stable sort of 16-bit keys is a radix sort; `BankGeometry` has no row
    # limit, so wider row indices take the general stable sort.
    keys = row_index.astype(np.uint16) if rows <= 1 << 16 else row_index
    order = np.argsort(keys, kind="stable")
    starts = starts[order]
    ends = ends[order]
    # Exact per-row running max of the ends: lay each row's ends out
    # left-aligned in a rows x (most cells in a row) array padded with -inf,
    # so the max running along a row sees only that row's earlier cells.
    width = int(counts.max())
    position = np.repeat(np.arange(rows) * width - (np.cumsum(counts) - counts), counts)
    position += np.arange(position.size)
    padded = np.full((rows, width), -np.inf)
    padded.flat[position] = ends
    np.maximum.accumulate(padded, axis=1, out=padded)
    running_end = padded.take(position)
    # A merged interval begins at a row's first cell (column 0) and wherever
    # a cell interval starts after every earlier interval of the row ended.
    new = position % width == 0
    new[1:] |= starts[1:] > running_end[:-1]
    first = np.flatnonzero(new)
    return starts[first], running_end[np.append(first[1:] - 1, position.size - 1)]


@dataclass
class SubarrayOutcome:
    """Per-cell analysis of one subarray under one test condition.

    Attributes:
        cd_times: per-cell ColumnDisturb time-to-flip (seconds); ``inf`` for
            cells that cannot flip (victim bit 0) or are excluded by the
            RowHammer guardband.
        retention_nominal: per-cell retention time at nominal leakage (used
            for retention-failure counting).
        retention_worst: per-cell conservative retention time (worst VRT
            over 50 trials; used for the exclusion filter, §3.2).
        victim_bits: per-column victim data bits.
        included_rows: boolean mask of rows read by the methodology (the
            aggressor and its guardband are excluded in the aggressor
            subarray).
    """

    cd_times: np.ndarray
    retention_nominal: np.ndarray
    retention_worst: np.ndarray
    victim_bits: np.ndarray
    included_rows: np.ndarray
    _summary: OutcomeSummary | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def summarize(self, horizon: float = DEFAULT_SUMMARY_HORIZON) -> OutcomeSummary:
        """Build (and memoize) the sorted-event summary of this outcome.

        One O(cells) pass extracts the weak cells and one O(weak log weak)
        sort orders their flip times; every interval metric afterwards is a
        binary search.  Counts are bit-identical to the per-interval mask
        implementations for any interval ``<= horizon``.
        """
        if self._summary is None or self._summary.horizon < horizon:
            self._summary = self._build_summary(horizon)
        return self._summary

    def _build_summary(self, horizon: float) -> OutcomeSummary:
        rows, columns = self.cd_times.shape
        starts = self.cd_times.reshape(-1)
        ends = self.retention_worst.reshape(-1)
        # A cell whose retention-worst time precedes its ColumnDisturb time
        # is filtered out at every interval; drop it from the event lists.
        cells = np.flatnonzero((starts <= horizon) & (starts < ends))
        # One sort of the starts serves both the cell events and the merge.
        cells = cells[np.argsort(starts.take(cells))]
        cell_starts = starts.take(cells)
        cell_ends = ends.take(cells)
        row_starts, row_ends = _merged_row_intervals(
            cells // columns, cell_starts, cell_ends, rows
        )
        if horizon >= SEARCH_INTERVAL:
            # Every cell with cd <= SEARCH_INTERVAL < retention_worst is
            # eligible, and the starts are ascending: the first such is the
            # subarray's first bitflip.
            hits = (cell_starts <= SEARCH_INTERVAL) & (cell_ends > SEARCH_INTERVAL)
            first = cell_starts[hits]
            time_to_first = float(first[0]) if first.size else float("inf")
        else:
            time_to_first = self.time_to_first_flip()
        nominal = self.retention_nominal
        row_first_retention = nominal.min(axis=1) if nominal.size else np.empty(0)
        return OutcomeSummary(
            rows=rows,
            cells=self.cd_times.size,
            horizon=horizon,
            time_to_first=time_to_first,
            cd_cell_starts=cell_starts,
            cd_cell_ends=np.sort(cell_ends[cell_ends <= horizon]),
            cd_row_starts=np.sort(row_starts),
            cd_row_ends=np.sort(row_ends[row_ends <= horizon]),
            ret_cell_times=np.sort(nominal[nominal <= horizon], axis=None),
            ret_row_times=np.sort(row_first_retention[row_first_retention <= horizon]),
        )

    def _cd_flips(self, interval: float) -> np.ndarray:
        """Mask of ColumnDisturb bitflips at ``interval``, after filtering
        out cells that fail retention within the interval."""
        not_retention_weak = self.retention_worst > interval
        return (self.cd_times <= interval) & not_retention_weak

    def time_to_first_flip(self) -> float:
        """The paper's primary metric: seconds until the first ColumnDisturb
        bitflip in the subarray (``inf`` if none within the 512 ms search
        window).  Retention-weak cells (worst-case VRT, 512 ms window) are
        excluded, as in the paper's filtering methodology."""
        if self._summary is not None:
            return self._summary.time_to_first
        eligible = self.retention_worst > SEARCH_INTERVAL
        times = np.where(eligible, self.cd_times, np.inf)
        first = float(times.min()) if times.size else float("inf")
        return first if first <= SEARCH_INTERVAL else float("inf")

    def flip_count(self, interval: float) -> int:
        """Number of ColumnDisturb bitflips after ``interval`` seconds."""
        if self._summary is not None and interval <= self._summary.horizon:
            return self._summary.flip_count(interval)
        return int(self._cd_flips(interval).sum())

    def raw_flip_count(self, interval: float) -> int:
        """Bitflips observed in the disturb run WITHOUT the retention-weak
        exclusion — what a read-back sees before any filtering.  This is
        the Fig. 8/9 y-axis ("fraction of cells with bitflips" per
        experiment), where e.g. the all-1-aggressor line sits just below
        the retention line rather than at zero."""
        return int((self.cd_times <= interval).sum())

    def raw_fraction_with_flips(self, interval: float) -> float:
        """`raw_flip_count` as a fraction of the subarray's cells."""
        return self.raw_flip_count(interval) / self.cd_times.size

    def fraction_with_flips(self, interval: float) -> float:
        """Fraction of the subarray's cells with ColumnDisturb bitflips."""
        return self.flip_count(interval) / self.cd_times.size

    def rows_with_flips(self, interval: float) -> int:
        """Blast radius: rows with at least one ColumnDisturb bitflip."""
        if self._summary is not None and interval <= self._summary.horizon:
            return self._summary.rows_with_flips(interval)
        return int(self._cd_flips(interval).any(axis=1).sum())

    def per_row_flip_counts(self, interval: float) -> np.ndarray:
        """ColumnDisturb bitflips per row (guardband rows report 0)."""
        return self._cd_flips(interval).sum(axis=1)

    def retention_flip_count(self, interval: float) -> int:
        """Retention failures (nominal leakage) within ``interval``."""
        if self._summary is not None and interval <= self._summary.horizon:
            return self._summary.retention_flip_count(interval)
        return int((self.retention_nominal <= interval).sum())

    def retention_rows_with_flips(self, interval: float) -> int:
        """Rows with at least one retention failure within ``interval``."""
        if self._summary is not None and interval <= self._summary.horizon:
            return self._summary.retention_rows_with_flips(interval)
        return int((self.retention_nominal <= interval).any(axis=1).sum())

    def per_row_retention_counts(self, interval: float) -> np.ndarray:
        """Retention failures per row within ``interval``."""
        return (self.retention_nominal <= interval).sum(axis=1)


def disturb_outcome(
    population: CellPopulation,
    config: DisturbConfig,
    timing: TimingParameters,
    role: SubarrayRole,
    aggressor_local_row: int | None = None,
    guardband: int = GUARDBAND_ROWS,
) -> SubarrayOutcome:
    """Analyze one subarray under a ColumnDisturb test condition.

    Args:
        population: the subarray's cell population.
        config: test condition.
        timing: DRAM timing parameters (supplies the default tRP).
        role: the subarray's relation to the aggressor activation.
        aggressor_local_row: aggressor row offset within this subarray
            (required when ``role`` is AGGRESSOR; used for the guardband).
        guardband: rows excluded on each side of the aggressor.
    """
    profile = population.profile
    columns = population.columns
    t_agg_on = max(config.t_agg_on, timing.t_ras)
    t_rp = config.t_rp if config.t_rp is not None else timing.t_rp
    aggressor_bits = expand_pattern(config.aggressor_pattern, columns)
    second_bits = (
        expand_pattern(config.second_aggressor_pattern, columns)
        if config.is_two_aggressor
        else None
    )
    victim_bits = expand_pattern(config.effective_victim_pattern, columns)

    if role is SubarrayRole.AGGRESSOR:
        multipliers = aggressor_column_multipliers(
            profile, aggressor_bits, t_agg_on, t_rp, second_bits=second_bits
        )
    elif role in (SubarrayRole.UPPER_NEIGHBOUR, SubarrayRole.LOWER_NEIGHBOUR):
        multipliers = neighbour_column_multipliers(
            profile, aggressor_bits, t_agg_on, t_rp, role, second_bits=second_bits
        )
    else:
        multipliers = np.full(
            columns, profile.coupling_multiplier(V_PRECHARGE), dtype=np.float64
        )

    temperature = config.temperature_c
    cd_rates = total_leakage_rates(
        population.lambda_int, population.kappa, multipliers, profile, temperature
    )
    cd_times = times_to_flip(cd_rates)
    # Discharged victim cells cannot flip (ColumnDisturb is 1 -> 0 only).
    charged = (victim_bits == 1)[np.newaxis, :] ^ population.anti_mask
    cd_times = np.where(charged, cd_times, np.inf)

    included_rows = np.ones(population.rows, dtype=bool)
    if role is SubarrayRole.AGGRESSOR:
        if aggressor_local_row is None:
            raise ValueError("aggressor_local_row required for the aggressor role")
        lo = max(0, aggressor_local_row - guardband)
        hi = min(population.rows, aggressor_local_row + guardband + 1)
        included_rows[lo:hi] = False
        cd_times[lo:hi, :] = np.inf

    retention_nominal, retention_worst = population.retention_time_arrays(temperature)
    retention_nominal = np.where(charged, retention_nominal, np.inf)
    retention_worst = np.where(charged, retention_worst, np.inf)

    return SubarrayOutcome(
        cd_times=cd_times,
        retention_nominal=retention_nominal,
        retention_worst=retention_worst,
        victim_bits=victim_bits,
        included_rows=included_rows,
    )


def retention_outcome(
    population: CellPopulation,
    temperature_c: float,
    victim_pattern: int = 0xFF,
) -> SubarrayOutcome:
    """Analyze one subarray under a pure retention test (idle bank)."""
    config = DisturbConfig(
        aggressor_pattern=0x00,
        victim_pattern=victim_pattern,
        temperature_c=temperature_c,
    )
    outcome = disturb_outcome(population, config, timing=DDR4, role=SubarrayRole.IDLE)
    # In a retention test the failures of interest ARE the retention
    # failures: expose them through the same metric helpers by making them
    # the primary times and disabling the retention-exclusion filter.
    outcome.cd_times = outcome.retention_nominal
    outcome.retention_worst = np.full_like(outcome.retention_nominal, np.inf)
    outcome._summary = None  # fields changed; drop any memoized events
    return outcome


def retention_time_arrays(
    population: CellPopulation, temperature_c: float
) -> tuple[np.ndarray, np.ndarray]:
    """(nominal, conservative-worst-VRT) per-cell retention times.

    Memoized per (population, temperature) on the population itself — see
    `CellPopulation.retention_time_arrays`.  Treat the result as read-only.
    """
    return population.retention_time_arrays(temperature_c)
