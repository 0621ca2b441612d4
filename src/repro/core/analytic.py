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

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.chip.cells import CellPopulation, retention_times
from repro.chip.datapattern import expand_pattern
from repro.chip.timing import DDR4, TimingParameters
from repro.core.config import SEARCH_INTERVAL, DisturbConfig
from repro.physics.constants import Q_CRIT, V_PRECHARGE
from repro.physics.coupling import _times_to_flip_in_place, total_leakage_rates
from repro.physics.profile import DisturbanceProfile, row_blocks

#: Default event horizon of `SubarrayOutcome.summarize`: interval metrics can
#: be answered from a summary for any interval up to its horizon.  128 s is
#: 8x the longest interval the paper tests (16 s, §4.3).
DEFAULT_SUMMARY_HORIZON = 128.0

#: RowHammer/RowPress guardband: rows excluded around the aggressor (§3.2).
GUARDBAND_ROWS = 8

#: Relative margin of a weak tail's cut (`WeakTail`): the bitline-at-GND
#: multiplier and the reach ``max(horizon, SEARCH_INTERVAL)`` are both
#: widened by this factor.  It covers the float32 selection pass (a few
#: 1e-7) and the rounding of every condition's multipliers and temperature
#: factors (a few 1e-16) many times over, and adds no measurable cells.
TAIL_MARGIN = 1e-5


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

    @property
    def nbytes(self) -> int:
        """Bytes held by the six event arrays."""
        return (
            self.cd_cell_starts.nbytes
            + self.cd_cell_ends.nbytes
            + self.cd_row_starts.nbytes
            + self.cd_row_ends.nbytes
            + self.ret_cell_times.nbytes
            + self.ret_row_times.nbytes
        )

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
    depth = np.arange(row_index.size) - np.repeat(np.cumsum(counts) - counts, counts)
    position = row_index[order] * width + depth
    padded = np.full((rows, width), -np.inf)
    padded.reshape(-1)[position] = ends
    np.maximum.accumulate(padded, axis=1, out=padded)
    running_end = padded.take(position)
    # A merged interval begins at a row's first cell (depth 0) and wherever
    # a cell interval starts after every earlier interval of the row ended.
    new = depth == 0
    new[1:] |= starts[1:] > running_end[:-1]
    first = np.flatnonzero(new)
    return starts[first], running_end[np.append(first[1:] - 1, position.size - 1)]


@dataclass(frozen=True)
class _RowEvents:
    """The summary events of a range of rows (see `_row_events`)."""

    first: float
    starts: np.ndarray
    ends: np.ndarray
    row_starts: np.ndarray
    row_ends: np.ndarray
    retention_failures: np.ndarray
    row_first_retention: np.ndarray


def _row_events(
    rows: int,
    columns: int,
    horizon: float,
    cells: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    retention_failures: np.ndarray,
    row_first_retention: np.ndarray,
) -> _RowEvents:
    """Summary events of ``rows`` rows of ``columns`` cells.

    ``cells`` (flat cell indices within the rows), ``starts`` (ColumnDisturb
    times) and ``ends`` (worst-VRT retention times) list every cell with
    ``start <= max(horizon, SEARCH_INTERVAL)``.  ``retention_failures`` holds
    every nominal retention time within ``horizon``, and
    ``row_first_retention`` each row's first nominal retention time wherever
    that is within ``horizon`` (values past it are dropped).
    """
    # Every cell with cd <= SEARCH_INTERVAL < retention_worst is eligible;
    # the earliest such is the rows' first bitflip.
    first = starts[(starts <= SEARCH_INTERVAL) & (ends > SEARCH_INTERVAL)]
    # A cell whose retention-worst time precedes its ColumnDisturb time is
    # filtered out at every interval (§3.2): it is no event.
    inside = (starts <= horizon) & (starts < ends)
    cells, starts, ends = cells[inside], starts[inside], ends[inside]
    order = np.argsort(starts)
    starts, ends = starts.take(order), ends.take(order)
    row_starts, row_ends = _merged_row_intervals(
        cells.take(order) // columns, starts, ends, rows
    )
    return _RowEvents(
        first=float(first.min()) if first.size else float("inf"),
        starts=starts,
        ends=ends,
        row_starts=row_starts,
        row_ends=row_ends,
        retention_failures=retention_failures,
        row_first_retention=row_first_retention,
    )


def _summary_from_events(
    rows: int, columns: int, horizon: float, parts: list[_RowEvents]
) -> OutcomeSummary:
    """Sort the events of consecutive row ranges into one summary."""

    def joined(name: str) -> np.ndarray:
        arrays = [getattr(part, name) for part in parts]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    ends = joined("ends")
    row_ends = joined("row_ends")
    row_first_retention = joined("row_first_retention")
    return OutcomeSummary(
        rows=rows,
        cells=rows * columns,
        horizon=horizon,
        time_to_first=min(part.first for part in parts),
        cd_cell_starts=np.sort(joined("starts")),
        cd_cell_ends=np.sort(ends[ends <= horizon]),
        cd_row_starts=np.sort(joined("row_starts")),
        cd_row_ends=np.sort(row_ends[row_ends <= horizon]),
        ret_cell_times=np.sort(joined("retention_failures")),
        ret_row_times=np.sort(row_first_retention[row_first_retention <= horizon]),
    )


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
        cells = np.flatnonzero(starts <= max(horizon, SEARCH_INTERVAL))
        nominal = self.retention_nominal
        events = _row_events(
            rows,
            columns,
            horizon,
            cells,
            starts.take(cells),
            ends.take(cells),
            nominal[nominal <= horizon],
            nominal.min(axis=1) if nominal.size else np.empty(0),
        )
        return _summary_from_events(rows, columns, horizon, [events])

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


@dataclass(frozen=True)
class _Cells:
    """Cells of one subarray under one test condition, as the flip-time and
    event arithmetic reads them.

    Attributes:
        profile: the die profile.
        rows / columns: shape of the rows the cells lie in.
        lambda_int / kappa: the cells' parameters: whole rows (a row block),
            or one value per listed cell (a weak tail).
        multipliers: each cell's column coupling multiplier, broadcastable
            against ``kappa``.
        charged: which cells hold charge, broadcastable against ``kappa``;
            ``None`` when all of them do.
        guard: index of the cells in the aggressor's guardband rows.
        index: each listed cell's flat index within the rows; ``None`` when
            the arrays hold every cell of the rows.
    """

    profile: DisturbanceProfile
    rows: int
    columns: int
    lambda_int: np.ndarray
    kappa: np.ndarray
    multipliers: np.ndarray
    charged: np.ndarray | None
    guard: slice | np.ndarray
    index: np.ndarray | None = None


@dataclass(frozen=True)
class WeakTail:
    """The cells of one population that any test condition up to a
    temperature and a horizon can need.

    Leakage grows with temperature and with the bitline's coupling
    multiplier, which is largest with the bitline at GND.  So every cell
    that is an event, a first flip or a nominal-retention failure of any
    condition at a temperature ``T' <= temperature_c`` and a horizon
    ``H' <= horizon`` has a ColumnDisturb time, at ``temperature_c`` with
    the bitline at GND, within ``max(horizon, SEARCH_INTERVAL)``: the tail
    keeps those cells (both bounds widened by `TAIL_MARGIN`), and
    `tail_summary` answers such a condition from them alone, bit for bit.
    At 85 C and 16 s that is a few percent of a catalog population.

    Attributes:
        profile: the population's die profile.
        rows / columns: the population's shape.
        temperature_c: hottest temperature the tail answers.
        horizon: longest horizon the tail answers (at least
            ``SEARCH_INTERVAL`` in effect).
        index: flat indices of the kept cells, ascending (uint32).
        lambda_int / kappa: their parameters (float32).
        anti: their anti-cell bits; ``None`` when the die has no anti-cells.
    """

    profile: DisturbanceProfile
    rows: int
    columns: int
    temperature_c: float
    horizon: float
    index: np.ndarray
    lambda_int: np.ndarray
    kappa: np.ndarray
    anti: np.ndarray | None

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The per-cell arrays the tail holds."""
        held = (self.index, self.lambda_int, self.kappa)
        return held if self.anti is None else (*held, self.anti)

    @property
    def nbytes(self) -> int:
        """Bytes held by the per-cell arrays."""
        return sum(array.nbytes for array in self.arrays)

    def covers(self, temperature_c: float, horizon: float) -> bool:
        """Whether a condition at ``temperature_c``, summarized up to
        ``horizon``, can be answered from this tail."""
        reach = max(self.horizon, SEARCH_INTERVAL)
        cooler = temperature_c <= self.temperature_c
        return cooler and max(horizon, SEARCH_INTERVAL) <= reach


@dataclass(frozen=True)
class _Condition:
    """What a test condition fixes in one subarray before any cell is
    evaluated.

    Attributes:
        victim_bits: per-column victim data bits.
        multipliers: per-column mean coupling multiplier of the waveform.
        charged_columns: columns whose (true-cell) victims hold charge.
        guard: rows excluded around the aggressor (empty off the
            aggressor subarray).
    """

    victim_bits: np.ndarray
    multipliers: np.ndarray
    charged_columns: np.ndarray
    guard: range

    def block(self, population: CellPopulation, rows: slice) -> _Cells:
        """The cells of ``rows`` (a slice with explicit bounds).
        Discharged cells cannot flip (ColumnDisturb is 1 -> 0 only)."""
        charged = self.charged_columns[np.newaxis, :]
        if population.profile.anti_cell_fraction:
            charged = charged ^ population.anti_mask[rows]
        lo = max(self.guard.start - rows.start, 0)
        return _Cells(
            population.profile,
            rows.stop - rows.start,
            population.columns,
            population.lambda_int[rows],
            population.kappa[rows],
            self.multipliers,
            None if charged.all() else charged,
            slice(lo, max(self.guard.stop - rows.start, lo)),
        )

    def tail(self, tail: WeakTail) -> _Cells:
        """The cells ``tail`` keeps."""
        rows, columns = np.divmod(tail.index, tail.columns)
        charged = self.charged_columns.take(columns)
        if tail.anti is not None:
            charged ^= tail.anti
        return _Cells(
            tail.profile,
            tail.rows,
            tail.columns,
            tail.lambda_int,
            tail.kappa,
            self.multipliers.take(columns),
            None if charged.all() else charged,
            (rows >= self.guard.start) & (rows < self.guard.stop),
            tail.index,
        )


def _condition(
    population: CellPopulation | WeakTail,
    config: DisturbConfig,
    timing: TimingParameters,
    role: SubarrayRole,
    aggressor_local_row: int | None,
    guardband: int,
) -> _Condition:
    """The per-column waveform, charge and guardband of one condition."""
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

    guard = range(0)
    if role is SubarrayRole.AGGRESSOR:
        multipliers = aggressor_column_multipliers(
            profile, aggressor_bits, t_agg_on, t_rp, second_bits=second_bits
        )
        if aggressor_local_row is None:
            raise ValueError("aggressor_local_row required for the aggressor role")
        lo = max(0, aggressor_local_row - guardband)
        hi = min(population.rows, aggressor_local_row + guardband + 1)
        guard = range(lo, max(lo, hi))
    elif role in (SubarrayRole.UPPER_NEIGHBOUR, SubarrayRole.LOWER_NEIGHBOUR):
        multipliers = neighbour_column_multipliers(
            profile, aggressor_bits, t_agg_on, t_rp, role, second_bits=second_bits
        )
    else:
        multipliers = np.full(
            columns, profile.coupling_multiplier(V_PRECHARGE), dtype=np.float64
        )
    return _Condition(victim_bits, multipliers, victim_bits == 1, guard)


def _cd_times(
    cells: _Cells, temperature_c: float, out: np.ndarray | None = None
) -> np.ndarray:
    """ColumnDisturb flip times of ``cells``, ``inf`` at discharged cells
    and in the guardband.  ``out`` (float64, the cells' shape) receives the
    rates and the times."""
    cd_times = _times_to_flip_in_place(
        total_leakage_rates(
            cells.lambda_int,
            cells.kappa,
            cells.multipliers,
            cells.profile,
            temperature_c,
            out=out,
        )
    )
    if cells.charged is not None:
        np.copyto(cd_times, np.inf, where=~cells.charged)
    cd_times[cells.guard] = np.inf
    return cd_times


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
    condition = _condition(
        population, config, timing, role, aggressor_local_row, guardband
    )
    temperature = config.temperature_c
    cells = condition.block(population, slice(0, population.rows))
    cd_times = _cd_times(cells, temperature)
    included_rows = np.ones(population.rows, dtype=bool)
    included_rows[condition.guard.start : condition.guard.stop] = False

    retention_nominal, retention_worst = population.retention_time_arrays(temperature)
    if cells.charged is not None:
        # The memoized arrays are shared and read-only: mask copies.
        retention_nominal = np.where(cells.charged, retention_nominal, np.inf)
        retention_worst = np.where(cells.charged, retention_worst, np.inf)

    return SubarrayOutcome(
        cd_times=cd_times,
        retention_nominal=retention_nominal,
        retention_worst=retention_worst,
        victim_bits=condition.victim_bits,
        included_rows=included_rows,
    )


def _cell_events(
    cells: _Cells,
    temperature_c: float,
    horizon: float,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> _RowEvents:
    """Summary events of ``cells``, from their parameters.

    ``cells`` are every cell of their rows (a row block), or a list of them
    that holds every cell with a ColumnDisturb time within
    ``max(horizon, SEARCH_INTERVAL)`` or a nominal retention time within
    ``horizon`` (a covering weak tail).  A row block's ColumnDisturb and
    nominal-retention times are written over the leading rows of the two
    float64 ``buffers``.
    """
    profile = cells.profile
    count = len(cells.lambda_int)
    out = (None, None) if buffers is None else (buffers[0][:count], buffers[1][:count])
    cd_times = _cd_times(cells, temperature_c, out=out[0])
    nominal = retention_times(
        profile, cells.lambda_int, cells.kappa, temperature_c, out=out[1]
    )
    if cells.charged is not None:
        np.copyto(nominal, np.inf, where=~cells.charged)
    flat = cd_times.reshape(-1)
    picked = np.flatnonzero(flat <= max(horizon, SEARCH_INTERVAL))
    ends = retention_times(
        profile,
        cells.lambda_int.reshape(-1).take(picked),
        cells.kappa.reshape(-1).take(picked),
        temperature_c,
        worst=True,
    )
    failing = nominal <= horizon
    failures = nominal[failing]
    starts = flat.take(picked)
    if cells.index is None:
        row_first = nominal.min(axis=1)
    else:
        # A row's first failure within the horizon is a listed cell.
        row_first = np.full(cells.rows, np.inf)
        rows = (cells.index[failing] // cells.columns).astype(np.intp)
        np.minimum.at(row_first, rows, failures)
        picked = cells.index.take(picked).astype(np.intp)
    return _row_events(
        cells.rows, cells.columns, horizon, picked, starts, ends, failures, row_first
    )


class _TailCut:
    """Selects a population's weak tail at a temperature and a horizon,
    one row block at a time (see `WeakTail`)."""

    def __init__(
        self, population: CellPopulation, temperature_c: float, horizon: float
    ) -> None:
        profile = population.profile
        widen = 1.0 + TAIL_MARGIN
        self.population = population
        self.temperature_c = temperature_c
        self.horizon = horizon
        # A kept cell's float32 rate with the bitline at GND reaches the
        # rate that flips it within the reach.  In float32 the pass takes
        # half a float64 `total_leakage_rates` pass (114 against 237 us a
        # 64 Ki-cell block); `TAIL_MARGIN` covers its rounding.
        self.intrinsic = np.float32(profile.retention_temperature_factor(temperature_c))
        self.coupling = np.float32(
            profile.coupling_temperature_factor(temperature_c)
            * profile.coupling_multiplier(0.0)
            * widen
        )
        self.floor = np.float32(Q_CRIT / (max(horizon, SEARCH_INTERVAL) * widen))
        self.picked: list[np.ndarray] = []

    def select(self, rows: slice, buffers: tuple[np.ndarray, np.ndarray]) -> None:
        """Keep the tail cells of ``rows``; the float32 rates go over the
        float64 ``buffers``, which the block's events no longer need."""
        population = self.population
        lambda_int = population.lambda_int[rows].reshape(-1)
        kappa = population.kappa[rows].reshape(-1)
        count = lambda_int.size
        rates = buffers[0].reshape(-1).view(np.float32)[:count]
        coupling = buffers[1].reshape(-1).view(np.float32)[:count]
        np.multiply(lambda_int, self.intrinsic, out=rates)
        np.multiply(kappa, self.coupling, out=coupling)
        rates += coupling
        picked = np.flatnonzero(rates >= self.floor)
        self.picked.append(picked + rows.start * population.columns)

    def tail(self) -> WeakTail:
        """The tail of the blocks selected so far."""
        population = self.population
        picked = np.concatenate(self.picked)
        anti = None
        if population.profile.anti_cell_fraction:
            anti = population.anti_mask.reshape(-1).take(picked)
        return WeakTail(
            profile=population.profile,
            rows=population.rows,
            columns=population.columns,
            temperature_c=self.temperature_c,
            horizon=self.horizon,
            index=picked.astype(np.uint32),
            lambda_int=population.lambda_int.reshape(-1).take(picked),
            kappa=population.kappa.reshape(-1).take(picked),
            anti=anti,
        )


def _walk(
    population: CellPopulation,
    condition: _Condition,
    temperature_c: float,
    horizon: float,
    cut: _TailCut | None = None,
) -> OutcomeSummary:
    """The summary of ``population``, walked in row blocks of about
    `repro.physics.profile.BLOCK_CELLS` cells; ``cut`` selects its weak
    tail on the way."""
    rows, columns = population.shape
    blocks = row_blocks(rows, columns)
    # Every block writes over the same two buffers: fresh block arrays can
    # be handed back to the OS between blocks and faulted in again (250-400
    # minor page faults per 256 x 512 unit on a two-thread pool, not 5-15).
    buffers = (np.empty((blocks[0].stop, columns)), np.empty((blocks[0].stop, columns)))
    events = []
    for block in blocks:
        cells = condition.block(population, block)
        events.append(_cell_events(cells, temperature_c, horizon, buffers))
        if cut is not None:
            cut.select(block, buffers)
    return _summary_from_events(rows, columns, horizon, events)


def disturb_summary(
    population: CellPopulation,
    config: DisturbConfig,
    timing: TimingParameters,
    role: SubarrayRole,
    aggressor_local_row: int | None = None,
    guardband: int = GUARDBAND_ROWS,
    horizon: float = DEFAULT_SUMMARY_HORIZON,
) -> OutcomeSummary:
    """``disturb_outcome(...).summarize(horizon)``, bit for bit, without
    the per-cell arrays.

    Walks the population in row blocks of about
    `repro.physics.profile.BLOCK_CELLS` cells, so each block's leakage
    rates, flip times and masks stay in cache: the ColumnDisturb and
    nominal-retention times of every cell, and the worst-VRT retention
    time only of the cells the summary can need (a ColumnDisturb time
    within ``max(horizon, SEARCH_INTERVAL)``).  Each value is
    `disturb_outcome`'s arithmetic on the same cell, and the events meet
    the same summary tail.  This is the engine's unit of work; callers
    that read per-cell arrays use `disturb_outcome`.
    """
    condition = _condition(
        population, config, timing, role, aggressor_local_row, guardband
    )
    return _walk(population, condition, config.temperature_c, horizon)


def disturb_summary_and_tail(
    population: CellPopulation,
    config: DisturbConfig,
    timing: TimingParameters,
    role: SubarrayRole,
    aggressor_local_row: int | None = None,
    guardband: int = GUARDBAND_ROWS,
    horizon: float = DEFAULT_SUMMARY_HORIZON,
    *,
    tail_temperature_c: float,
    tail_horizon: float,
) -> tuple[OutcomeSummary, WeakTail | None]:
    """`disturb_summary`, and the population's `WeakTail` at
    ``tail_temperature_c`` and ``tail_horizon``, cut in the same row-block
    walk from float32 rates.

    The tail is ``None`` when the die's leakage does not grow with
    temperature (a per-10 C factor below 1), which the tail relies on, or
    when its temperature or horizon is not finite.
    """
    condition = _condition(
        population, config, timing, role, aggressor_local_row, guardband
    )
    profile = population.profile
    growing = min(profile.retention_factor_per_10c, profile.coupling_factor_per_10c) >= 1
    cut = None
    if growing and math.isfinite(tail_temperature_c + tail_horizon):
        cut = _TailCut(population, tail_temperature_c, tail_horizon)
    summary = _walk(population, condition, config.temperature_c, horizon, cut)
    return summary, None if cut is None else cut.tail()


def tail_summary(
    tail: WeakTail,
    config: DisturbConfig,
    timing: TimingParameters,
    role: SubarrayRole,
    aggressor_local_row: int | None = None,
    guardband: int = GUARDBAND_ROWS,
    horizon: float = DEFAULT_SUMMARY_HORIZON,
) -> OutcomeSummary:
    """`disturb_summary` of the tail's population, bit for bit, from the
    cells the tail keeps: the same per-cell arithmetic on a few percent of
    the cells, with no population drawn.

    Raises ``ValueError`` unless the tail covers the condition's
    temperature and ``horizon`` (`WeakTail.covers`).
    """
    if not tail.covers(config.temperature_c, horizon):
        raise ValueError(
            f"a tail at {tail.temperature_c} C and {tail.horizon} s cannot "
            f"answer {config.temperature_c} C and {horizon} s"
        )
    condition = _condition(tail, config, timing, role, aggressor_local_row, guardband)
    events = _cell_events(condition.tail(tail), config.temperature_c, horizon)
    return _summary_from_events(tail.rows, tail.columns, horizon, [events])


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
    `CellPopulation.retention_time_arrays`.  The arrays are read-only.
    """
    return population.retention_time_arrays(temperature_c)
