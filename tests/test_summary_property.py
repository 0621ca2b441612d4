"""Property tests: the summary builds equal the lexsort oracle and each other.

`SubarrayOutcome._build_summary` merges each row's cell intervals with a
single radix sort and a padded running max.  The oracle below is the
build it replaced: a two-key ``np.lexsort`` of (row, start) followed by a
Python loop over the rows, and a full-array pass for the time to first
bitflip.  Every `OutcomeSummary` field must come out equal, dtype
included, on generated grids built to hit the merge's edge cases (equal
starts, touching intervals, ``inf`` ends, ``cd == retention_worst``,
nothing eligible) and on real `disturb_outcome` results.

The engine's unit path, `disturb_summary`, walks the population in row
blocks and never builds the per-cell outcome; it must equal
``disturb_outcome(...).summarize(horizon)`` field for field on every
condition and on shapes that are not a multiple of the block.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.chip.catalog import CATALOG, get_module
from repro.chip.cells import CellPopulation
from repro.chip.timing import DDR4
from repro.core.analytic import (
    OutcomeSummary,
    SubarrayOutcome,
    SubarrayRole,
    disturb_outcome,
    disturb_summary,
)
from repro.core.config import SEARCH_INTERVAL, DisturbConfig
from repro.physics.profile import BLOCK_CELLS

HORIZONS = (0.064, 0.512, 16.0, 128.0)

#: A small pool of times, so generated grids repeat values: equal starts,
#: a start equal to another cell's end, and ``cd == retention_worst`` are
#: all common.  It straddles every horizon and `SEARCH_INTERVAL`.
TIMES = (0.0, 0.01, 0.064, 0.1, 0.3, 0.512, 0.6, 1.0, 4.0, 16.0, 64.0, 128.0, 200.0)
TIME = st.one_of(
    st.sampled_from(TIMES + (np.inf,)),
    st.floats(0.0, 256.0, allow_nan=False, allow_subnormal=False),
)


def oracle_merged_row_intervals(
    row_index: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row interval merge through a lexsort and a loop over the rows."""
    if row_index.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    order = np.lexsort((starts, row_index))
    row_index = row_index[order]
    starts = starts[order]
    ends = ends[order]
    out_starts: list[np.ndarray] = []
    out_ends: list[np.ndarray] = []
    boundaries = np.nonzero(np.diff(row_index))[0] + 1
    for lo, hi in zip(
        np.concatenate(([0], boundaries)),
        np.concatenate((boundaries, [row_index.size])),
    ):
        group_starts = starts[lo:hi]
        running_end = np.maximum.accumulate(ends[lo:hi])
        new = np.empty(hi - lo, dtype=bool)
        new[0] = True
        new[1:] = group_starts[1:] > running_end[:-1]
        first = np.nonzero(new)[0]
        out_starts.append(group_starts[first])
        out_ends.append(running_end[np.append(first[1:] - 1, hi - lo - 1)])
    return np.concatenate(out_starts), np.concatenate(out_ends)


def oracle_summary(outcome: SubarrayOutcome, horizon: float) -> OutcomeSummary:
    """The summary as the lexsort build computed it."""
    starts = outcome.cd_times
    ends = outcome.retention_worst
    eligible = (starts <= horizon) & (starts < ends)
    row_index, _ = np.nonzero(eligible)
    cell_starts = starts[eligible]
    cell_ends = ends[eligible]
    row_starts, row_ends = oracle_merged_row_intervals(row_index, cell_starts, cell_ends)
    times = np.where(ends > SEARCH_INTERVAL, starts, np.inf)
    first = float(times.min()) if times.size else float("inf")
    nominal = outcome.retention_nominal
    row_first_retention = nominal.min(axis=1) if nominal.size else np.empty(0)
    return OutcomeSummary(
        rows=starts.shape[0],
        cells=starts.size,
        horizon=horizon,
        time_to_first=first if first <= SEARCH_INTERVAL else float("inf"),
        cd_cell_starts=np.sort(cell_starts),
        cd_cell_ends=np.sort(cell_ends[cell_ends <= horizon]),
        cd_row_starts=np.sort(row_starts),
        cd_row_ends=np.sort(row_ends[row_ends <= horizon]),
        ret_cell_times=np.sort(nominal[nominal <= horizon], axis=None),
        ret_row_times=np.sort(row_first_retention[row_first_retention <= horizon]),
    )


def make_outcome(
    cd: np.ndarray, worst: np.ndarray, nominal: np.ndarray
) -> SubarrayOutcome:
    rows, columns = cd.shape
    return SubarrayOutcome(
        cd_times=cd,
        retention_nominal=nominal,
        retention_worst=worst,
        victim_bits=np.ones(columns, dtype=np.int8),
        included_rows=np.ones(rows, dtype=bool),
    )


def assert_same_summary(outcome: SubarrayOutcome, horizon: float) -> None:
    """The fresh summary of ``outcome`` equals the oracle's, field by field."""
    assert_equal_summaries(outcome.summarize(horizon), oracle_summary(outcome, horizon))


def assert_equal_summaries(actual: OutcomeSummary, expected: OutcomeSummary) -> None:
    """Field by field: type, and for arrays dtype, shape and bytes."""
    for field in dataclasses.fields(OutcomeSummary):
        want = getattr(expected, field.name)
        got = getattr(actual, field.name)
        assert type(got) is type(want), field.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


@st.composite
def grids(draw):
    """(cd_times, retention_worst, retention_nominal) of one subarray."""
    rows = draw(st.integers(1, 12))
    columns = draw(st.integers(1, 12))
    grid = arrays(np.float64, (rows, columns), elements=TIME)
    cd = draw(grid)
    nominal = draw(grid)
    kind = draw(st.sampled_from(("disturb", "retention", "cd-equals-worst", "none")))
    if kind == "retention":
        # `retention_outcome`: the nominal times are the events, never filtered.
        return nominal, np.full_like(nominal, np.inf), nominal
    if kind == "cd-equals-worst":
        worst = np.where(draw(arrays(bool, (rows, columns))), cd, draw(grid))
    elif kind == "none":
        worst = np.minimum(cd, draw(grid))  # every cell ends before it starts
    else:
        worst = draw(grid)
    return cd, worst, nominal


@given(grids(), st.sampled_from(HORIZONS))
@settings(max_examples=300, deadline=None)
def test_summary_matches_lexsort_oracle(grid, horizon):
    assert_same_summary(make_outcome(*grid), horizon)


@given(grids(), st.sampled_from(HORIZONS), st.sampled_from(HORIZONS))
@settings(max_examples=100, deadline=None)
def test_rebuilt_summary_matches_oracle(grid, first, second):
    """A summary rebuilt for a larger horizon is the fresh one."""
    outcome = make_outcome(*grid)
    outcome.summarize(first)
    assert_same_summary(outcome, max(first, second))


@given(
    st.integers(0, 2**16),
    st.sampled_from(("S0", "M8", "H0", "HBM0")),
    st.sampled_from((0x00, 0xAA, 0xFF)),
    st.sampled_from(HORIZONS),
)
@settings(max_examples=25, deadline=None)
def test_disturb_outcome_summary_matches_oracle(key, serial, pattern, horizon):
    population = CellPopulation(
        key=("summary-property", key),
        profile=get_module(serial).profile,
        rows=48,
        columns=64,
    )
    outcome = disturb_outcome(
        population,
        DisturbConfig(aggressor_pattern=pattern, temperature_c=85.0),
        timing=DDR4,
        role=SubarrayRole.AGGRESSOR,
        aggressor_local_row=key % 48,
    )
    assert_same_summary(outcome, horizon)


def random_grid(rows: int, columns: int, seed: int):
    """Seeded grid drawing from `TIMES`, so ties and touching intervals occur."""
    rng = np.random.default_rng(seed)
    pool = np.array(TIMES + (np.inf,))
    cd = rng.choice(pool, size=(rows, columns))
    worst = rng.choice(pool, size=(rows, columns))
    nominal = rng.choice(pool, size=(rows, columns))
    return cd, worst, nominal


@pytest.mark.parametrize("horizon", HORIZONS)
def test_one_row_holds_every_eligible_cell(horizon):
    cd, worst, nominal = random_grid(40, 50, seed=3)
    cd[np.arange(40) != 17] = np.inf
    assert ((cd[17] <= horizon) & (cd[17] < worst[17])).sum() > 1
    assert_same_summary(make_outcome(cd, worst, nominal), horizon)


@pytest.mark.parametrize("rows", [1, 300])
@pytest.mark.parametrize("horizon", HORIZONS)
def test_row_counts(rows, horizon):
    assert_same_summary(make_outcome(*random_grid(rows, 33, seed=rows)), horizon)


@pytest.mark.parametrize("rows", [2**16, 2**16 + 1])
def test_wide_row_fallback(rows):
    """Beyond 65 536 rows the row keys no longer fit 16 bits; the last row
    must not merge into row 0."""
    cd, worst, nominal = random_grid(rows, 2, seed=rows)
    cd[0], worst[0] = (0.1, 0.2), (1.0, 1.0)
    cd[-1], worst[-1] = (0.5, 0.5), (2.0, 4.0)
    assert_same_summary(make_outcome(cd, worst, nominal), 128.0)


# ---------------------------------------------------------------------------
# The engine's unit path: `disturb_summary` against the per-cell outcome
# ---------------------------------------------------------------------------

#: Shapes that are not a multiple of the row block: one cell, one row, one
#: column, a row wider than a block, and an odd shape of several blocks.
UNIT_SHAPES = (
    (1, 1),
    (1, 7),
    (9, 1),
    (3, 8),
    (2, BLOCK_CELLS + 3),
    (3, BLOCK_CELLS + 2),
    (257, 513),
    (130, 1024),
)

ROLES = tuple(SubarrayRole)
NON_NEIGHBOUR_ROLES = (SubarrayRole.AGGRESSOR, SubarrayRole.IDLE)


@st.composite
def unit_conditions(draw):
    """(population, condition, role, aggressor row) of one unit."""
    rows, columns = draw(st.sampled_from(UNIT_SHAPES))
    profile = get_module(draw(st.sampled_from(sorted(CATALOG)))).profile
    if draw(st.booleans()):
        # No catalog die has anti-cells: charge then depends on the cell.
        profile = dataclasses.replace(profile, anti_cell_fraction=0.25)
    population = CellPopulation(
        key=("unit-path", draw(st.integers(0, 2**16))),
        profile=profile,
        rows=rows,
        columns=columns,
    )
    aggressor = draw(st.sampled_from((0x00, 0xFF, 0x33)))
    config = DisturbConfig(
        aggressor_pattern=aggressor,
        victim_pattern=draw(st.sampled_from((None, 0xAA, 0x11, 0xFF))),
        temperature_c=draw(st.sampled_from((45.0, 85.0))),
        second_aggressor_pattern=draw(st.sampled_from((None, aggressor ^ 0xFF))),
    )
    # A neighbour shares every other column, so it needs an even count.
    role = draw(st.sampled_from(ROLES if columns % 2 == 0 else NON_NEIGHBOUR_ROLES))
    # The aggressor at the beginning, middle and end: the guardband is
    # clipped at either edge.
    row = draw(st.sampled_from((0, rows // 2, rows - 1)))
    return population, config, role, row


@given(unit_conditions(), st.sampled_from(HORIZONS))
@settings(max_examples=60, deadline=None)
def test_unit_path_equals_outcome_summary(unit, horizon):
    population, config, role, row = unit
    expected = disturb_outcome(population, config, DDR4, role, row).summarize(horizon)
    actual = disturb_summary(population, config, DDR4, role, row, horizon=horizon)
    assert_equal_summaries(actual, expected)


@pytest.mark.parametrize("shape", UNIT_SHAPES)
@pytest.mark.parametrize("horizon", HORIZONS)
def test_unit_path_equals_outcome_summary_on_every_shape(shape, horizon):
    """Each block-edge shape at each horizon, with a guardband that the
    aggressor row clips at the top edge."""
    population = CellPopulation(
        key=("unit-path-shape",) + shape,
        profile=get_module("M8").profile,
        rows=shape[0],
        columns=shape[1],
    )
    config = DisturbConfig(aggressor_pattern=0xAA, victim_pattern=0x11)
    role = SubarrayRole.AGGRESSOR
    expected = disturb_outcome(population, config, DDR4, role, 0).summarize(horizon)
    actual = disturb_summary(population, config, DDR4, role, 0, horizon=horizon)
    assert_equal_summaries(actual, expected)
