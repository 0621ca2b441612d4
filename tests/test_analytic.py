"""Analytic fast path: multipliers, outcomes, filters, metrics."""

import dataclasses

import numpy as np
import pytest

from repro.chip import DDR4, expand_pattern, get_module
from repro.chip.cells import CellPopulation
from repro.core import (
    SEARCH_INTERVAL,
    SubarrayRole,
    WORST_CASE,
    DisturbConfig,
    aggressor_column_multipliers,
    disturb_outcome,
    neighbour_column_multipliers,
    retention_outcome,
    retention_time_arrays,
)
from repro.core.analytic import GUARDBAND_ROWS, disturb_summary
from repro.physics.coupling import times_to_flip, total_leakage_rates

PROFILE = get_module("S0").profile


@pytest.fixture
def population():
    return CellPopulation(
        key=("S0", 0, 0, 1), profile=PROFILE, rows=64, columns=256
    )


def test_aggressor_multiplier_all_zero_pattern():
    bits = expand_pattern(0x00, 16)
    multipliers = aggressor_column_multipliers(PROFILE, bits, 70.2e-6, 14e-9)
    # Pressed to GND essentially the whole period.
    assert multipliers == pytest.approx(
        np.full(16, PROFILE.coupling_multiplier(0.0)), rel=0.01
    )


def test_aggressor_multiplier_all_one_pattern_below_precharge():
    """Obs 10: an all-1 aggressor holds the bitlines ABOVE the precharge
    level — coupling damage below the retention baseline."""
    bits = expand_pattern(0xFF, 16)
    multipliers = aggressor_column_multipliers(PROFILE, bits, 70.2e-6, 14e-9)
    assert (multipliers < PROFILE.coupling_multiplier(0.5)).all()


def test_aggressor_multiplier_mixed_pattern_per_column():
    bits = expand_pattern(0xAA, 16)
    multipliers = aggressor_column_multipliers(PROFILE, bits, 70.2e-6, 14e-9)
    assert multipliers[1] < multipliers[0]  # bit 1 -> VDD, bit 0 -> GND


def test_two_aggressor_multiplier_half_of_single():
    bits0 = expand_pattern(0x00, 16)
    bits1 = expand_pattern(0xFF, 16)
    single = aggressor_column_multipliers(PROFILE, bits0, 70.2e-6, 14e-9)
    double = aggressor_column_multipliers(
        PROFILE, bits0, 70.2e-6, 14e-9, second_bits=bits1
    )
    assert double == pytest.approx(single / 2, rel=0.01)


def test_neighbour_multipliers_parity_and_source():
    bits = expand_pattern(0xAA, 16)  # odd columns 1, even columns 0
    upper = neighbour_column_multipliers(
        PROFILE, bits, 70.2e-6, 14e-9, SubarrayRole.UPPER_NEIGHBOUR
    )
    lower = neighbour_column_multipliers(
        PROFILE, bits, 70.2e-6, 14e-9, SubarrayRole.LOWER_NEIGHBOUR
    )
    precharge = PROFILE.coupling_multiplier(0.5)
    # Upper neighbour: EVEN columns idle, ODD columns driven by the
    # aggressor's EVEN (0-valued) columns -> strong disturbance.
    assert upper[0::2] == pytest.approx(precharge)
    assert (upper[1::2] > precharge).all()
    # Lower neighbour: EVEN columns driven by aggressor ODD (1-valued)
    # columns -> weaker-than-precharge coupling; ODD columns idle.
    assert lower[1::2] == pytest.approx(precharge)
    assert (lower[0::2] < precharge).all()


@pytest.mark.parametrize("columns", [1, 3, 257])
def test_neighbour_multipliers_on_odd_column_counts(columns):
    """Neighbour column 2k+1 takes the aggressor's column 2k, and 2k its
    column 2k+1, on any column count; unshared columns stay precharged."""
    bits = expand_pattern(0x35, columns)
    second = expand_pattern(0xC4, columns)
    precharge = PROFILE.coupling_multiplier(0.5)
    for second_bits in (None, second):
        driven = aggressor_column_multipliers(
            PROFILE, bits, 70.2e-6, 14e-9, second_bits=second_bits
        )
        upper, lower = (
            neighbour_column_multipliers(
                PROFILE, bits, 70.2e-6, 14e-9, role, second_bits=second_bits
            )
            for role in (SubarrayRole.UPPER_NEIGHBOUR, SubarrayRole.LOWER_NEIGHBOUR)
        )
        assert upper.shape == lower.shape == (columns,)
        for column in range(columns):
            partner = column ^ 1
            shared = partner < columns
            want = driven[partner] if shared else precharge
            if column % 2:
                assert upper[column] == want
                assert lower[column] == precharge
            else:
                assert upper[column] == precharge
                assert lower[column] == want
    # The whole unit path, as a neighbour subarray of a bare population.
    population = CellPopulation(
        key=("odd-neighbour", columns), profile=PROFILE, rows=16, columns=columns
    )
    for role in (SubarrayRole.UPPER_NEIGHBOUR, SubarrayRole.LOWER_NEIGHBOUR):
        summary = disturb_summary(population, WORST_CASE, DDR4, role)
        outcome = disturb_outcome(population, WORST_CASE, DDR4, role)
        assert summary.cells == 16 * columns
        assert summary.flip_count(1.0) == outcome.flip_count(1.0)


def test_neighbour_role_validation():
    bits = expand_pattern(0x00, 8)
    with pytest.raises(ValueError):
        neighbour_column_multipliers(
            PROFILE, bits, 1e-6, 14e-9, SubarrayRole.AGGRESSOR
        )


def test_outcome_requires_aggressor_row(population):
    with pytest.raises(ValueError):
        disturb_outcome(population, WORST_CASE, DDR4, SubarrayRole.AGGRESSOR)


def test_outcome_guardband_exclusion(population):
    outcome = disturb_outcome(
        population, WORST_CASE, DDR4, SubarrayRole.AGGRESSOR,
        aggressor_local_row=32,
    )
    assert not outcome.included_rows[24:41].any()
    assert outcome.included_rows[23] and outcome.included_rows[41]
    assert np.isinf(outcome.cd_times[24:41]).all()


def test_outcome_only_charged_cells_flip(population):
    config = DisturbConfig(aggressor_pattern=0x00, victim_pattern=0xAA)
    outcome = disturb_outcome(
        population, config, DDR4, SubarrayRole.AGGRESSOR, aggressor_local_row=32
    )
    victim_bits = expand_pattern(0xAA, population.columns)
    zero_columns = np.nonzero(victim_bits == 0)[0]
    assert np.isinf(outcome.cd_times[:, zero_columns]).all()


@pytest.mark.parametrize("anti_fraction,victim_pattern", [
    (0.25, 0xFF),  # anti cells hold '1' discharged
    (0.0, 0xAA),  # a mixed victim pattern
    (0.25, 0x55),
])
def test_uncharged_cells_masked_as_np_where(anti_fraction, victim_pattern):
    """With uncharged cells the outcome masks its own flip times in place
    and copies the retention arrays: the same bits as `np.where` over
    fresh arrays, and the population's memo is left as it was."""
    profile = dataclasses.replace(PROFILE, anti_cell_fraction=anti_fraction)
    population = CellPopulation(
        key=("S0", 0, 0, 1), profile=profile, rows=64, columns=256
    )
    config = DisturbConfig(aggressor_pattern=0x00, victim_pattern=victim_pattern)
    outcome = disturb_outcome(
        population, config, DDR4, SubarrayRole.AGGRESSOR, aggressor_local_row=32
    )
    multipliers = aggressor_column_multipliers(
        profile, expand_pattern(0x00, 256), max(config.t_agg_on, DDR4.t_ras), DDR4.t_rp
    )
    rates = total_leakage_rates(
        population.lambda_int, population.kappa, multipliers, profile, 85.0
    )
    victim = expand_pattern(victim_pattern, 256) == 1
    charged = victim[np.newaxis, :] ^ population.anti_mask
    assert not charged.all()
    cd_times = np.where(charged, times_to_flip(rates), np.inf)
    cd_times[32 - GUARDBAND_ROWS : 32 + GUARDBAND_ROWS + 1] = np.inf
    nominal, worst = population.retention_time_arrays(85.0)
    assert outcome.cd_times.tobytes() == cd_times.tobytes()
    assert outcome.retention_nominal.tobytes() == np.where(charged, nominal, np.inf).tobytes()
    assert outcome.retention_worst.tobytes() == np.where(charged, worst, np.inf).tobytes()
    assert np.isfinite(nominal).all() and np.isfinite(worst).all()


def test_all_charged_outcome_holds_the_read_only_memo(population):
    """Every cell charged (victim all 1, no anti cells): the outcome holds
    the population's memoized retention arrays, which refuse writes."""
    outcome = disturb_outcome(
        population, WORST_CASE, DDR4, SubarrayRole.AGGRESSOR, aggressor_local_row=32
    )
    nominal, worst = population.retention_time_arrays(WORST_CASE.temperature_c)
    assert outcome.retention_nominal is nominal
    assert outcome.retention_worst is worst
    with pytest.raises(ValueError, match="read-only"):
        outcome.retention_worst[0, 0] = 0.0
    assert outcome.cd_times.flags.writeable


def test_time_to_first_flip_capped_at_search_interval(population):
    weak_config = WORST_CASE.at_temperature(45.0)
    outcome = disturb_outcome(
        population, weak_config, DDR4, SubarrayRole.IDLE
    )
    time = outcome.time_to_first_flip()
    assert time == float("inf") or time <= SEARCH_INTERVAL


def test_metrics_consistency(population):
    outcome = disturb_outcome(
        population, WORST_CASE, DDR4, SubarrayRole.AGGRESSOR,
        aggressor_local_row=32,
    )
    interval = 16.0
    per_row = outcome.per_row_flip_counts(interval)
    assert per_row.sum() == outcome.flip_count(interval)
    assert (per_row > 0).sum() == outcome.rows_with_flips(interval)
    assert outcome.fraction_with_flips(interval) == pytest.approx(
        outcome.flip_count(interval) / outcome.cd_times.size
    )


def test_counts_monotone_in_interval(population):
    outcome = disturb_outcome(
        population, WORST_CASE, DDR4, SubarrayRole.AGGRESSOR,
        aggressor_local_row=32,
    )
    counts = [outcome.flip_count(t) for t in (0.5, 1.0, 4.0, 16.0)]
    assert counts == sorted(counts)


def test_retention_filter_excludes_weak_cells(population):
    """A cell that fails retention within the interval must not count as a
    ColumnDisturb bitflip (§3.2 filtering)."""
    outcome = disturb_outcome(
        population, WORST_CASE, DDR4, SubarrayRole.AGGRESSOR,
        aggressor_local_row=32,
    )
    interval = 16.0
    flips = outcome._cd_flips(interval)
    assert not (flips & (outcome.retention_worst <= interval)).any()


def test_retention_outcome_counts_failures(population):
    outcome = retention_outcome(population, 85.0)
    assert outcome.flip_count(64.0) > 0
    assert outcome.flip_count(64.0) == outcome.retention_flip_count(64.0)


def test_retention_arrays_worst_below_nominal(population):
    nominal, worst = retention_time_arrays(population, 85.0)
    assert (worst <= nominal + 1e-12).all()


def test_cd_exceeds_retention_at_worst_case(population):
    """Obs 6/8: ColumnDisturb induces many more bitflips than retention."""
    cd = disturb_outcome(
        population, WORST_CASE, DDR4, SubarrayRole.AGGRESSOR,
        aggressor_local_row=32,
    )
    ret = retention_outcome(population, 85.0)
    assert cd.flip_count(16.0) > ret.flip_count(16.0)
    assert cd.time_to_first_flip() < ret.retention_nominal.min()
