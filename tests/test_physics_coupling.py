"""Coupling exposure math: rates, flip masks, time-to-first-flip."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.physics import (
    DisturbanceProfile,
    flip_mask,
    mean_coupling_multiplier,
    retention_coupling_multiplier,
    single_aggressor_waveform,
    time_to_first_flip,
    times_to_flip,
    total_leakage_rates,
    two_aggressor_waveform,
)

PROFILE = DisturbanceProfile(
    median_retention=500.0,
    sigma_retention=1.3,
    median_kappa=1e-5,
    sigma_kappa=2.0,
    alpha=4.0,
    kappa_cap=0.05,
)


def test_phase_integration_not_average_voltage():
    """The two-aggressor pattern averages VDD/2 on the bitline, but its
    phase-integrated damage is about HALF the single-aggressor damage — not
    the (much smaller) damage of a constant-VDD/2 bitline.  This is the
    design choice that reconciles Obs 3 with Obs 21 (DESIGN.md §3)."""
    single = mean_coupling_multiplier(
        PROFILE, single_aggressor_waveform(0.0, 70.2e-6, 14e-9)
    )
    double = mean_coupling_multiplier(
        PROFILE, two_aggressor_waveform(0.0, 1.0, 70.2e-6, 14e-9)
    )
    constant_half = retention_coupling_multiplier(PROFILE)
    assert double == pytest.approx(single / 2, rel=0.01)
    assert double > 3 * constant_half


def test_retention_multiplier_positive():
    """Retention testing is not coupling-free (precharged bitline sits at
    VDD/2 below the cell)."""
    assert retention_coupling_multiplier(PROFILE) > 0


def test_rates_combine_channels():
    lam = np.array([0.01], dtype=np.float32)
    kap = np.array([0.001], dtype=np.float32)
    rates = total_leakage_rates(lam, kap, 10.0, PROFILE, 85.0)
    assert rates[0] == pytest.approx(0.01 + 0.001 * 10.0, rel=1e-5)


def test_rates_scale_with_temperature():
    lam = np.array([0.01], dtype=np.float32)
    kap = np.array([0.001], dtype=np.float32)
    hot = total_leakage_rates(lam, kap, 10.0, PROFILE, 95.0)
    cold = total_leakage_rates(lam, kap, 10.0, PROFILE, 45.0)
    assert hot[0] > cold[0]


def test_vrt_multiplies_intrinsic_only():
    lam = np.array([0.01], dtype=np.float32)
    kap = np.array([0.001], dtype=np.float32)
    vrt = np.array([2.0], dtype=np.float32)
    jittered = total_leakage_rates(lam, kap, 10.0, PROFILE, 85.0, vrt=vrt)
    assert jittered[0] == pytest.approx(0.02 + 0.001 * 10.0, rel=1e-5)


def test_rates_into_out_equal_fresh_rates():
    """A reused buffer receives the fresh result's bytes, for a scalar and a
    per-column multiplier; a buffer of another dtype is refused."""
    rng = np.random.default_rng(0)
    lam = rng.random((3, 4), dtype=np.float32)
    kap = rng.random((3, 4), dtype=np.float32)
    for multiplier in (10.0, np.linspace(1.0, 4.0, 4)):
        fresh = total_leakage_rates(lam, kap, multiplier, PROFILE, 85.0)
        out = np.full((3, 4), np.nan)
        rates = total_leakage_rates(lam, kap, multiplier, PROFILE, 85.0, out=out)
        assert rates is out
        assert rates.dtype == fresh.dtype and rates.tobytes() == fresh.tobytes()
    narrow = np.empty((3, 4), dtype=np.float32)
    with pytest.raises(ValueError, match="dtype"):
        total_leakage_rates(lam, kap, 10.0, PROFILE, 85.0, out=narrow)


def test_flip_mask_threshold():
    rates = np.array([1.0, 0.5, 0.1])
    assert flip_mask(rates, 1.0).tolist() == [True, False, False]
    assert flip_mask(rates, 2.0).tolist() == [True, True, False]


def test_flip_mask_rejects_negative_duration():
    with pytest.raises(ValueError):
        flip_mask(np.array([1.0]), -1.0)


def test_time_to_first_flip_is_inverse_peak_rate():
    rates = np.array([0.1, 2.0, 0.5])
    assert time_to_first_flip(rates) == pytest.approx(0.5)


def test_time_to_first_flip_empty_and_zero():
    assert time_to_first_flip(np.array([])) == float("inf")
    assert time_to_first_flip(np.zeros(4)) == float("inf")


def test_times_to_flip_handles_zero_rates():
    times = times_to_flip(np.array([0.0, 1.0]))
    assert times[0] == float("inf")
    assert times[1] == pytest.approx(1.0)


@given(st.floats(1e-9, 1e-2), st.floats(1e-9, 1e-2))
def test_mean_multiplier_between_phase_extremes(t_on, t_rp):
    waveform = single_aggressor_waveform(0.0, t_on, t_rp)
    mean = mean_coupling_multiplier(PROFILE, waveform)
    low = PROFILE.coupling_multiplier(0.5)
    high = PROFILE.coupling_multiplier(0.0)
    assert low - 1e-9 <= mean <= high + 1e-9


@given(st.floats(0.0, 1.0))
def test_mean_multiplier_monotone_in_pattern_voltage(voltage):
    """Lower driven voltage -> more coupling damage (Obs 12 direction)."""
    lower = mean_coupling_multiplier(
        PROFILE, single_aggressor_waveform(voltage, 1e-6, 14e-9)
    )
    higher = mean_coupling_multiplier(
        PROFILE, single_aggressor_waveform(min(1.0, voltage + 0.1), 1e-6, 14e-9)
    )
    assert lower >= higher
