"""ColumnDisturb exposure math: from bitline waveforms to bitflips.

The bender (and the analytic fast path used by the characterization
campaigns) reduces every experiment to, per cell:

* ``elapsed``  — wall-clock seconds since the cell was last written, and
* ``exposure`` — the accumulated coupling damage per unit kappa:
  ``integral of A_cd(T) * m(v_bitline(t)) dt``.

A charged cell has flipped once

    lambda_int * A_int(T) * vrt * elapsed  +  kappa * exposure  >=  Q_CRIT.

All functions here are vectorized over cell populations.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.obs import state as _obs_state
from repro.physics.constants import Q_CRIT, V_PRECHARGE
from repro.physics.profile import DisturbanceProfile
from repro.physics.voltage import VoltagePhase, waveform_period

_LEAKAGE_EVALS = obs.counter(
    "physics_leakage_evals_total",
    "Per-cell leakage-rate evaluations performed by the physics layer.",
)


def mean_coupling_multiplier(
    profile: DisturbanceProfile, phases: tuple[VoltagePhase, ...]
) -> float:
    """Time-averaged coupling multiplier of a periodic bitline waveform.

    This is the per-unit-kappa, per-second damage rate (at 85C) of a charged
    cell whose bitline follows ``phases`` periodically.  Phase-by-phase
    integration — NOT ``m(average voltage)`` — see the module docstring of
    `repro.physics.profile`.
    """
    period = waveform_period(phases)
    if period <= 0:
        raise ValueError("waveform has zero duration")
    weighted = sum(
        profile.coupling_multiplier(phase.voltage) * phase.duration
        for phase in phases
    )
    return weighted / period


def retention_coupling_multiplier(profile: DisturbanceProfile) -> float:
    """Coupling multiplier of an idle (precharged, VDD/2) bitline.

    Retention testing is not coupling-free: the precharged bitline sits a
    half-VDD below the charged cell, so part of every measured retention
    failure is bitline-coupling leakage.  This is what makes an all-1
    aggressor pattern (bitline at VDD, dV = 0) produce *fewer* bitflips than
    retention (Obs 10).
    """
    return profile.coupling_multiplier(V_PRECHARGE)


def driven_coupling_multipliers(
    bits: np.ndarray,
    cm_vdd: float,
    cm_gnd: float,
) -> np.ndarray:
    """Coupling multiplier of each *driven* bitline: bit 1 -> m(VDD),
    bit 0 -> m(GND).

    Works on any bit-array shape (a row vector or a whole aggressor
    batch); the per-element arithmetic is identical either way, which is
    what lets the batched bank kernel mirror the reference kernel
    bit-for-bit.
    """
    return np.where(np.asarray(bits) == 1, cm_vdd, cm_gnd)


def total_leakage_rates(
    lambda_int: np.ndarray,
    kappa: np.ndarray,
    coupling_multiplier: float | np.ndarray,
    profile: DisturbanceProfile,
    temperature_c: float,
    vrt: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cell total leakage rate (1/s) at ``temperature_c``.

    ``coupling_multiplier`` may be a scalar (uniform waveform) or an array
    broadcastable against the cell arrays (per-column waveforms).  ``out``,
    of the result's shape and dtype, receives the rates instead of a fresh
    array: a caller walking row blocks reuses one buffer.
    """
    if _obs_state.enabled:
        _LEAKAGE_EVALS.inc(np.size(lambda_int))
    a_int = profile.retention_temperature_factor(temperature_c)
    a_cd = profile.coupling_temperature_factor(temperature_c)
    intrinsic = lambda_int * a_int
    if vrt is not None:
        intrinsic = intrinsic * vrt
    factor = a_cd * np.asarray(coupling_multiplier)
    if out is not None and out.dtype != np.result_type(intrinsic, kappa, factor):
        raise ValueError("out must have the dtype of the rates")
    coupling = np.multiply(kappa, factor, out=out)
    if (
        isinstance(coupling, np.ndarray)
        and coupling.dtype == np.result_type(intrinsic, coupling)
        and coupling.shape == np.broadcast_shapes(np.shape(intrinsic), coupling.shape)
    ):
        # IEEE addition commutes, so summing into the fresh coupling term
        # is ``intrinsic + coupling`` bit for bit, without a second
        # full-size temporary.
        coupling += intrinsic
        return coupling
    return intrinsic + coupling


def flip_mask(rates: np.ndarray, duration: float) -> np.ndarray:
    """Boolean mask of cells whose accumulated leakage crossed Q_CRIT within
    ``duration`` seconds (assuming the cells are charged)."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    return rates * duration >= Q_CRIT


def time_to_first_flip(rates: np.ndarray) -> float:
    """Time (seconds) until the weakest charged cell in the population flips.

    Returns ``inf`` for an empty population or all-zero rates.
    """
    if rates.size == 0:
        return float("inf")
    peak = float(np.max(rates))
    if peak <= 0:
        return float("inf")
    return Q_CRIT / peak


def times_to_flip(rates: np.ndarray) -> np.ndarray:
    """Per-cell time-to-flip (seconds; inf where the rate is not positive)."""
    rates = np.asarray(rates)
    out = np.full(rates.shape, np.inf, dtype=np.result_type(rates, np.float64))
    with np.errstate(divide="ignore"):
        np.divide(Q_CRIT, rates, out=out, where=rates > 0)
    return out


def _times_to_flip_in_place(rates: np.ndarray) -> np.ndarray:
    """`times_to_flip` written over ``rates``, for a caller that owns a
    fresh rates array and has no further use for it."""
    if rates.dtype != np.float64:
        # `times_to_flip` answers in float64 (a float32 population times a
        # float32 multiplier array stays float32).
        return times_to_flip(rates)
    positive = rates > 0
    # An unmasked division is faster than one under ``where``, and exact
    # wherever the rate is positive; the rest become inf afterwards.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(Q_CRIT, rates, out=rates)
    if not positive.all():
        np.copyto(rates, np.inf, where=np.logical_not(positive, out=positive))
    return rates
