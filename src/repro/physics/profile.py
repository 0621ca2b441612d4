"""Per-die disturbance profiles: the calibrated device parameters.

A :class:`DisturbanceProfile` bundles everything the simulator needs to know
about one DRAM die generation: how leaky its cells are (intrinsic retention),
how strongly its cells couple to their bitlines (the ColumnDisturb channel),
how both channels respond to temperature, and how vulnerable its rows are to
RowHammer/RowPress.

The ColumnDisturb channel
-------------------------
A charged victim cell on a bitline held at voltage ``v`` leaks with rate

    rate = lambda_int * A_int(T)  +  kappa * A_cd(T) * m(dV),
    dV   = V_cell - v,       m(dV) = exp(alpha * dV) - 1      (dV >= 0)

``m`` is the *coupling multiplier*.  The exponential dependence models
subthreshold conduction through the access transistor and dielectric leakage
between the capacitor contact and the bitline — the paper's key hypothesis
(§4.6) — and is what lets a cell that survives seconds of retention testing
(bitline at VDD/2, dV = 0.5) flip within the 64 ms refresh window when its
bitline is pressed to GND (dV = 1.0).

Damage is accumulated as the *time integral of the instantaneous rate* over
the bitline waveform phases.  This matters: the two-aggressor pattern of
§5.3 averages VDD/2 on the bitline, yet the paper measures it only ~2x less
effective than the single-aggressor pattern — exactly what phase integration
predicts (the bitline still spends half its driven time at GND), and very
unlike what any model keyed on the *average* voltage would predict.

Cell-to-cell variation
----------------------
``lambda_int`` and ``kappa`` are independent lognormals.  Independence is a
deliberate, paper-driven choice: ColumnDisturb-weak rows are *not* the
retention-weak rows (Obs 13: up to 198x more rows fail under ColumnDisturb
than retention), which requires the coupling susceptibility to vary
independently of intrinsic leakage.  The ablation bench
``bench_ablation_coupling`` shows how a correlated (or linear) model destroys
this separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.physics.constants import T_REFERENCE_C, V_CELL_CHARGED

#: Cells per row block in which a population is sampled and an engine unit
#: is summarized: a float64 block (512 KiB) and the few arrays built from
#: it stay in a core's L2 cache instead of streaming full-size temporaries.
BLOCK_CELLS = 1 << 16


def row_blocks(rows: int, columns: int) -> list[slice]:
    """Consecutive row slices of about `BLOCK_CELLS` cells, at least one
    row each, covering ``rows`` rows of ``columns`` cells."""
    step = max(1, BLOCK_CELLS // max(columns, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


@dataclass(frozen=True)
class DisturbanceProfile:
    """Calibrated device-level parameters for one die generation.

    Attributes:
        median_retention: median intrinsic time-to-flip (seconds at 85C) of a
            charged cell with its bitline precharged; lognormal median.
        sigma_retention: lognormal sigma (natural log) of intrinsic leakage.
        median_kappa: median bitline-coupling susceptibility (1/s); lognormal
            median before die scaling.
        sigma_kappa: lognormal sigma of the coupling susceptibility.
        alpha: exponent of the coupling multiplier ``exp(alpha * dV) - 1``.
        die_scale: technology-node multiplier on kappa.  Newer die revisions
            have larger values (capacitor contact closer to the bitline).
        retention_factor_per_10c: multiplicative increase of intrinsic
            leakage per +10C.
        coupling_factor_per_10c: multiplicative increase of the coupling
            channel per +10C (larger: Obs 17, ColumnDisturb is more
            temperature-sensitive than retention).
        kappa_cap: upper clip of the coupling susceptibility (before die
            scaling).  Physically, coupling between a capacitor contact and
            its bitline is geometrically bounded; in the model the cap sets
            the per-die *floor* of the time to the first ColumnDisturb
            bitflip, which is the paper's primary vulnerability metric, and
            the small population of cells at the cap reproduces the paper's
            abrupt blast-radius onset (hundreds of rows failing almost
            simultaneously once the floor is crossed, Obs 19).
        subarray_sigma: lognormal sigma of a per-subarray systematic
            multiplier on kappa (spatial variation across subarrays; gives
            the Fig. 6 distributions their spread).
        row_sigma: lognormal sigma of a per-row systematic multiplier on
            kappa (row-level fabrication variation).  This is what clusters
            ColumnDisturb bitflips within rows, producing the multi-bitflip
            8-byte datawords of Fig. 21 that defeat SECDED.  Applied before
            the cap, so per-die time-to-first-bitflip floors are unchanged.
        median_hc_first: median per-cell RowHammer threshold, in
            RowPress-amplified activations.  Calibrated jointly with
            ``sigma_hc`` and ``rowpress_tau`` so that 16 s of hammering
            (RowPress pressing) flips ~11.5% (~8%) of the cells in the +/-1
            neighbour rows, matching the Fig. 2 RowHammer/RowPress levels.
        sigma_hc: lognormal sigma of per-cell RowHammer thresholds.
        rowpress_tau: extra open time that doubles one activation's
            neighbour-row damage (RowPress amplification scale): pressing a
            row damages neighbours roughly in proportion to total open time.
        vrt_sigma: lognormal sigma of per-trial variable-retention-time
            jitter applied to intrinsic leakage.
        anti_cell_fraction: fraction of anti-cells (charge encodes '0').
    """

    median_retention: float
    sigma_retention: float
    median_kappa: float
    sigma_kappa: float
    alpha: float
    die_scale: float = 1.0
    kappa_cap: float = float("inf")
    subarray_sigma: float = 0.2
    row_sigma: float = 0.45
    retention_factor_per_10c: float = 1.45
    coupling_factor_per_10c: float = 1.60
    median_hc_first: float = 1.9e10
    sigma_hc: float = 3.0
    rowpress_tau: float = 70e-9
    vrt_sigma: float = 0.25
    anti_cell_fraction: float = 0.0

    def __post_init__(self) -> None:
        positive = (
            "median_retention",
            "sigma_retention",
            "median_kappa",
            "sigma_kappa",
            "alpha",
            "die_scale",
            "retention_factor_per_10c",
            "coupling_factor_per_10c",
            "median_hc_first",
            "sigma_hc",
            "rowpress_tau",
            "kappa_cap",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.vrt_sigma < 0:
            raise ValueError("vrt_sigma must be non-negative")
        if self.subarray_sigma < 0:
            raise ValueError("subarray_sigma must be non-negative")
        if self.row_sigma < 0:
            raise ValueError("row_sigma must be non-negative")
        if self.kappa_cap <= self.median_kappa:
            raise ValueError("kappa_cap must exceed median_kappa")
        if not 0.0 <= self.anti_cell_fraction < 1.0:
            raise ValueError("anti_cell_fraction must be in [0, 1)")

    # ------------------------------------------------------------------
    # Temperature scaling
    # ------------------------------------------------------------------
    def retention_temperature_factor(self, temperature_c: float) -> float:
        """Arrhenius-style intrinsic-leakage multiplier at ``temperature_c``
        relative to the 85C reference."""
        return self.retention_factor_per_10c ** ((temperature_c - T_REFERENCE_C) / 10.0)

    def coupling_temperature_factor(self, temperature_c: float) -> float:
        """Coupling-channel multiplier at ``temperature_c`` (reference 85C)."""
        return self.coupling_factor_per_10c ** ((temperature_c - T_REFERENCE_C) / 10.0)

    # ------------------------------------------------------------------
    # Coupling channel
    # ------------------------------------------------------------------
    def coupling_multiplier(self, bitline_voltage: float) -> float:
        """Instantaneous coupling multiplier ``m(dV)`` for a charged cell on a
        bitline at ``bitline_voltage`` (normalized)."""
        dv = max(0.0, V_CELL_CHARGED - bitline_voltage)
        return math.expm1(self.alpha * dv)

    def scaled_kappa_median(self) -> float:
        """Coupling-susceptibility median after die scaling."""
        return self.median_kappa * self.die_scale

    def scaled_kappa_cap(self) -> float:
        """Coupling-susceptibility cap after die scaling."""
        return self.kappa_cap * self.die_scale

    def first_flip_floor(self, temperature_c: float = T_REFERENCE_C) -> float:
        """Analytic floor of the time to the first ColumnDisturb bitflip: a
        cap-susceptibility cell on a bitline pressed to GND.  Per-subarray
        spatial variation spreads measured values around this floor."""
        rate = (
            self.scaled_kappa_cap()
            * self.coupling_temperature_factor(temperature_c)
            * self.coupling_multiplier(0.0)
        )
        return float("inf") if rate == 0 else 1.0 / rate

    # ------------------------------------------------------------------
    # Population sampling
    # ------------------------------------------------------------------
    def _sample_lognormal(
        self,
        rng: np.random.Generator,
        mu: float,
        sigma: float,
        shape: tuple[int, ...],
        row_factors: np.ndarray | None = None,
        cap: float = math.inf,
    ) -> np.ndarray:
        """``exp(float32(normal(mu, sigma)))`` per cell, times the row's
        factor and clipped at ``cap``, built one row block at a time.

        Consecutive draws from one generator equal one whole-array draw bit
        for bit, so each block's float64 draw is rounded, exponentiated,
        scaled and clipped while it is still in cache, with no full-size
        float64 temporary.
        """
        out = np.empty(shape, dtype=np.float32)
        if out.size == 0:
            return out
        cells = out.reshape(out.shape[0], -1) if out.ndim else out.reshape(1, 1)
        factors = None if row_factors is None else row_factors.astype(np.float32)
        for rows in row_blocks(*cells.shape):
            block = cells[rows]
            block[...] = rng.normal(mu, sigma, size=block.shape)
            np.exp(block, out=block)
            if factors is not None:
                block *= factors[rows, np.newaxis]
            if math.isfinite(cap):
                np.minimum(block, np.float32(cap), out=block)
        return out

    def sample_intrinsic_rates(
        self, rng: np.random.Generator, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Sample per-cell intrinsic leakage rates (1/s at 85C)."""
        mu = -math.log(self.median_retention)
        return self._sample_lognormal(rng, mu, self.sigma_retention, shape)

    def sample_kappas(
        self,
        rng: np.random.Generator,
        shape: tuple[int, ...],
        row_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sample per-cell coupling susceptibilities (1/s at 85C).

        ``row_factors`` (one multiplier per row, see `sample_row_factors`)
        models row-level fabrication variation; it is applied BEFORE the
        die cap so the cap remains the per-die vulnerability ceiling.
        Callers apply the per-subarray spatial factor on top
        (see `sample_subarray_scale`).
        """
        if row_factors is not None and row_factors.shape != (shape[0],):
            raise ValueError("row_factors must have one entry per row")
        mu = math.log(self.scaled_kappa_median())
        return self._sample_lognormal(
            rng, mu, self.sigma_kappa, shape, row_factors, self.scaled_kappa_cap()
        )

    def sample_row_factors(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """Sample per-row systematic coupling multipliers (median 1.0)."""
        if self.row_sigma == 0:
            return np.ones(rows, dtype=np.float32)
        return np.exp(rng.normal(0.0, self.row_sigma, size=rows)).astype(np.float32)

    def sample_subarray_scale(self, rng: np.random.Generator) -> float:
        """Sample one subarray's systematic coupling multiplier."""
        if self.subarray_sigma == 0:
            return 1.0
        return float(np.exp(rng.normal(0.0, self.subarray_sigma)))

    def sample_hammer_thresholds(
        self, rng: np.random.Generator, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Sample per-cell RowHammer first-bitflip thresholds (activations)."""
        mu = math.log(self.median_hc_first)
        return np.exp(rng.normal(mu, self.sigma_hc, size=shape).astype(np.float32))

    def sample_vrt_jitter(
        self, rng: np.random.Generator, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Sample per-cell VRT multipliers for one trial (median 1.0)."""
        if self.vrt_sigma == 0:
            return np.ones(shape, dtype=np.float32)
        return np.exp(rng.normal(0.0, self.vrt_sigma, size=shape).astype(np.float32))

    def rowpress_amplification(self, t_agg_on: float, t_ras: float) -> float:
        """RowPress hammer-count amplification for aggressor-on time
        ``t_agg_on``: each activation counts as this many minimum-length
        activations toward a neighbour cell's threshold."""
        extra = max(0.0, t_agg_on - t_ras)
        return 1.0 + extra / self.rowpress_tau

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_die_scale(self, die_scale: float) -> "DisturbanceProfile":
        """Copy of this profile with a different technology-node scale."""
        return replace(self, die_scale=die_scale)
