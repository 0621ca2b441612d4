"""Deterministic per-subarray cell populations.

Simulated silicon must behave like silicon: the same cell must have the same
intrinsic leakage, coupling susceptibility, and hammer threshold every time
any experiment looks at it.  A :class:`CellPopulation` therefore derives all
per-cell arrays from a stable key (module serial, chip, bank, subarray), so
populations can be created lazily, dropped, and recreated bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro._util.rng import derive_rng
from repro.physics.constants import V_PRECHARGE
from repro.physics.coupling import times_to_flip, total_leakage_rates
from repro.physics.profile import DisturbanceProfile

_POPULATIONS_SAMPLED = obs.counter(
    "cells_populations_sampled_total",
    "Cell populations sampled from scratch (not served by a module pool).",
)
_RETENTION_BUILDS = obs.counter(
    "cells_retention_array_builds_total",
    "Retention-time array computations (memoization misses).",
)

#: The paper's retention-test repetition count (§3.2) and the expected
#: maximum of that many standard normal draws — used as the conservative
#: (worst-case-VRT) leakage multiplier of the analytic retention filter.
VRT_TRIALS = 50
_EXPECTED_MAX_Z_50 = 2.25


@dataclass
class CellPopulation:
    """Per-cell device parameters of one subarray.

    Attributes:
        key: stable identity, e.g. ``("S0", chip, bank, subarray)``.
        profile: die-generation parameters used for sampling.
        rows: rows in the subarray.
        columns: columns in the subarray.
    """

    key: tuple
    profile: DisturbanceProfile
    rows: int
    columns: int
    _lambda_int: np.ndarray = field(init=False, repr=False)
    _kappa: np.ndarray = field(init=False, repr=False)
    _hammer_thresholds: np.ndarray | None = field(
        init=False, repr=False, default=None
    )
    _anti_mask: np.ndarray | None = field(init=False, repr=False, default=None)
    _retention_cache: dict[float, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise ValueError("population must have at least one cell")
        shape = (self.rows, self.columns)
        self._lambda_int = self.profile.sample_intrinsic_rates(
            derive_rng(*self.key, "lambda_int"), shape
        )
        row_factors = self.profile.sample_row_factors(
            derive_rng(*self.key, "row_factors"), self.rows
        )
        self._kappa = self.profile.sample_kappas(
            derive_rng(*self.key, "kappa"), shape, row_factors=row_factors
        )
        self.subarray_scale = self.profile.sample_subarray_scale(
            derive_rng(*self.key, "subarray_scale")
        )
        self._kappa *= np.float32(self.subarray_scale)
        _POPULATIONS_SAMPLED.inc()

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of the subarray."""
        return (self.rows, self.columns)

    @property
    def lambda_int(self) -> np.ndarray:
        """Per-cell intrinsic leakage rates (1/s at 85C), shape (rows, cols)."""
        return self._lambda_int

    @property
    def kappa(self) -> np.ndarray:
        """Per-cell bitline-coupling susceptibilities (1/s at 85C)."""
        return self._kappa

    @property
    def hammer_thresholds(self) -> np.ndarray:
        """Per-cell RowHammer first-flip thresholds (activations); sampled
        lazily because many experiments never exercise RowHammer."""
        if self._hammer_thresholds is None:
            self._hammer_thresholds = self.profile.sample_hammer_thresholds(
                derive_rng(*self.key, "hammer"), self.shape
            )
        return self._hammer_thresholds

    @property
    def anti_mask(self) -> np.ndarray:
        """Boolean mask of anti-cells (charge encodes data '0')."""
        if self._anti_mask is None:
            fraction = self.profile.anti_cell_fraction
            if fraction == 0.0:
                self._anti_mask = np.zeros(self.shape, dtype=bool)
            else:
                rng = derive_rng(*self.key, "anti")
                self._anti_mask = rng.random(self.shape) < fraction
        return self._anti_mask

    def gather(
        self, local_rows: np.ndarray | slice
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda_int, kappa, anti_mask) sliced to ``local_rows`` in one
        call — the read-path gather used by the bank kernels.  Accepts a
        basic slice for contiguous row runs, in which case the returned
        arrays are zero-copy views; callers must not mutate them."""
        return (
            self._lambda_int[local_rows],
            self._kappa[local_rows],
            self.anti_mask[local_rows],
        )

    def retention_time_arrays(
        self, temperature_c: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(nominal, conservative-worst-VRT) per-cell retention times.

        Retention times depend only on the population and the temperature —
        never on the disturb condition — so they are computed once per
        temperature and memoized.  Callers must treat the returned arrays as
        read-only (`disturb_outcome` composes them with ``np.where``, which
        copies).
        """
        key = float(temperature_c)
        if key not in self._retention_cache:
            _RETENTION_BUILDS.inc()
            cm_pre = self.profile.coupling_multiplier(V_PRECHARGE)
            nominal_rates = total_leakage_rates(
                self.lambda_int, self.kappa, cm_pre, self.profile, key
            )
            vrt_worst = float(np.exp(self.profile.vrt_sigma * _EXPECTED_MAX_Z_50))
            worst_rates = total_leakage_rates(
                self.lambda_int * np.float32(vrt_worst),
                self.kappa,
                cm_pre,
                self.profile,
                key,
            )
            self._retention_cache[key] = (
                times_to_flip(nominal_rates),
                times_to_flip(worst_rates),
            )
        return self._retention_cache[key]

    def vrt_jitter(self, trial_nonce: object) -> np.ndarray:
        """Per-cell VRT multipliers for one trial.

        Different ``trial_nonce`` values give independent draws; the same
        nonce always gives the same draw (trial reproducibility).
        """
        return self.profile.sample_vrt_jitter(
            derive_rng(*self.key, "vrt", trial_nonce), self.shape
        )
