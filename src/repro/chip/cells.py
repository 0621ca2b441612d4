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
from repro.physics.coupling import _times_to_flip_in_place, total_leakage_rates
from repro.physics.profile import DisturbanceProfile

_POPULATIONS_SAMPLED = obs.counter(
    "cells_populations_sampled_total",
    "Cell populations sampled from their key; an engine unit answered from "
    "a weak tail samples none.",
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


def retention_times(
    profile: DisturbanceProfile,
    lambda_int: np.ndarray,
    kappa: np.ndarray,
    temperature_c: float,
    worst: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Retention times (seconds) of cells with these parameters, bitline
    precharged: at nominal leakage, or with ``worst`` at the conservative
    worst-case VRT of `VRT_TRIALS` trials (the §3.2 exclusion filter).

    Elementwise, so any subset of a population's cells — a row block, the
    cells a summary needs — gets exactly its whole-array values.  ``out``
    (float64, the cells' shape) receives the rates and then the times.
    """
    if worst:
        vrt_worst = float(np.exp(profile.vrt_sigma * _EXPECTED_MAX_Z_50))
        lambda_int = lambda_int * np.float32(vrt_worst)
    cm_pre = profile.coupling_multiplier(V_PRECHARGE)
    rates = total_leakage_rates(
        lambda_int, kappa, cm_pre, profile, float(temperature_c), out=out
    )
    return _times_to_flip_in_place(rates)


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
        temperature and memoized.  The returned arrays are read-only: an
        outcome may hold them as they are (`disturb_outcome` does when every
        cell is charged), and an in-place write raises instead of changing
        the memo under every later caller.
        """
        key = float(temperature_c)
        if key not in self._retention_cache:
            _RETENTION_BUILDS.inc()
            times = tuple(
                retention_times(self.profile, self.lambda_int, self.kappa, key, worst)
                for worst in (False, True)
            )
            for array in times:
                array.flags.writeable = False
            self._retention_cache[key] = times
        return self._retention_cache[key]

    def vrt_jitter(self, trial_nonce: object) -> np.ndarray:
        """Per-cell VRT multipliers for one trial.

        Different ``trial_nonce`` values give independent draws; the same
        nonce always gives the same draw (trial reproducibility).
        """
        return self.profile.sample_vrt_jitter(
            derive_rng(*self.key, "vrt", trial_nonce), self.shape
        )
