"""Deterministic per-subarray cell populations.

Simulated silicon must behave like silicon: the same cell must have the same
intrinsic leakage, coupling susceptibility, and hammer threshold every time
any experiment looks at it.  A :class:`CellPopulation` therefore derives all
per-cell arrays from a stable key (module serial, chip, bank, subarray), so
populations can be created lazily, dropped, and recreated bit-identically.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro._util.rng import derive_rng
from repro.physics.constants import V_PRECHARGE
from repro.physics.coupling import _times_to_flip_in_place, leakage_rates
from repro.physics.profile import DisturbanceProfile, sample_lognormals

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


@dataclass(frozen=True)
class Leakage:
    """Dies' leakage factors at one temperature each, in the dtype each
    meets in `leakage_rates`, one entry per die shaped ``(dies, 1, 1)``
    to broadcast against a stack of the dies' cell arrays.

    Attributes:
        intrinsic: intrinsic-leakage temperature factor (float32: it
            scales float32 rates, as a Python float factor would).
        coupling: coupling-channel temperature factor (float64).
        precharged: ``coupling`` times the multiplier of a precharged
            bitline (float64).
        vrt_worst: the conservative worst-case VRT multiplier of
            `VRT_TRIALS` trials (float32).
    """

    intrinsic: np.ndarray
    coupling: np.ndarray
    precharged: np.ndarray
    vrt_worst: np.ndarray

    @classmethod
    def at(
        cls, profiles: Sequence[DisturbanceProfile], temperatures: Sequence[float]
    ) -> "Leakage":
        """The factors of each die at its temperature."""
        factors = []
        for profile, temperature in zip(profiles, temperatures, strict=True):
            temperature = float(temperature)
            a_cd = profile.coupling_temperature_factor(temperature)
            factors.append(
                (
                    profile.retention_temperature_factor(temperature),
                    a_cd,
                    a_cd * profile.coupling_multiplier(V_PRECHARGE),
                    float(np.exp(profile.vrt_sigma * _EXPECTED_MAX_Z_50)),
                )
            )
        table = np.array(factors).T.reshape(4, -1, 1, 1)
        intrinsic, coupling, precharged, vrt_worst = table
        return cls(
            intrinsic.astype(np.float32),
            coupling,
            precharged,
            vrt_worst.astype(np.float32),
        )

    def __getitem__(self, index) -> "Leakage":
        """Each factor indexed alike (a slice of the dies)."""
        return Leakage(
            self.intrinsic[index],
            self.coupling[index],
            self.precharged[index],
            self.vrt_worst[index],
        )

    def repeat(self, counts: Sequence[int]) -> "Leakage":
        """One flat entry per cell of a list that holds ``counts[i]``
        cells of die ``i``, in die order."""
        return Leakage(
            self.intrinsic.reshape(-1).repeat(counts),
            self.coupling.reshape(-1).repeat(counts),
            self.precharged.reshape(-1).repeat(counts),
            self.vrt_worst.reshape(-1).repeat(counts),
        )


def retention_times(
    lambda_int: np.ndarray,
    kappa: np.ndarray,
    leakage: Leakage,
    worst: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Retention times (seconds) of cells with these parameters, bitline
    precharged: at nominal leakage, or with ``worst`` at the conservative
    worst-case VRT of `VRT_TRIALS` trials (the §3.2 exclusion filter).

    Elementwise, so any subset of a population's cells — a row block, the
    cells a summary needs, a stack of several dies' cells with ``leakage``
    broadcast against them — gets exactly its whole-array values.  ``out``
    (float64, the cells' shape) receives the rates and then the times.
    """
    if worst:
        lambda_int = lambda_int * leakage.vrt_worst
    rates = leakage_rates(
        lambda_int, kappa, leakage.intrinsic, leakage.precharged, out=out
    )
    return _times_to_flip_in_place(rates)


@dataclass
class PopulationStack:
    """Per-cell device parameters of equal-shaped subarrays, drawn into one
    stacked pair of float32 arrays.

    Subarray ``i`` is drawn from its own key's generators into
    ``lambda_int[i]`` and ``kappa[i]``, and then one exponentiation, row
    factor and cap pass runs over the stack
    (`repro.physics.profile.sample_lognormals`): its arrays are bit for
    bit the ones it draws alone, and a `CellPopulation` is a stack of one.

    Attributes:
        keys: each subarray's stable identity.
        profiles: each subarray's die profile.
        rows / columns: shape of every subarray.
    """

    keys: tuple[tuple, ...]
    profiles: tuple[DisturbanceProfile, ...]
    rows: int
    columns: int
    lambda_int: np.ndarray = field(init=False, repr=False)
    kappa: np.ndarray = field(init=False, repr=False)
    subarray_scales: tuple[float, ...] = field(init=False, repr=False)
    _anti: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise ValueError("population must have at least one cell")
        if not self.keys or len(self.keys) != len(self.profiles):
            raise ValueError("a stack needs one profile per key, and a key")
        pairs = list(zip(self.keys, self.profiles))
        shape = (self.rows, self.columns)
        self.lambda_int = sample_lognormals(
            [p.intrinsic_draw(derive_rng(*key, "lambda_int")) for key, p in pairs], shape
        )
        row_factors = np.stack(
            [
                p.sample_row_factors(derive_rng(*key, "row_factors"), self.rows)
                for key, p in pairs
            ]
        )
        caps = np.array([p.scaled_kappa_cap() for p in self.profiles], dtype=np.float32)
        self.kappa = sample_lognormals(
            [p.kappa_draw(derive_rng(*key, "kappa")) for key, p in pairs],
            shape,
            row_factors,
            caps if np.isfinite(caps).any() else None,
        )
        self.subarray_scales = tuple(
            p.sample_subarray_scale(derive_rng(*key, "subarray_scale"))
            for key, p in pairs
        )
        scales = np.array(self.subarray_scales, dtype=np.float32)
        self.kappa *= scales[:, np.newaxis, np.newaxis]
        _POPULATIONS_SAMPLED.inc(len(pairs))

    @property
    def anti_masks(self) -> np.ndarray | None:
        """Anti-cell masks, ``(subarrays, rows, columns)``, drawn on first
        use; ``None`` when no die of the stack has anti-cells."""
        if self._anti is None and any(p.anti_cell_fraction for p in self.profiles):
            masks = np.zeros((len(self.keys), self.rows, self.columns), dtype=bool)
            for mask, key, profile in zip(masks, self.keys, self.profiles):
                if profile.anti_cell_fraction:
                    rng = derive_rng(*key, "anti")
                    mask[...] = rng.random(mask.shape) < profile.anti_cell_fraction
            self._anti = masks
        return self._anti


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
    stack: PopulationStack = field(init=False, repr=False)
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
        self.stack = PopulationStack(
            (self.key,), (self.profile,), self.rows, self.columns
        )
        self._lambda_int = self.stack.lambda_int[0]
        self._kappa = self.stack.kappa[0]
        self.subarray_scale = self.stack.subarray_scales[0]

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
            masks = self.stack.anti_masks
            self._anti_mask = np.zeros(self.shape, bool) if masks is None else masks[0]
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
            leakage = Leakage.at((self.profile,), (key,))
            stack = self.stack
            times = tuple(
                retention_times(stack.lambda_int, stack.kappa, leakage, worst)[0]
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
