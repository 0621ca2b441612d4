"""Simulated DRAM bank: array state plus disturbance bookkeeping.

The bank tracks, instead of simulating every cell every nanosecond, three
monotone "damage clocks" and per-row baselines:

* ``intrinsic clock``   — integral of the intrinsic-leakage temperature
  factor over time.  A cell's intrinsic damage is
  ``lambda_int * vrt * (clock_now - clock_at_last_restore)``.
* ``precharge clock``   — integral of the coupling temperature factor times
  the precharge-level coupling multiplier m(VDD/2): the coupling damage a
  cell accrues whenever its bitline is idle.
* ``extra exposure``    — a per-(subarray, column) vector holding the
  integral of ``A_cd * (m(v_driven) - m(VDD/2))`` over periods when the
  column is *driven* by an open row.  Driving to GND makes this strongly
  positive; driving to VDD makes it (slightly) negative — which is exactly
  why an all-1 aggressor produces fewer bitflips than retention (Obs 10).

A cell has flipped once

    lambda_int * vrt * d_intrinsic + kappa * (d_precharge + d_extra) >= Q_CRIT

where each ``d_*`` is measured since the cell's row was last written,
refreshed, or activated (all three restore charge).  Bitflips are evaluated
lazily at read time, which makes million-activation hammer campaigns cheap:
a hammer loop is one vectorized exposure update, not N events.

RowHammer/RowPress damage to the +/-1 physical neighbours of each activated
row is tracked in a separate per-row hammer ledger and evaluated with
`repro.physics.rowhammer` at read time.

How the per-row work is scheduled — one Python pass per row, or flat-array
batches — is a pluggable execution kernel (`repro.chip.kernels`): pass
``kernel="batched"`` (the default) or ``kernel="reference"``.  Both
kernels are bit-identical; the reference kernel is the parity oracle.

Addresses at this layer are PHYSICAL row addresses; logical translation
lives in `repro.chip.module` / the bender.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro import obs
from repro.chip.cells import CellPopulation
from repro.chip.datapattern import expand_pattern
from repro.chip.geometry import BankGeometry
from repro.chip.kernels import BankKernel, make_kernel
from repro.chip.timing import TimingParameters
from repro.obs import state as _obs_state
from repro.physics.constants import T_REFERENCE_C, V_PRECHARGE
from repro.physics.coupling import driven_coupling_multipliers
from repro.physics.profile import DisturbanceProfile

_REBASELINED = obs.counter(
    "bank_rebaselined_rows_total",
    "Rows whose damage baselines were reset (writes/refreshes/activations).",
)
_CHECKPOINTS = obs.counter(
    "bank_exposure_checkpoints_total",
    "Column-exposure checkpoints materialized during rebaselining.",
)
_CHECKPOINTS_PRUNED = obs.counter(
    "bank_exposure_checkpoints_pruned_total",
    "Exposure checkpoints dropped once no row referenced them.",
)
_ACTIVATIONS = obs.counter(
    "bank_activations_total",
    "Row activations applied to bank physics (hammer loops count each "
    "constituent activation).",
)
_DRIVEN_SECONDS = obs.counter(
    "bank_column_driven_seconds_total",
    "Seconds of bitline driving accumulated across activations.",
)


class SimulatedBank:
    """One DRAM bank with deterministic simulated silicon.

    Args:
        key: stable identity prefix, e.g. ``("S0", chip_index, bank_index)``;
            the per-subarray cell populations derive from it.
        geometry: bank shape and open-bitline topology.
        profile: die-generation disturbance parameters.
        timing: DRAM timing parameters (tRAS/tRP bounds for activations).
        temperature_c: initial device temperature.
        kernel: hot-path execution kernel — ``"batched"`` (default) or
            ``"reference"``, a `BankKernel` instance, or ``None`` for the
            default.
    """

    def __init__(
        self,
        key: tuple,
        geometry: BankGeometry,
        profile: DisturbanceProfile,
        timing: TimingParameters,
        temperature_c: float = T_REFERENCE_C,
        kernel: str | BankKernel | None = None,
    ) -> None:
        self.key = key
        self.geometry = geometry
        self.profile = profile
        self.timing = timing
        self.temperature_c = temperature_c
        self._kernel = make_kernel(kernel)

        rows, cols, subs = geometry.rows, geometry.columns, geometry.subarrays
        self.now = 0.0
        self._populations: dict[int, CellPopulation] = {}
        self._baseline = np.zeros((rows, cols), dtype=np.uint8)
        # Damage clocks (see module docstring).
        self._intrinsic_clock = 0.0
        self._precharge_clock = 0.0
        self._extra = np.zeros((subs, cols), dtype=np.float64)
        # Per-row baselines.
        self._int_base = np.zeros(rows, dtype=np.float64)
        self._pre_base = np.zeros(rows, dtype=np.float64)
        self._extra_version = np.zeros(subs, dtype=np.int64)
        self._extra_ckpt_id = np.zeros(rows, dtype=np.int64)
        self._extra_checkpoints: list[dict[int, np.ndarray]] = [
            {0: np.zeros(cols, dtype=np.float64)} for _ in range(subs)
        ]
        # Incoming-hammer ledger (effective activations aimed at each row).
        self._hammer_in = np.zeros(rows, dtype=np.float64)
        self._hammer_base = np.zeros(rows, dtype=np.float64)
        # Variable-retention-time trial nonce (None = nominal leakage).
        self._vrt_nonce: object | None = None
        self._vrt_cache: dict[int, np.ndarray] = {}

    @property
    def kernel(self) -> str:
        """Name of the active hot-path execution kernel."""
        return self._kernel.name

    # ------------------------------------------------------------------
    # Populations and trials
    # ------------------------------------------------------------------
    def population(self, subarray: int) -> CellPopulation:
        """Cell population of ``subarray`` (created lazily, deterministic)."""
        if subarray not in self._populations:
            self._populations[subarray] = CellPopulation(
                key=(*self.key, subarray),
                profile=self.profile,
                rows=self.geometry.subarray_rows(subarray),
                columns=self.geometry.columns,
            )
        return self._populations[subarray]

    def set_trial_nonce(self, nonce: object | None) -> None:
        """Select the VRT trial: per-trial leakage jitter is derived from the
        nonce.  ``None`` disables jitter (nominal leakage)."""
        self._vrt_nonce = nonce
        self._vrt_cache.clear()

    def _vrt(self, subarray: int) -> np.ndarray | None:
        if self._vrt_nonce is None:
            return None
        if subarray not in self._vrt_cache:
            self._vrt_cache[subarray] = self.population(subarray).vrt_jitter(
                self._vrt_nonce
            )
        return self._vrt_cache[subarray]

    # ------------------------------------------------------------------
    # Writes / restores
    # ------------------------------------------------------------------
    def write_row(self, row: int, bits: np.ndarray | int) -> None:
        """Write ``bits`` (a bit vector or a repeating pattern byte) to a
        physical row; restores the row's charge."""
        self.geometry._check_row(row)
        self._baseline[row] = self._coerce_bits(bits)
        self._rebaseline([row])

    def fill(self, pattern: int | np.ndarray) -> None:
        """Write every row of the bank with a pattern byte or bit vector."""
        self._baseline[:, :] = self._coerce_bits(pattern)[np.newaxis, :]
        self._rebaseline(range(self.geometry.rows))

    def fill_rows(self, rows: Iterable[int], pattern: int | np.ndarray) -> None:
        """Write a pattern to a set of physical rows."""
        rows = list(rows)
        bits = self._coerce_bits(pattern)
        for row in rows:
            self.geometry._check_row(row)
        self._kernel.write_rows(self, rows, bits)
        self._rebaseline(rows)

    def refresh_rows(self, rows: Iterable[int]) -> None:
        """Refresh rows: restore charge, preserving any flips already
        accumulated (a refresh cannot undo a bitflip)."""
        rows = list(rows)
        self._kernel.refresh_rows(self, rows)
        self._rebaseline(rows)

    def refresh_all(self) -> None:
        """Refresh every row of the bank."""
        self.refresh_rows(range(self.geometry.rows))

    def _rebaseline(self, rows: Iterable[int]) -> None:
        """Reset damage baselines of freshly-restored rows to 'now'."""
        idx = np.fromiter(rows, dtype=np.int64)
        if _obs_state.enabled:
            _REBASELINED.inc(idx.size)
        self._int_base[idx] = self._intrinsic_clock
        self._pre_base[idx] = self._precharge_clock
        self._hammer_base[idx] = self._hammer_in[idx]
        idx_subarrays = self.geometry.subarrays_of_rows(idx)
        for subarray in np.unique(idx_subarrays):
            version = int(self._extra_version[subarray])
            checkpoints = self._extra_checkpoints[subarray]
            if version not in checkpoints:
                checkpoints[version] = self._extra[subarray].copy()
                _CHECKPOINTS.inc()
            in_sub = idx[idx_subarrays == subarray]
            self._extra_ckpt_id[in_sub] = version
            self._prune_checkpoints(int(subarray))

    def _prune_checkpoints(self, subarray: int) -> None:
        """Drop exposure checkpoints no longer referenced by any row.

        Restoring a row moves its ``_extra_ckpt_id`` forward; without
        pruning, refresh-heavy runs accumulate one column-vector copy per
        version forever.  A checkpoint is only ever consulted through the
        subarray's own rows, so liveness is decidable locally.
        """
        checkpoints = self._extra_checkpoints[subarray]
        if len(checkpoints) <= 1:
            return
        row_range = self.geometry.row_range(subarray)
        live = set(
            np.unique(self._extra_ckpt_id[row_range.start:row_range.stop])
            .tolist()
        )
        for version in [v for v in checkpoints if v not in live]:
            del checkpoints[version]
            _CHECKPOINTS_PRUNED.inc()

    def _coerce_bits(self, bits: np.ndarray | int) -> np.ndarray:
        if isinstance(bits, (int, np.integer)):
            return expand_pattern(int(bits), self.geometry.columns)
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.shape != (self.geometry.columns,):
            raise ValueError(
                f"bit vector shape {arr.shape} != ({self.geometry.columns},)"
            )
        if np.any(arr > 1):
            raise ValueError("bit vector entries must be 0 or 1")
        return arr

    # ------------------------------------------------------------------
    # Time advancement and disturbance
    # ------------------------------------------------------------------
    def idle(self, duration: float) -> None:
        """Advance time with the bank precharged (a retention interval)."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._advance_clocks(duration)

    def hammer(
        self,
        row: int,
        count: int,
        t_agg_on: float | None = None,
        t_rp: float | None = None,
    ) -> None:
        """Repeatedly activate ``row``: ``count`` iterations of
        ``ACT -> (t_agg_on) -> PRE -> (t_rp)`` (§3.2 access pattern).

        ``t_agg_on`` below tRAS is clamped to tRAS; ``count == 1`` with a
        large ``t_agg_on`` is a RowPress-style single press.
        """
        self.hammer_sequence([row], count, t_agg_on=t_agg_on, t_rp=t_rp)

    def press(self, row: int, duration: float) -> None:
        """Keep ``row`` open for ``duration`` (one long activation)."""
        self.hammer_sequence([row], 1, t_agg_on=duration)

    def hammer_sequence(
        self,
        rows: Sequence[int],
        count: int,
        t_agg_on: float | None = None,
        t_rp: float | None = None,
    ) -> None:
        """``count`` iterations of activating each row in ``rows`` in turn
        (the §5.3 multi-aggressor pattern generalized).

        Each aggressor's content is sensed at the start and drives its
        subarray's bitlines (and the shared halves of the neighbouring
        subarrays' bitlines) for ``t_agg_on`` per activation.  The +/-1
        physical neighbours of every aggressor accrue RowHammer/RowPress
        damage.  Aggressor rows are charge-restored throughout.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0 or not rows:
            return
        t_agg_on = self.timing.t_ras if t_agg_on is None else t_agg_on
        t_agg_on = max(t_agg_on, self.timing.t_ras)
        t_rp = self.timing.t_rp if t_rp is None else t_rp
        if t_rp < self.timing.t_rp * (1 - 1e-9):
            raise ValueError(f"t_rp {t_rp} below the minimum {self.timing.t_rp}")

        duration = count * len(rows) * (t_agg_on + t_rp)
        if _obs_state.enabled:
            _ACTIVATIONS.inc(count * len(rows))

        for row in rows:
            self.geometry._check_row(row)
        row_idx = np.asarray(rows, dtype=np.int64)
        aggressor_bits = self._evaluate_rows(row_idx)

        self._kernel.register_activations(
            self,
            rows,
            aggressor_bits,
            count * t_agg_on,
            count * self.profile.rowpress_amplification(t_agg_on, self.timing.t_ras),
        )

        self._advance_clocks(duration)
        # Aggressors were restored continuously while open; give them fresh
        # baselines at the end of the loop, preserving their sensed content.
        self._baseline[row_idx] = aggressor_bits
        self._rebaseline(list(rows))

    def press_interval(self, row: int, duration: float) -> np.ndarray:
        """One activation: ``row`` open for ``duration``, then precharged.

        Unlike `hammer`, no tRP recovery time is appended — this is the
        primitive the command-level executor composes arbitrary programs
        from.  Returns the bits sensed (and restored) by the activation.
        """
        self.geometry._check_row(row)
        duration = max(duration, self.timing.t_ras)
        bits = self.read_row(row)
        _ACTIVATIONS.inc()
        self._kernel.register_activations(
            self,
            [row],
            bits[np.newaxis, :],
            duration,
            self.profile.rowpress_amplification(duration, self.timing.t_ras),
        )
        self._advance_clocks(duration)
        self._baseline[row] = bits
        self._rebaseline([row])
        return bits

    def _register_driving(self, row: int, bits: np.ndarray, driven_time: float) -> None:
        """Account for ``row``'s content driving its subarray's bitlines (and
        the shared halves of the neighbouring subarrays') for ``driven_time``
        seconds."""
        if _obs_state.enabled:
            _DRIVEN_SECONDS.inc(driven_time)
        a_cd = self.profile.coupling_temperature_factor(self.temperature_c)
        cm_pre = self.profile.coupling_multiplier(V_PRECHARGE)
        cm_gnd = self.profile.coupling_multiplier(0.0)
        cm_vdd = self.profile.coupling_multiplier(1.0)
        subarray = self.geometry.subarray_of_row(row)
        # Coupling multiplier of each driven bitline: bit 1 -> VDD, 0 -> GND.
        cm_cols = driven_coupling_multipliers(bits, cm_vdd, cm_gnd)
        self._add_extra(subarray, a_cd * (cm_cols - cm_pre) * driven_time)
        for neighbour in self.geometry.neighbouring_subarrays(subarray):
            self._add_extra(
                neighbour,
                self._neighbour_extra(subarray, neighbour, bits, cm_vdd, cm_gnd, cm_pre)
                * (a_cd * driven_time),
            )

    def _register_hammer(self, row: int, effective_count: float) -> None:
        """Credit RowHammer/RowPress damage to the +/-1 physical neighbours
        of an activated row (within the same subarray only: sense-amplifier
        strips separate subarrays)."""
        subarray = self.geometry.subarray_of_row(row)
        for victim in (row - 1, row + 1):
            if (
                0 <= victim < self.geometry.rows
                and self.geometry.subarray_of_row(victim) == subarray
            ):
                self._hammer_in[victim] += effective_count

    def _neighbour_extra(
        self,
        aggressor_subarray: int,
        neighbour: int,
        aggressor_bits: np.ndarray,
        cm_vdd: float,
        cm_gnd: float,
        cm_pre: float,
    ) -> np.ndarray:
        """Per-column (m(v) - m(VDD/2)) vector for a neighbouring subarray.

        Only the parity-matched half of the neighbour's columns is shared
        with (and driven by) the aggressor subarray; the shared bitline of
        neighbour column ``c`` is aggressor column ``c + 1`` (upper
        neighbour, odd columns) or ``c - 1`` (lower neighbour, even columns)
        — see `BankGeometry.shared_column_parity`.
        """
        columns = self.geometry.columns
        extra = np.zeros(columns, dtype=np.float64)
        if neighbour == aggressor_subarray - 1:
            # Neighbour's ODD columns mirror aggressor's EVEN columns.
            source = aggressor_bits[0 : columns - 1 : 2]
            driven = driven_coupling_multipliers(source, cm_vdd, cm_gnd) - cm_pre
            extra[1::2] = driven
        else:
            # Neighbour's EVEN columns mirror aggressor's ODD columns.
            source = aggressor_bits[1::2]
            driven = driven_coupling_multipliers(source, cm_vdd, cm_gnd) - cm_pre
            extra[0 : columns - 1 : 2] = driven
        return extra

    def _add_extra(self, subarray: int, delta: np.ndarray) -> None:
        self._extra[subarray] += delta
        self._extra_version[subarray] += 1

    def _advance_clocks(self, duration: float) -> None:
        self.now += duration
        self._intrinsic_clock += (
            self.profile.retention_temperature_factor(self.temperature_c) * duration
        )
        self._precharge_clock += (
            self.profile.coupling_temperature_factor(self.temperature_c)
            * self.profile.coupling_multiplier(V_PRECHARGE)
            * duration
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_row(self, row: int) -> np.ndarray:
        """Current content of a physical row (bitflips applied)."""
        self.geometry._check_row(row)
        return self._evaluate_rows(np.array([row], dtype=np.int64))[0]

    def read_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Current content of several physical rows, shape (len(rows), cols)."""
        return self._evaluate_rows(np.asarray(list(rows), dtype=np.int64))

    def read_subarray(self, subarray: int) -> np.ndarray:
        """Current content of an entire subarray."""
        return self._evaluate_rows(
            np.asarray(self.geometry.row_range(subarray), dtype=np.int64)
        )

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._kernel.evaluate_rows(self, rows)

    # ------------------------------------------------------------------
    # Introspection for the characterization core
    # ------------------------------------------------------------------
    def baseline_row(self, row: int) -> np.ndarray:
        """The bits last written/restored to ``row`` (no flips applied)."""
        self.geometry._check_row(row)
        return self._baseline[row].copy()
