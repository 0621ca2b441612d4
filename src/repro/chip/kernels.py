"""Execution kernels for the bank hot path: reference vs batched.

Every paper figure reduces to millions of `SimulatedBank` operations —
per-activation exposure registration, neighbour-coupling deltas, and
per-row bit evaluation.  This module separates *what* those operations
compute (the physics, owned by `repro.chip.bank`) from *how* the work is
scheduled across rows:

* :class:`ReferenceKernel` — the straightforward per-row implementation.
  One Python-level pass per row, exactly the behaviour the model was
  validated with.  It is kept as the oracle: the parity suites assert
  that every other kernel produces bit-identical read-backs.
* :class:`BatchedKernel` — the production kernel.  Activation batches
  build their own/neighbour coupling-delta matrices in one vectorized
  pass and scatter them into the exposure ledger row by row in the
  reference's accumulation order (so repeated targets reduce with the
  same float associativity), with the RowHammer victim credits fused
  into the same scatter loop; batches at or below
  :data:`SMALL_BATCH_CUTOVER` rows skip the matrix build entirely and
  run a fused scalar path, because the per-call batching overhead
  (matrix allocation, mask setup) dominates small aggressor sets.
  Read-time evaluation runs as a sort-and-segment reduction over all
  requested rows, with a zero-sort fast path when every row shares one
  (subarray, checkpoint) group and zero-copy slice gathers whenever a
  segment's rows are contiguous.

Bit-identity: both kernels execute the same elementwise float operations
in the same accumulation order; batching changes only how rows are
grouped into numpy calls, never the per-element arithmetic.  The parity
suites (``tests/test_kernels_parity.py``, ``tests/test_kernels_property.py``)
enforce this for hammer, press, mixed-pattern, refresh-heavy, and
VRT-jittered programs.

Selection: ``SimulatedBank(kernel=...)`` or ``SimulatedModule(kernel=...)``
takes ``"batched"`` (the default) or ``"reference"``; only the parity
suites and the kernel perf gate pass ``"reference"``.  This layer is where
future backends (GPU, multi-bank batching) plug in: implement the four
hot-path operations and register the class in :data:`KERNEL_CLASSES`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.obs import state as _obs_state
from repro.physics.constants import Q_CRIT, V_PRECHARGE
from repro.physics.coupling import driven_coupling_multipliers
from repro.physics.rowhammer import neighbour_flip_mask, neighbour_flip_masks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (bank -> kernels)
    from repro.chip.bank import SimulatedBank

#: Kernel used when none is passed explicitly.
DEFAULT_KERNEL = "batched"

#: Activation batches at or below this many rows take the fused scalar
#: path of `BatchedKernel.register_activations`.  Measured with the paired
#: kernel workload (`benchmarks/bench_perf_hotpaths.py`): below ~24 rows
#: the vectorized matrix build costs more than it saves (the press phase
#: ran at 0.50x reference before the cutover), while above it the
#: one-pass `driven_coupling_multipliers` over the whole batch wins.
SMALL_BATCH_CUTOVER = 24

_KERNEL_BATCHES = obs.counter(
    "bank_kernel_batches_total",
    "Hot-path batches executed by the bank kernels, by operation and kernel.",
    labelnames=("op", "kernel"),
)
_READ_FLIPS = obs.counter(
    "bank_read_flips_total",
    "Bitflips observed by read-time evaluation (recounted on re-reads).",
)
_DRIVEN_SECONDS = obs.counter(
    "bank_column_driven_seconds_total",
    "Seconds of bitline driving accumulated across activations.",
)


class BankKernel:
    """Strategy interface for the bank's four hot-path operations.

    Kernels are stateless policy objects (safe to share across banks);
    all array state lives on the :class:`~repro.chip.bank.SimulatedBank`
    they operate on.  Implementations must preserve the reference
    kernel's observable behaviour bit-for-bit — same read-backs, same
    exposure/hammer ledgers, same metric totals.
    """

    name: str

    def write_rows(
        self, bank: "SimulatedBank", rows: Sequence[int], bits: np.ndarray
    ) -> None:
        """Store ``bits`` (one row vector) as the baseline of every row."""
        raise NotImplementedError

    def refresh_rows(self, bank: "SimulatedBank", rows: Sequence[int]) -> None:
        """Re-read each row (flips applied) and store it as the new baseline."""
        raise NotImplementedError

    def register_activations(
        self,
        bank: "SimulatedBank",
        rows: Sequence[int],
        bits_matrix: np.ndarray,
        driven_time: float,
        effective_count: float,
    ) -> None:
        """Account for activations of ``rows`` driving their bitlines.

        ``bits_matrix`` holds each aggressor's sensed content (one row per
        aggressor, in activation order); ``driven_time`` is the total
        seconds each aggressor spent driving; ``effective_count`` is the
        RowPress-amplified activation count credited to each aggressor's
        +/-1 physical neighbours.
        """
        raise NotImplementedError

    def evaluate_rows(self, bank: "SimulatedBank", rows: np.ndarray) -> np.ndarray:
        """Current content of ``rows`` with bitflips applied, shape
        ``(len(rows), columns)``."""
        raise NotImplementedError

    def _count_batch(self, op: str) -> None:
        if _obs_state.enabled:
            _KERNEL_BATCHES.labels(op=op, kernel=self.name).inc()


class ReferenceKernel(BankKernel):
    """Per-row oracle kernel: one Python pass per row, no batching.

    This is the original `SimulatedBank` implementation, kept verbatim so
    every batched kernel has a bit-exact baseline to be checked against.
    """

    name = "reference"

    def write_rows(self, bank, rows, bits):
        self._count_batch("write")
        for row in rows:
            bank._baseline[row] = bits

    def refresh_rows(self, bank, rows):
        self._count_batch("refresh")
        for row in rows:
            bank._baseline[row] = bank.read_row(row)

    def register_activations(self, bank, rows, bits_matrix, driven_time, effective_count):
        self._count_batch("register")
        for row, bits in zip(rows, bits_matrix):
            bank._register_driving(row, bits, driven_time)
            bank._register_hammer(row, effective_count)

    def evaluate_rows(self, bank, rows):
        self._count_batch("evaluate")
        out = np.empty((len(rows), bank.geometry.columns), dtype=np.uint8)
        subarrays = bank.geometry.subarrays_of_rows(rows)
        locals_ = bank.geometry.rows_within_subarrays(rows)
        # Rows sharing (subarray, checkpoint) evaluate as one matrix op.
        group_keys = subarrays * (int(bank._extra_ckpt_id.max()) + 1) + (
            bank._extra_ckpt_id[rows]
        )
        for key in np.unique(group_keys):
            members = np.nonzero(group_keys == key)[0]
            self._evaluate_group(bank, out, rows, subarrays, locals_, members)
        return out

    def _evaluate_group(self, bank, out, rows, subarrays, locals_, members):
        batch = rows[members]
        subarray = int(subarrays[members[0]])
        local = locals_[members]
        population = bank.population(subarray)
        bits = bank._baseline[batch]
        lambda_int, kappa, anti = population.gather(local)
        charged = (bits == 1) ^ anti
        d_int = (bank._intrinsic_clock - bank._int_base[batch])[:, np.newaxis]
        d_pre = (bank._precharge_clock - bank._pre_base[batch])[:, np.newaxis]
        checkpoint = bank._extra_checkpoints[subarray][int(bank._extra_ckpt_id[batch[0]])]
        d_extra = (bank._extra[subarray] - checkpoint)[np.newaxis, :]
        vrt = bank._vrt(subarray)
        intrinsic = lambda_int * d_int
        if vrt is not None:
            intrinsic = intrinsic * vrt[local]
        damage = intrinsic + kappa * (d_pre + d_extra)
        flips = charged & (damage >= Q_CRIT)
        hammer = bank._hammer_in[batch] - bank._hammer_base[batch]
        hammered = np.nonzero(hammer > 0)[0]
        for member in hammered:
            row_local = int(local[member])
            flips[member] |= neighbour_flip_mask(
                population.hammer_thresholds[row_local],
                bits[member],
                float(hammer[member]),
            )
        if _obs_state.enabled:
            _READ_FLIPS.inc(int(flips.sum()))
        out[members] = bits ^ flips.astype(np.uint8)


#: Row-block height of `BatchedKernel._evaluate_segment`'s evaluation
#: loop.  64 rows x 1024 columns of float64 is a 512 KB intermediate —
#: small enough that the six arithmetic passes reuse it from cache
#: instead of re-streaming DRAM, large enough that per-block Python
#: dispatch stays negligible.
_EVAL_BLOCK_ROWS = 64


def _segment_scratch(bank, n: int, columns: int) -> tuple:
    """Reusable evaluation buffers (two float64, two bool) of shape
    ``(n, columns)``, cached on the bank.

    A full-subarray evaluation needs ~9 MB of temporaries; allocating
    them per call made the read path mmap/munmap-bound (glibc services
    multi-MB blocks straight from the kernel, so every read re-paid the
    page faults).  One buffer set, grown to the largest segment seen and
    sliced down, keeps the pages mapped.  Living on the bank keeps the
    kernel stateless (banks are single-threaded by contract; kernels may
    be shared).
    """
    buffers = getattr(bank, "_eval_scratch", None)
    if (
        buffers is None
        or buffers[0].shape[0] < n
        or buffers[0].shape[1] != columns
    ):
        buffers = (
            np.empty((n, columns)),
            np.empty((n, columns)),
            np.empty((n, columns), dtype=bool),
            np.empty((n, columns), dtype=bool),
        )
        bank._eval_scratch = buffers
    return tuple(buf[:n] for buf in buffers)


def _contiguous_slice(idx: np.ndarray) -> "slice | np.ndarray":
    """A basic slice covering ``idx`` when it is a constant-stride run.

    Basic slicing makes every downstream gather (baselines, per-cell
    parameter arrays) a zero-copy view instead of a fancy-indexed copy —
    the common cases being full-subarray reads (stride 1) and
    every-other-row refresh/read sweeps (stride 2).  Falls back to the
    array itself when the run has no constant positive stride.
    """
    n = len(idx)
    if n == 1:
        start = int(idx[0])
        return slice(start, start + 1)
    step = int(idx[1]) - int(idx[0])
    if (
        step > 0
        and int(idx[-1]) - int(idx[0]) == (n - 1) * step
        and bool((idx[1:] - idx[:-1] == step).all())
    ):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


class BatchedKernel(BankKernel):
    """Vectorized kernel: flat-array batching of the per-row hot paths.

    Exposure registration computes the per-aggressor coupling deltas in
    one vectorized pass and scatters them into the exposure ledger in
    the reference's row order, with the RowHammer victim credits fused
    into the same loop; batches at or below
    :data:`SMALL_BATCH_CUTOVER` rows take a fused scalar path instead,
    skipping the matrix build its overhead would not amortize.
    Read-time evaluation argsorts the requested rows by (subarray,
    checkpoint) group key once and walks the segments — or skips the
    sort entirely when all rows share one group — with the RowHammer
    victim evaluation vectorized across each segment's hammered rows.
    Refreshes evaluate all rows in one batch instead of one read per
    row.
    """

    name = "batched"

    def write_rows(self, bank, rows, bits):
        self._count_batch("write")
        idx = np.asarray(rows, dtype=np.int64)
        bank._baseline[idx] = bits[np.newaxis, :]

    def refresh_rows(self, bank, rows):
        idx = np.asarray(list(rows), dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= bank.geometry.rows:
            raise IndexError(
                f"row out of range [0, {bank.geometry.rows}) in refresh batch"
            )
        # A strictly ascending batch (every range-based sweep) cannot hold
        # duplicates; only otherwise pay for the np.unique sort.
        ascending = idx.size == 1 or bool((idx[1:] > idx[:-1]).all())
        if not ascending and np.unique(idx).size != idx.size:
            # Duplicate rows re-read their own refreshed content; only the
            # sequential reference order defines that, so defer to it.
            ReferenceKernel.refresh_rows(self, bank, idx.tolist())
            return
        self._count_batch("refresh")
        bank._baseline[_contiguous_slice(idx)] = self.evaluate_rows(bank, idx)

    def register_activations(self, bank, rows, bits_matrix, driven_time, effective_count):
        self._count_batch("register")
        geometry = bank.geometry
        profile = bank.profile
        columns = geometry.columns
        n = len(rows)
        if _obs_state.enabled:
            _DRIVEN_SECONDS.inc(driven_time * n)
        a_cd = profile.coupling_temperature_factor(bank.temperature_c)
        cm_pre = profile.coupling_multiplier(V_PRECHARGE)
        cm_gnd = profile.coupling_multiplier(0.0)
        cm_vdd = profile.coupling_multiplier(1.0)
        scale = a_cd * driven_time
        last = geometry.subarrays - 1
        last_row = geometry.rows - 1
        # Shared-bitline column slices (see `BankGeometry.
        # shared_column_parity`): the lower neighbour's ODD columns mirror
        # the aggressors' EVEN columns, the upper neighbour's EVEN columns
        # mirror the aggressors' ODD columns.
        lower_cols = slice(1, None, 2)
        lower_shared = slice(0, columns - 1, 2)
        upper_cols = slice(0, columns - 1, 2)
        upper_shared = slice(1, None, 2)
        extra = bank._extra
        version = bank._extra_version
        hammer_in = bank._hammer_in
        if n <= SMALL_BATCH_CUTOVER:
            # Fused scalar path: per-row coupling vectors straight into the
            # ledgers, no matrix staging and no vectorized index setup —
            # row/neighbour bookkeeping stays in plain ints, which is what
            # lets a single-activation press beat the reference.  The
            # expressions mirror the reference's `_register_driving` term
            # by term, and the hammer credit rides in the same pass.
            for i in range(n):
                row = int(rows[i])
                sub = geometry.subarray_of_row(row)
                cm_cols = driven_coupling_multipliers(bits_matrix[i], cm_vdd, cm_gnd)
                extra[sub] += a_cd * (cm_cols - cm_pre) * driven_time
                version[sub] += 1
                if sub > 0:
                    extra[sub - 1, lower_cols] += (cm_cols[lower_shared] - cm_pre) * scale
                    version[sub - 1] += 1
                if sub < last:
                    extra[sub + 1, upper_cols] += (cm_cols[upper_shared] - cm_pre) * scale
                    version[sub + 1] += 1
                # +/-1 neighbours within the aggressor's own subarray
                # (sense-amplifier strips separate subarrays) collect the
                # RowHammer credit — scalar form of the batch path's
                # clip-and-compare masks.
                if row > 0 and geometry.subarray_of_row(row - 1) == sub:
                    hammer_in[row - 1] += effective_count
                if row < last_row and geometry.subarray_of_row(row + 1) == sub:
                    hammer_in[row + 1] += effective_count
            return
        rows_arr = np.asarray(rows, dtype=np.int64)
        subs = geometry.subarrays_of_rows(rows_arr)
        # RowHammer victim validity, resolved vectorized for the batch:
        # the +/-1 physical neighbours that exist within the aggressor's
        # own subarray.
        clip_lo = np.maximum(rows_arr - 1, 0)
        clip_hi = np.minimum(rows_arr + 1, last_row)
        lower_victim = (rows_arr > 0) & (geometry.subarrays_of_rows(clip_lo) == subs)
        upper_victim = (rows_arr < last_row) & (
            geometry.subarrays_of_rows(clip_hi) == subs
        )
        # Batch path: one vectorized coupling-multiplier pass over the whole
        # aggressor matrix, then an ordered scatter — per row: own subarray,
        # lower neighbour, upper neighbour, exactly the reference's
        # accumulation order, so repeated targets reduce with the same float
        # associativity.  Row-ordered slice adds replace the old
        # ``np.add.at`` pass (whose per-element inner loop dominated the
        # hammer phase) and the hammer ledger update is fused in.
        cm_all = driven_coupling_multipliers(bits_matrix, cm_vdd, cm_gnd)
        own = a_cd * (cm_all - cm_pre) * driven_time
        lower_vals = (cm_all[:, lower_shared] - cm_pre) * scale
        upper_vals = (cm_all[:, upper_shared] - cm_pre) * scale
        for i in range(n):
            sub = int(subs[i])
            extra[sub] += own[i]
            version[sub] += 1
            if sub > 0:
                extra[sub - 1, lower_cols] += lower_vals[i]
                version[sub - 1] += 1
            if sub < last:
                extra[sub + 1, upper_cols] += upper_vals[i]
                version[sub + 1] += 1
            if lower_victim[i]:
                hammer_in[rows_arr[i] - 1] += effective_count
            if upper_victim[i]:
                hammer_in[rows_arr[i] + 1] += effective_count

    def evaluate_rows(self, bank, rows):
        self._count_batch("evaluate")
        n = len(rows)
        out = np.empty((n, bank.geometry.columns), dtype=np.uint8)
        if n == 0:
            return out
        subarrays = bank.geometry.subarrays_of_rows(rows)
        locals_ = bank.geometry.rows_within_subarrays(rows)
        ckpt_ids = bank._extra_ckpt_id[rows]
        if n == 1 or (
            bool((subarrays == subarrays[0]).all())
            and bool((ckpt_ids == ckpt_ids[0]).all())
        ):
            # Single-group fast path — the shape of every read_subarray and
            # refresh sweep: no sort, no segmentation, and (for contiguous
            # row runs) zero-copy slice gathers all the way down.
            self._evaluate_segment(bank, out, rows, subarrays, locals_, None)
            return out
        # Sort-and-segment reduction: one stable argsort (members stay
        # ascending within each segment, matching the reference's
        # np.nonzero order), then reduceat-style segment bounds sliced
        # straight out of the order vector — no per-segment np.split
        # allocations.  Keying by the *batch's* maximum checkpoint id
        # groups identically to the reference's global maximum.
        group_keys = subarrays * (int(ckpt_ids.max()) + 1) + ckpt_ids
        order = np.argsort(group_keys, kind="stable")
        sorted_keys = group_keys[order]
        bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        stops = np.concatenate((bounds, [n]))
        for start, stop in zip(starts, stops):
            self._evaluate_segment(bank, out, rows, subarrays, locals_, order[start:stop])
        return out

    def _evaluate_segment(self, bank, out, rows, subarrays, locals_, members):
        if members is None:
            batch, local = rows, locals_
            subarray = int(subarrays[0])
        else:
            batch, local = rows[members], locals_[members]
            subarray = int(subarrays[members[0]])
        population = bank.population(subarray)
        idx = _contiguous_slice(batch)
        lidx = _contiguous_slice(local)
        bits = bank._baseline[idx]
        lambda_int, kappa, anti = population.gather(lidx)
        d_int = (bank._intrinsic_clock - bank._int_base[idx])[:, np.newaxis]
        d_pre = (bank._precharge_clock - bank._pre_base[idx])[:, np.newaxis]
        checkpoint = bank._extra_checkpoints[subarray][int(bank._extra_ckpt_id[batch[0]])]
        d_extra = (bank._extra[subarray] - checkpoint)[np.newaxis, :]
        vrt = bank._vrt(subarray)
        vrt_rows = None if vrt is None else vrt[lidx]
        hammer = bank._hammer_in[idx] - bank._hammer_base[idx]
        n = bits.shape[0]
        columns = bits.shape[1]
        # The damage expression is six full-matrix float64 passes; run at
        # full segment width they stream multi-MB intermediates through
        # DRAM on every pass.  Row-blocking keeps each intermediate
        # cache-resident across the passes, cutting traffic to the
        # compulsory input reads — and every operation is elementwise, so
        # splitting rows into blocks is bit-exact.  In-place arithmetic
        # leans on IEEE-754 commutativity (a + b, a & b are
        # bitwise-symmetric), so every element still reduces with the
        # reference's expression; the scratch blocks are bank-cached (see
        # `_segment_scratch`).
        block = _EVAL_BLOCK_ROWS if n > _EVAL_BLOCK_ROWS else n
        damage, intrinsic, flips, charged = _segment_scratch(bank, block, columns)
        flips_total = 0
        for b0 in range(0, n, block):
            b1 = min(b0 + block, n)
            m = b1 - b0
            damage_b, intrinsic_b = damage[:m], intrinsic[:m]
            flips_b, charged_b = flips[:m], charged[:m]
            bits_b = bits[b0:b1]
            np.equal(bits_b, 1, out=charged_b)
            charged_b ^= anti[b0:b1]
            np.multiply(lambda_int[b0:b1], d_int[b0:b1], out=intrinsic_b)
            if vrt_rows is not None:
                intrinsic_b *= vrt_rows[b0:b1]
            np.add(d_pre[b0:b1], d_extra, out=damage_b)
            damage_b *= kappa[b0:b1]
            damage_b += intrinsic_b
            np.greater_equal(damage_b, Q_CRIT, out=flips_b)
            flips_b &= charged_b
            hammered = np.flatnonzero(hammer[b0:b1] > 0)
            if hammered.size:
                # Vectorized across the block's hammered rows; elementwise
                # identical to the reference's per-row neighbour_flip_mask.
                flips_b[hammered] |= neighbour_flip_masks(
                    population.hammer_thresholds[local[b0:b1][hammered]],
                    bits_b[hammered],
                    hammer[b0:b1][hammered],
                )
            if _obs_state.enabled:
                flips_total += int(flips_b.sum())
            # uint8 ^ bool promotes to uint8 — same values as the
            # reference's explicit astype; the single-group path xors
            # straight into the output buffer (a bool's uint8 view is the
            # same 0/1 bytes).
            if members is None:
                np.bitwise_xor(bits_b, flips_b.view(np.uint8), out=out[b0:b1])
            else:
                out[members[b0:b1]] = bits_b ^ flips_b
        if _obs_state.enabled:
            _READ_FLIPS.inc(flips_total)


#: Registry of selectable kernels; future backends register here.
KERNEL_CLASSES: dict[str, type[BankKernel]] = {
    ReferenceKernel.name: ReferenceKernel,
    BatchedKernel.name: BatchedKernel,
}

#: Valid kernel names, in registration order.
KERNELS: tuple[str, ...] = tuple(KERNEL_CLASSES)


def resolve_kernel(name: str | None = None) -> str:
    """Resolve a kernel name: the explicit argument, else
    :data:`DEFAULT_KERNEL`.  Raises ``ValueError`` for unknown names."""
    if name is None:
        name = DEFAULT_KERNEL
    if name not in KERNEL_CLASSES:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {sorted(KERNEL_CLASSES)}"
        )
    return name


def make_kernel(kernel: "str | BankKernel | None" = None) -> BankKernel:
    """Instantiate a kernel from a name, an instance (passed through), or
    ``None`` (the default kernel)."""
    if isinstance(kernel, BankKernel):
        return kernel
    return KERNEL_CLASSES[resolve_kernel(kernel)]()
