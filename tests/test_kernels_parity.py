"""Kernel parity: the batched kernel must be bit-identical to the reference.

The reference kernel is the oracle (the original per-row `SimulatedBank`
implementation, preserved verbatim in `repro.chip.kernels`); every scenario
here runs the same program on one bank per kernel and asserts identical
read-backs AND identical internal ledgers (`_extra`, `_hammer_in`,
exposure checkpoints) — exact float equality, not approximate.
"""

import numpy as np
import pytest

from repro.chip import (
    DEFAULT_KERNEL,
    KERNELS,
    BankGeometry,
    BatchedKernel,
    ReferenceKernel,
    SimulatedModule,
    get_module,
    make_kernel,
    resolve_kernel,
)

GEOMETRY = BankGeometry(subarrays=3, rows_per_subarray=32, columns=64)


def make_bank(kernel, serial="S0", geometry=GEOMETRY):
    return SimulatedModule(get_module(serial), geometry=geometry, kernel=kernel).bank()


def run_on_both(program, serial="S0", geometry=GEOMETRY):
    """Run ``program(bank)`` under each kernel; return both banks."""
    banks = []
    for kernel in ("reference", "batched"):
        bank = make_bank(kernel, serial=serial, geometry=geometry)
        program(bank)
        banks.append(bank)
    return banks


def assert_bit_identical(reference, batched):
    """Full-bank read-back plus internal-ledger equality (exact floats)."""
    for subarray in range(reference.geometry.subarrays):
        ref_bits = reference.read_subarray(subarray)
        bat_bits = batched.read_subarray(subarray)
        assert np.array_equal(ref_bits, bat_bits), (
            f"subarray {subarray}: {int((ref_bits != bat_bits).sum())} "
            "differing bits"
        )
    assert np.array_equal(reference._extra, batched._extra)
    assert np.array_equal(reference._extra_version, batched._extra_version)
    assert np.array_equal(reference._hammer_in, batched._hammer_in)
    assert np.array_equal(reference._baseline, batched._baseline)
    assert np.array_equal(reference._extra_ckpt_id, batched._extra_ckpt_id)


# ---------------------------------------------------------------------------
# Scenario parity
# ---------------------------------------------------------------------------

def test_hammer_campaign_parity():
    def program(bank):
        bank.fill(0xAA)
        bank.hammer(16, 200_000)
        bank.idle(4.0)

    assert_bit_identical(*run_on_both(program))


def test_multi_aggressor_hammer_parity():
    """Aggressors in several subarrays, including subarray-edge rows."""

    def program(bank):
        bank.fill(0x00)
        bank.fill_rows(range(30, 40), 0xFF)
        bank.hammer_sequence([0, 31, 32, 64, 95], 60_000)
        bank.idle(2.0)

    assert_bit_identical(*run_on_both(program))


def test_press_parity():
    def program(bank):
        bank.fill(0xF0)
        bank.press(40, 0.128)
        bank.press_interval(41, 0.064)
        bank.press_interval(41, 0.064)
        bank.idle(1.0)

    assert_bit_identical(*run_on_both(program))


def test_mixed_pattern_campaign_parity():
    """Different data patterns per region drive different bitline voltages."""

    def program(bank):
        bank.fill(0xAA)
        bank.fill_rows(range(0, 16), 0x00)
        bank.fill_rows(range(48, 64), 0xFF)
        bits = np.zeros(bank.geometry.columns, dtype=np.uint8)
        bits[::3] = 1
        bank.fill_rows([70, 71], bits)
        bank.hammer_sequence([8, 56, 70], 100_000)
        bank.idle(8.0)

    assert_bit_identical(*run_on_both(program))


def test_multi_interval_campaign_parity():
    """Interleaved hammer / idle / refresh intervals (the Fig. 18 shape)."""

    def program(bank):
        bank.fill(0xAA)
        for interval in (0.5, 1.0, 2.0):
            bank.hammer(16, 50_000)
            bank.idle(interval)
            bank.refresh_rows(range(8, 24))
        bank.idle(16.0)

    assert_bit_identical(*run_on_both(program))


def test_vrt_jitter_parity():
    def program(bank):
        bank.set_trial_nonce(("trial", 3))
        bank.fill(0xAA)
        bank.hammer(16, 150_000)
        bank.idle(6.0)

    reference, batched = run_on_both(program)
    assert_bit_identical(reference, batched)
    # And across a nonce change mid-life.
    reference.set_trial_nonce(None)
    batched.set_trial_nonce(None)
    assert_bit_identical(reference, batched)


def test_refresh_heavy_rebaseline_and_prune_parity():
    """Refresh-heavy runs exercise checkpoint creation AND pruning."""

    def program(bank):
        bank.fill(0xAA)
        for _ in range(6):
            bank.hammer(16, 20_000)
            bank.refresh_all()
        bank.idle(2.0)
        bank.refresh_rows([0, 1, 2])
        bank.idle(2.0)

    reference, batched = run_on_both(program)
    assert_bit_identical(reference, batched)
    ref_ckpts = [sorted(c) for c in reference._extra_checkpoints]
    bat_ckpts = [sorted(c) for c in batched._extra_checkpoints]
    assert ref_ckpts == bat_ckpts


def test_duplicate_refresh_rows_parity():
    """Duplicate rows in one refresh batch have order-dependent semantics;
    the batched kernel must reproduce the sequential result exactly."""

    def program(bank):
        bank.fill(0xFF)
        bank.idle(30.0)
        bank.refresh_rows([5, 5, 6, 5])

    assert_bit_identical(*run_on_both(program))


def test_exposure_ledger_exact_equality_fixed_scenario():
    """A pinned scenario asserting the _extra ledger to the last ulp."""

    def program(bank):
        bank.fill(0xA5)
        bank.hammer_sequence([16, 48, 80], 12_345)

    reference, batched = run_on_both(program)
    assert reference._extra.tobytes() == batched._extra.tobytes()
    assert reference._hammer_in.tobytes() == batched._hammer_in.tobytes()


def test_single_subarray_geometry_parity():
    """No neighbours at all: the neighbour fan-out must degrade cleanly."""
    geometry = BankGeometry(subarrays=1, rows_per_subarray=64, columns=32)

    def program(bank):
        bank.fill(0xAA)
        bank.hammer(32, 80_000)
        bank.idle(4.0)

    assert_bit_identical(*run_on_both(program, geometry=geometry))


# ---------------------------------------------------------------------------
# Selection plumbing
# ---------------------------------------------------------------------------

def test_default_kernel_is_batched():
    assert DEFAULT_KERNEL == "batched"
    assert set(KERNELS) == {"reference", "batched"}
    bank = make_bank(None)
    assert bank.kernel in KERNELS


def test_invalid_kernel_rejected():
    with pytest.raises(ValueError, match="unknown kernel"):
        make_bank("turbo")
    with pytest.raises(ValueError, match="unknown kernel"):
        resolve_kernel("gpu")


def test_kernel_instance_passthrough():
    instance = ReferenceKernel()
    assert make_kernel(instance) is instance
    assert isinstance(make_kernel("batched"), BatchedKernel)


def test_module_propagates_kernel_to_banks():
    module = SimulatedModule(
        get_module("S0"), geometry=GEOMETRY, sim_banks=2, kernel="reference"
    )
    assert module.kernel == "reference"
    assert all(bank.kernel == "reference" for bank in module.iter_banks())
