"""Disturbance profiles: temperature scaling, sampling, validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util.rng import derive_rng
from repro.physics import DisturbanceProfile
from repro.physics.profile import (
    BLOCK_CELLS,
    row_blocks,
    sample_lognormals,
    stack_blocks,
    stack_size,
)


def make_profile(**overrides) -> DisturbanceProfile:
    params = dict(
        median_retention=500.0,
        sigma_retention=1.3,
        median_kappa=1e-5,
        sigma_kappa=2.0,
        alpha=4.0,
        kappa_cap=0.05,
    )
    params.update(overrides)
    return DisturbanceProfile(**params)


def test_temperature_factors_reference_is_unity():
    profile = make_profile()
    assert profile.retention_temperature_factor(85.0) == pytest.approx(1.0)
    assert profile.coupling_temperature_factor(85.0) == pytest.approx(1.0)


def test_temperature_factors_increase_with_heat():
    profile = make_profile()
    assert profile.coupling_temperature_factor(95.0) == pytest.approx(
        profile.coupling_factor_per_10c
    )
    assert profile.retention_temperature_factor(45.0) < 1.0


def test_coupling_multiplier_shape():
    profile = make_profile(alpha=4.0)
    assert profile.coupling_multiplier(1.0) == pytest.approx(0.0)
    assert profile.coupling_multiplier(0.5) == pytest.approx(math.expm1(2.0))
    assert profile.coupling_multiplier(0.0) == pytest.approx(math.expm1(4.0))


def test_coupling_multiplier_clamps_above_cell_voltage():
    # A bitline above the cell voltage contributes no discharge channel.
    profile = make_profile()
    assert profile.coupling_multiplier(1.0) == 0.0


#: Shapes that are not a multiple of the sampling row block: one cell, one
#: row, one column, a row wider than a block, and several uneven blocks.
SHAPES = ((1, 1), (1, 7), (9, 1), (2, BLOCK_CELLS + 3), (257, 513))


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def generator_state(rng: np.random.Generator):
    """The bit generator's state with its arrays as lists, comparable by ``==``."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("shape", SHAPES)
def test_intrinsic_rates_equal_one_whole_array_draw(shape):
    profile = make_profile()
    blocked = derive_rng("blocked", "lambda", shape)
    (got,) = sample_lognormals([profile.intrinsic_draw(blocked)], shape)
    whole = derive_rng("blocked", "lambda", shape)
    mu = -math.log(profile.median_retention)
    want = whole.normal(mu, profile.sigma_retention, size=shape).astype(np.float32)
    np.exp(want, out=want)
    assert_same_array(got, want)
    # The generator is left where one whole-array draw leaves it.
    assert generator_state(blocked) == generator_state(whole)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("row_factors", [False, True])
@pytest.mark.parametrize("kappa_cap", [0.05, math.inf])
def test_kappas_equal_one_whole_array_draw(shape, row_factors, kappa_cap):
    profile = make_profile(kappa_cap=kappa_cap)
    factors = (
        profile.sample_row_factors(derive_rng("blocked", "rows", shape), shape[0])
        if row_factors
        else None
    )
    blocked = derive_rng("blocked", "kappa", shape)
    cap = profile.scaled_kappa_cap()
    (got,) = sample_lognormals(
        [profile.kappa_draw(blocked)],
        shape,
        None if factors is None else factors[np.newaxis],
        np.array([cap], dtype=np.float32) if math.isfinite(cap) else None,
    )
    whole = derive_rng("blocked", "kappa", shape)
    mu = math.log(profile.scaled_kappa_median())
    want = whole.normal(mu, profile.sigma_kappa, size=shape).astype(np.float32)
    np.exp(want, out=want)
    if factors is not None:
        want *= factors.astype(np.float32)[:, np.newaxis]
    if math.isfinite(profile.scaled_kappa_cap()):
        np.minimum(want, np.float32(profile.scaled_kappa_cap()), out=want)
    assert_same_array(got, want)
    assert generator_state(blocked) == generator_state(whole)


def test_row_blocks_cover_the_rows_in_order():
    for rows, columns in ((1, 1), (9, 1), (1, BLOCK_CELLS + 3), (257, 513)):
        blocks = row_blocks(rows, columns)
        assert blocks[0].start == 0 and blocks[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.stop - b.start <= max(1, BLOCK_CELLS // columns) for b in blocks)


#: Stacks whose arrays fill one block together, a stack of single cells,
#: and arrays that each span several blocks.
STACKS = ((5, 3, 7), (3, 64, 256), (4, 1, 1), (2, 2, BLOCK_CELLS + 3))


@pytest.mark.parametrize("arrays,rows,columns", STACKS)
def test_stacked_draws_equal_each_draw_alone(arrays, rows, columns):
    """Each array of a stack, drawn from its own generator with its own
    parameters, row factors and cap (finite or not), is the array it
    draws alone."""
    caps = (0.05, math.inf)
    profiles = [
        make_profile(median_kappa=1e-5 * (index + 1), kappa_cap=caps[index % 2])
        for index in range(arrays)
    ]
    shape = (rows, columns)

    def draws():
        return [
            profile.kappa_draw(derive_rng("stack", index, shape))
            for index, profile in enumerate(profiles)
        ]

    factors = np.stack(
        [
            profile.sample_row_factors(derive_rng("stack-rows", index), rows)
            for index, profile in enumerate(profiles)
        ]
    )
    caps = np.array([p.scaled_kappa_cap() for p in profiles], dtype=np.float32)
    stack = sample_lognormals(draws(), shape, factors, caps)
    assert stack.shape == (arrays, rows, columns)
    for index, draw in enumerate(draws()):
        (alone,) = sample_lognormals(
            [draw], shape, factors[index : index + 1], caps[index : index + 1]
        )
        assert_same_array(stack[index], alone)


def test_stack_blocks_cover_the_stack_in_order():
    for arrays, rows, columns in STACKS + ((40, 18, 8), (1, 257, 513)):
        blocks = stack_blocks(arrays, rows, columns)
        covered = [
            (index, row)
            for subarrays, block in blocks
            for index in range(subarrays.start, subarrays.stop)
            for row in range(block.start, block.stop)
        ]
        assert covered == [(i, r) for i in range(arrays) for r in range(rows)]
        for subarrays, block in blocks:
            count = subarrays.stop - subarrays.start
            assert count == 1 or block == slice(0, rows)
            assert count <= stack_size(rows, columns)
            cells = count * (block.stop - block.start) * columns
            assert cells <= max(BLOCK_CELLS, columns)


def test_kappa_cap_applied_in_sampling():
    profile = make_profile(kappa_cap=0.01)
    rng = derive_rng("test", "kappa")
    caps = np.array([profile.scaled_kappa_cap()], dtype=np.float32)
    (kappas,) = sample_lognormals([profile.kappa_draw(rng)], (512, 512), caps=caps)
    assert float(kappas.max()) <= 0.01 * (1 + 1e-6)


def test_die_scale_scales_cap_and_median():
    profile = make_profile().with_die_scale(5.06)
    assert profile.scaled_kappa_median() == pytest.approx(1e-5 * 5.06)
    assert profile.scaled_kappa_cap() == pytest.approx(0.05 * 5.06)


def test_first_flip_floor_scales_inversely_with_die():
    base = make_profile()
    newer = base.with_die_scale(5.06)
    assert base.first_flip_floor() / newer.first_flip_floor() == pytest.approx(5.06)


def test_first_flip_floor_decreases_with_temperature():
    profile = make_profile()
    assert profile.first_flip_floor(95.0) < profile.first_flip_floor(85.0)


def test_vrt_jitter_median_near_one():
    profile = make_profile(vrt_sigma=0.25)
    jitter = profile.sample_vrt_jitter(derive_rng("t"), (200, 200))
    assert 0.9 < float(np.median(jitter)) < 1.1


def test_vrt_zero_sigma_is_exactly_one():
    profile = make_profile(vrt_sigma=0.0)
    jitter = profile.sample_vrt_jitter(derive_rng("t"), (4, 4))
    assert np.all(jitter == 1.0)


def test_rowpress_amplification_at_minimum_is_one():
    profile = make_profile()
    assert profile.rowpress_amplification(32e-9, 32e-9) == pytest.approx(1.0)


def test_rowpress_amplification_grows_with_open_time():
    profile = make_profile()
    assert profile.rowpress_amplification(70.2e-6, 32e-9) > 100


@pytest.mark.parametrize(
    "field, value",
    [
        ("median_retention", -1.0),
        ("sigma_kappa", 0.0),
        ("alpha", -2.0),
        ("anti_cell_fraction", 1.5),
    ],
)
def test_validation_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        make_profile(**{field: value})


def test_cap_must_exceed_median():
    with pytest.raises(ValueError):
        make_profile(kappa_cap=1e-6)


@given(st.floats(0.0, 1.0))
def test_coupling_multiplier_monotone_decreasing_in_voltage(voltage):
    profile = make_profile()
    lower = profile.coupling_multiplier(min(1.0, voltage + 0.1))
    assert profile.coupling_multiplier(voltage) >= lower


@given(st.floats(45.0, 95.0), st.floats(45.0, 95.0))
def test_temperature_factor_monotone(t1, t2):
    profile = make_profile()
    if t1 <= t2:
        lower = profile.coupling_temperature_factor(t1)
        assert lower <= profile.coupling_temperature_factor(t2)
