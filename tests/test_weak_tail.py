"""Weak tails: a population's few cells that any cooler or shorter
condition can need, and the engine units answered from them.

A tail cut at (T_tail, H_tail) must answer every condition at T <= T_tail
and H <= H_tail exactly as `disturb_summary` does on the whole population,
field for field.  The build condition is random and includes aggressors
that hold the bitlines at VDD, so a tail cut at the building request's own
multipliers instead of the bitline-at-GND one fails here.  The engine
answers a covered unit from the tail its cache holds without drawing the
population, and a hotter or longer unit draws once and grows the tail.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chip.catalog import CATALOG, get_module
from repro.chip.cells import CellPopulation
from repro.chip.timing import DDR4, HBM2
from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    Campaign,
    CharacterizationEngine,
    OutcomeCache,
    plan_units,
)
from repro.core.analytic import (
    OutcomeSummary,
    SubarrayRole,
    WeakTail,
    disturb_summary,
    disturb_summary_and_tail,
    tail_summary,
)
from repro.core.cache import population_cache_key
from repro.core.config import SEARCH_INTERVAL, DisturbConfig
from repro.physics.profile import BLOCK_CELLS
from repro.serve import CharacterizeRequest, RequestScheduler
from repro.serve.protocol import record_to_json

#: One cell, one row, an odd shape of several blocks, and a row wider than
#: a block.
SHAPES = ((1, 1), (1, 513), (257, 513), (2, BLOCK_CELLS + 2))
TAIL_TEMPERATURES = (45.0, 85.0, 95.0, 150.0)
TAIL_HORIZONS = (0.064, 0.512, 16.0, 128.0)
INTERVALS = (0.512, 16.0)


def assert_equal_summaries(actual: OutcomeSummary, expected: OutcomeSummary) -> None:
    """Field by field: type, and for arrays dtype, shape and bytes."""
    for field in dataclasses.fields(OutcomeSummary):
        want = getattr(expected, field.name)
        got = getattr(actual, field.name)
        assert type(got) is type(want), field.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


@st.composite
def conditions(draw) -> tuple:
    """(config without temperature, role, aggressor row index, guardband)."""
    aggressor = draw(st.sampled_from((0x00, 0xFF, 0x33)))
    config = DisturbConfig(
        aggressor_pattern=aggressor,
        victim_pattern=draw(st.sampled_from((None, 0xAA, 0x11))),
        second_aggressor_pattern=draw(st.sampled_from((None, aggressor ^ 0xFF))),
    )
    role = draw(st.sampled_from(tuple(SubarrayRole)))
    return config, role, draw(st.sampled_from((0, 1, 2))), draw(st.sampled_from((0, 8)))


@st.composite
def tails(draw) -> tuple:
    """A population and the tail cut from it under a random condition."""
    rows, columns = draw(st.sampled_from(SHAPES))
    serial = draw(st.sampled_from(sorted(CATALOG)))
    spec = get_module(serial)
    profile = spec.profile
    if draw(st.booleans()):
        # No catalog die has anti-cells: charge then depends on the cell.
        profile = dataclasses.replace(profile, anti_cell_fraction=0.3)
    population = CellPopulation(
        key=("weak-tail", draw(st.integers(0, 2**16))),
        profile=profile,
        rows=rows,
        columns=columns,
    )
    timing = HBM2 if spec.interface == "HBM2" else DDR4
    tail_temperature = draw(st.sampled_from(TAIL_TEMPERATURES))
    tail_horizon = draw(st.sampled_from(TAIL_HORIZONS))
    config, role, row, guardband = draw(conditions())
    build = dataclasses.replace(
        config, temperature_c=draw(st.sampled_from((-40.0, tail_temperature)))
    )
    aggressor_row = (0, rows // 2, rows - 1)[row]
    args = (build, timing, role, aggressor_row, guardband, tail_horizon)
    summary, tail = disturb_summary_and_tail(
        population,
        *args,
        tail_temperature_c=tail_temperature,
        tail_horizon=tail_horizon,
    )
    assert_equal_summaries(summary, disturb_summary(population, *args))
    return population, timing, tail


@given(tails(), st.data())
@settings(max_examples=40, deadline=None)
def test_tail_answers_every_covered_condition_like_the_population(built, data):
    population, timing, tail = built
    assert tail.index.dtype == np.uint32
    assert tail.lambda_int.dtype == tail.kappa.dtype == np.float32
    assert (tail.anti is None) == (population.profile.anti_cell_fraction == 0)
    config, role, row, guardband = data.draw(conditions())
    aggressor_row = (0, population.rows // 2, population.rows - 1)[row]
    below = float(np.nextafter(tail.temperature_c, -np.inf))
    for temperature in (tail.temperature_c, below, -40.0):
        for horizon in (tail.horizon, 0.064):
            query = dataclasses.replace(config, temperature_c=temperature)
            args = (query, timing, role, aggressor_row, guardband, horizon)
            expected = disturb_summary(population, *args)
            assert_equal_summaries(tail_summary(tail, *args), expected)


def test_tail_refuses_a_condition_it_does_not_cover():
    population = CellPopulation(
        key=("weak-tail", "cover"), profile=get_module("S0").profile, rows=8, columns=64
    )
    _, tail = disturb_summary_and_tail(
        population,
        WORST_CASE,
        DDR4,
        SubarrayRole.IDLE,
        tail_temperature_c=85.0,
        tail_horizon=16.0,
    )
    assert tail.covers(85.0, 16.0) and tail.covers(-40.0, 0.064)
    assert tail.covers(85.0, SEARCH_INTERVAL)
    assert not tail.covers(85.5, 16.0) and not tail.covers(85.0, 16.5)
    hotter = dataclasses.replace(WORST_CASE, temperature_c=86.0)
    with pytest.raises(ValueError, match="cannot answer"):
        tail_summary(tail, hotter, DDR4, SubarrayRole.IDLE, horizon=16.0)


def test_no_tail_where_leakage_does_not_grow_or_the_reach_is_not_finite():
    """A tail relies on leakage growing with temperature; a die whose
    intrinsic leakage falls with it, or a reach that is not finite, gets
    none, and its summary is unchanged."""
    s0 = get_module("S0").profile
    cases = [
        (dataclasses.replace(s0, retention_factor_per_10c=0.9), 85.0, 16.0),
        (s0, float("nan"), 16.0),
        (s0, 85.0, float("inf")),
    ]
    for profile, temperature, horizon in cases:
        population = CellPopulation(
            key=("weak-tail", "none"), profile=profile, rows=8, columns=64
        )
        args = (WORST_CASE, DDR4, SubarrayRole.AGGRESSOR, 4)
        summary, tail = disturb_summary_and_tail(
            population, *args, tail_temperature_c=temperature, tail_horizon=horizon
        )
        assert tail is None
        assert_equal_summaries(summary, disturb_summary(population, *args))


# ---------------------------------------------------------------------------
# The cache's tails
# ---------------------------------------------------------------------------


def synthetic_tail(temperature: float, horizon: float, cells: int = 4) -> WeakTail:
    """A tail of ``cells`` cells of a 64 x 64 population."""
    return WeakTail(
        profile=get_module("S0").profile,
        rows=64,
        columns=64,
        temperature_c=temperature,
        horizon=horizon,
        index=np.arange(cells, dtype=np.uint32),
        lambda_int=np.ones(cells, dtype=np.float32),
        kappa=np.ones(cells, dtype=np.float32),
        anti=None,
    )


def test_put_tail_keeps_only_a_covering_tail():
    cache = OutcomeCache()
    held = synthetic_tail(95.0, 16.0)
    assert cache.put_tail("p", held)
    assert not held.index.flags.writeable
    # Neither covers the other, or the held one covers it: kept as is.
    assert not cache.put_tail("p", synthetic_tail(85.0, 64.0))
    assert not cache.put_tail("p", synthetic_tail(85.0, 16.0))
    assert not cache.put_tail("p", synthetic_tail(95.0, 16.0, cells=8))
    assert cache.tail("p") is held
    grown = synthetic_tail(95.0, 64.0, cells=8)
    assert cache.put_tail("p", grown)
    assert cache.tail("p") is grown
    assert cache.stats["memory_bytes"] == grown.nbytes


def test_put_tail_drops_a_tail_larger_than_its_population():
    """12 bytes a cell against the population's 8: above 2/3 of the cells
    the tail would hold more than the population's own λ and κ."""
    cache = OutcomeCache()
    most = 64 * 64 * 2 // 3
    assert cache.put_tail("p", synthetic_tail(85.0, 16.0, cells=most))
    assert not cache.put_tail("q", synthetic_tail(150.0, 16.0, cells=most + 1))
    assert cache.tail("q") is None


def test_tails_never_reach_lookups_puts_or_the_disk(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache.put_tail("p", synthetic_tail(85.0, 16.0))
    assert cache.get("p") is None
    assert cache.stats["lookups"] == 1 and cache.stats["entries"] == 0
    assert list(tmp_path.iterdir()) == []


def test_concurrent_tail_puts_end_on_the_largest_tail():
    """Serve lanes grow one population's tail from several threads: a put
    never replaces a tail with one that does not cover it, so whatever the
    order, the largest tail of a chain of growing tails is the one held."""
    chain = [synthetic_tail(40.0 + 10 * i, 2.0**i, cells=i + 1) for i in range(6)]
    keys = [f"population-{i}" for i in range(4)]
    cache = OutcomeCache()
    refused = []

    def hammer(seed):
        for step in range(2000):
            key = keys[(seed + step) % 4]
            tail = chain[(seed + step // 4) % 6]
            before = cache.tail(key)
            if not cache.put_tail(key, tail) and before is None:
                refused.append((key, tail))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [cache.tail(key) for key in keys] == [chain[-1]] * 4
    assert cache.stats["memory_bytes"] == 4 * chain[-1].nbytes
    # A put refused with no tail held before it lost to a covering tail.
    assert all(cache.tail(key).covers(t.temperature_c, t.horizon) for key, t in refused)


# ---------------------------------------------------------------------------
# Engine units from tails
# ---------------------------------------------------------------------------


@pytest.fixture
def counters():
    """Observability on for one test; returns a reader of a counter's
    value, summed over its samples with the given labels."""
    obs.enable()
    obs.reset()

    def value(name: str, **labels) -> float:
        return sum(
            sample["value"]
            for family in obs.snapshot()["metrics"]
            if family["name"] == name
            for sample in family["samples"]
            if labels.items() <= sample["labels"].items()
        )

    yield value
    obs.disable()
    obs.reset()


def at(temperature: float) -> DisturbConfig:
    return dataclasses.replace(WORST_CASE, temperature_c=temperature)


def campaign_records(temperature: float, intervals=INTERVALS) -> list:
    """A cacheless `Campaign`'s records of S0 at ``temperature``."""
    campaign = Campaign(scale=QUICK_SCALE)
    return campaign.characterize_module("S0", at(temperature), intervals)


def held_tails(cache: OutcomeCache, config: DisturbConfig) -> list:
    tails = []
    for unit in plan_units(("S0",), config, QUICK_SCALE):
        key = population_cache_key(
            unit.population_key,
            unit.geometry.subarray_rows(unit.subarray),
            unit.geometry.columns,
            get_module("S0").profile,
        )
        tails.append(cache.tail(key))
    return tails


def test_cooler_unit_draws_no_population(counters):
    cache = OutcomeCache()
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=cache)
    engine.characterize_module("S0", at(85.0), INTERVALS)
    units = len(plan_units(("S0",), WORST_CASE, QUICK_SCALE))
    assert counters("cells_populations_sampled_total") == units
    assert counters("engine_weak_tails_total", event="build") == units
    records = engine.characterize_module("S0", at(45.0), INTERVALS)
    assert counters("cells_populations_sampled_total") == units
    assert counters("engine_weak_tails_total", event="hit") == units
    assert records == campaign_records(45.0)


def test_hotter_or_longer_unit_draws_once_and_grows_the_tail(counters):
    cache = OutcomeCache()
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=cache)
    units = len(plan_units(("S0",), WORST_CASE, QUICK_SCALE))

    def drawn(config: DisturbConfig, intervals) -> tuple:
        """The engine's records, and the populations it drew for them."""
        before = counters("cells_populations_sampled_total")
        records = engine.characterize_module("S0", config, intervals)
        return records, counters("cells_populations_sampled_total") - before

    assert drawn(at(85.0), INTERVALS)[1] == units
    hotter, draws = drawn(at(95.0), (0.512, 4.0))
    assert draws == units
    assert hotter == campaign_records(95.0, (0.512, 4.0))
    grown = {(t.temperature_c, t.horizon) for t in held_tails(cache, WORST_CASE)}
    assert grown == {(95.0, 16.0)}
    longer, draws = drawn(at(60.0), (64.0,))
    assert draws == units
    assert longer == campaign_records(60.0, (64.0,))
    grown = {(t.temperature_c, t.horizon) for t in held_tails(cache, WORST_CASE)}
    assert grown == {(95.0, 64.0)}
    # Both grown bounds now cover a cooler, shorter unit.
    cooler, draws = drawn(at(90.0), INTERVALS)
    assert draws == 0
    assert cooler == campaign_records(90.0)


def test_memory_bytes_count_summaries_and_tails():
    cache = OutcomeCache()
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=cache)
    for temperature in (85.0, 95.0, 45.0):
        engine.characterize_module("S0", at(temperature), INTERVALS)
    summaries = sum(summary.nbytes for summary in cache._memory.values())
    tails = held_tails(cache, WORST_CASE)
    assert all(tail is not None for tail in tails)
    assert cache.stats["memory_bytes"] == summaries + sum(tail.nbytes for tail in tails)


def test_engine_without_a_cache_draws_every_unit(counters):
    engine = CharacterizationEngine(scale=QUICK_SCALE)
    units = len(plan_units(("S0",), WORST_CASE, QUICK_SCALE))
    for temperature in (85.0, 45.0):
        engine.characterize_module("S0", at(temperature), INTERVALS)
    assert counters("cells_populations_sampled_total") == 2 * units
    assert counters("engine_weak_tails_total") == 0


def test_computed_unit_span_records_the_tail(spans):
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=OutcomeCache())
    engine.characterize_module("S0", at(85.0), INTERVALS)
    engine.characterize_module("S0", at(45.0), INTERVALS)
    engine.characterize_module("S0", at(45.0), INTERVALS)
    attributes = [span["attributes"] for span in spans("engine.unit")]
    units = len(attributes) // 3
    assert [(a["source"], a.get("tail")) for a in attributes] == (
        [("computed", False)] * units
        + [("computed", True)] * units
        + [("memory", None)] * units
    )


def test_scheduler_batches_after_a_hotter_one_answer_from_tails(counters):
    def request(temperature: float) -> CharacterizeRequest:
        return CharacterizeRequest(
            serial="S0", subarrays=2, rows=64, columns=128, temperature_c=temperature
        )

    async def scenario():
        scheduler = RequestScheduler(batch_window_s=0.01)
        await scheduler.submit(request(85.0))
        drawn = counters("cells_populations_sampled_total")
        cooler = await asyncio.gather(
            scheduler.submit(request(45.0)), scheduler.submit(request(65.0))
        )
        await scheduler.drain()
        return drawn, cooler

    drawn, cooler = asyncio.run(scenario())
    assert counters("cells_populations_sampled_total") == drawn == 2
    for temperature, response in zip((45.0, 65.0), cooler):
        req = request(temperature)
        records = Campaign(scale=req.scale).characterize_module(
            req.serial, req.config, intervals=req.intervals
        )
        assert response["records"] == [record_to_json(record) for record in records]
