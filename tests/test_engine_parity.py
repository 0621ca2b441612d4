"""Engine parity: the tentpole determinism guarantee.

The engine (workers, outcome cache, event-list summaries) must produce
records identical — every `SubarrayRecord` field — to an independent
oracle walk, across multiple modules and configs, cold and warm.  The
oracle shares nothing with the engine past the physics: it walks
`SimulatedModule` banks, takes each bank's own cell population, and reads
every metric from the outcome's full per-cell masks, never from an event
summary.
"""

import pytest

from repro.chip import SimulatedModule, get_module
from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    Campaign,
    CharacterizationEngine,
    DisturbConfig,
    OutcomeCache,
    SubarrayRecord,
    SubarrayRole,
    disturb_outcome,
)

MODULES = ("S0", "M8", "H0")
CONFIGS = (
    WORST_CASE,
    DisturbConfig(
        aggressor_pattern=0xAA,
        t_agg_on=7.8e-6,
        temperature_c=65.0,
        aggressor_location="beginning",
    ),
)
INTERVALS = (0.512, 16.0)


def _oracle(config):
    """The oracle: records of every in-scale subarray, in plan order."""
    geometry = QUICK_SCALE.geometry
    records = []
    for serial in MODULES:
        spec = get_module(serial)
        module = SimulatedModule(spec, geometry=geometry)
        for bank in module.iter_banks():
            _, chip, bank_index = bank.key
            for subarray in QUICK_SCALE.subarray_indices():
                population = bank.population(subarray)
                aggressor = config.aggressor_row(geometry, subarray)
                outcome = disturb_outcome(
                    population, config, module.timing, SubarrayRole.AGGRESSOR,
                    aggressor_local_row=geometry.row_within_subarray(aggressor),
                )
                records.append(SubarrayRecord(
                    serial=serial,
                    manufacturer=spec.manufacturer,
                    die_label=spec.die_label,
                    chip=chip,
                    bank=bank_index,
                    subarray=subarray,
                    rows=population.rows,
                    cells=population.lambda_int.size,
                    time_to_first=outcome.time_to_first_flip(),
                    cd_flips={t: outcome.flip_count(t) for t in INTERVALS},
                    cd_rows={t: outcome.rows_with_flips(t) for t in INTERVALS},
                    ret_flips={
                        t: outcome.retention_flip_count(t) for t in INTERVALS
                    },
                    ret_rows={
                        t: outcome.retention_rows_with_flips(t) for t in INTERVALS
                    },
                ))
    return records


@pytest.mark.engine
@pytest.mark.parametrize("config", CONFIGS, ids=("worst-case", "alt"))
def test_default_campaign_matches_oracle(config):
    """`Campaign` at its defaults (in-process engine, no cache)."""
    records = Campaign(scale=QUICK_SCALE).characterize_modules(
        MODULES, config, INTERVALS
    )
    assert records == _oracle(config)


@pytest.mark.engine
@pytest.mark.parametrize("workers", (0, 4), ids=("serial", "threads"))
@pytest.mark.parametrize("config", CONFIGS, ids=("worst-case", "alt"))
def test_parallel_cached_engine_matches_serial(tmp_path, confine, config, workers):
    """The in-process engine and the thread pool, with and without a
    cache, must be bit-identical to the oracle."""
    confine(2)  # the pool runs even on a 1-CPU host
    oracle_records = _oracle(config)
    uncached = CharacterizationEngine(scale=QUICK_SCALE, workers=workers)
    assert uncached.characterize_modules(MODULES, config, INTERVALS) \
        == oracle_records
    assert uncached.last_execution["effective_workers"] == max(workers, 1)

    cache = OutcomeCache(tmp_path)
    engine = CharacterizationEngine(scale=QUICK_SCALE, workers=workers, cache=cache)
    cold = engine.characterize_modules(MODULES, config, INTERVALS)
    assert cold == oracle_records
    warm = engine.characterize_modules(MODULES, config, INTERVALS)
    assert warm == oracle_records
    assert cache.hits >= len(oracle_records)


@pytest.mark.engine
@pytest.mark.parametrize("workers", (0, 2, 4), ids=lambda w: f"workers{w}")
def test_fault_tolerance_knobs_preserve_parity(tmp_path, confine, workers):
    """Retries, backoff, timeout, and failure policy must never move a
    record: on a fault-free run they are pure control-plane settings."""
    confine(2)
    oracle_records = _oracle(WORST_CASE)
    engine = CharacterizationEngine(
        scale=QUICK_SCALE,
        workers=workers,
        cache=OutcomeCache(tmp_path),
        retries=3,
        retry_backoff=0.01,
        timeout=120.0,
        failure_policy="skip-with-record",
    )
    cold = engine.characterize_modules(MODULES, WORST_CASE, INTERVALS)
    assert cold == oracle_records
    assert all(record.status == "ok" for record in cold)
    warm = engine.characterize_modules(MODULES, WORST_CASE, INTERVALS)
    assert warm == oracle_records


@pytest.mark.engine
def test_trace_does_not_perturb_records(tmp_path, confine, spans):
    from repro import obs

    confine(2)
    oracle_records = _oracle(WORST_CASE)
    engine = CharacterizationEngine(scale=QUICK_SCALE, workers=2, cache=OutcomeCache())
    with obs.stream_spans(tmp_path / "trace.jsonl"):
        assert engine.characterize_modules(MODULES, WORST_CASE, INTERVALS) \
            == oracle_records
    assert len(spans("engine.unit")) == len(oracle_records)


@pytest.mark.engine
def test_campaign_delegates_to_engine(tmp_path):
    """`Campaign(workers=..., cache=...)` configures its engine."""
    oracle_records = _oracle(WORST_CASE)
    campaign = Campaign(
        scale=QUICK_SCALE, workers=4, cache=OutcomeCache(tmp_path)
    )
    assert campaign.characterize_modules(MODULES, WORST_CASE, INTERVALS) \
        == oracle_records


@pytest.mark.engine
def test_disk_cache_shared_across_engines(tmp_path):
    """A second engine instance answers the campaign from the disk tier."""
    oracle_records = _oracle(WORST_CASE)
    first = CharacterizationEngine(
        scale=QUICK_SCALE, cache=OutcomeCache(tmp_path)
    )
    first.characterize_modules(MODULES, WORST_CASE, INTERVALS)

    fresh_cache = OutcomeCache(tmp_path)
    second = CharacterizationEngine(scale=QUICK_SCALE, cache=fresh_cache)
    records = second.characterize_modules(MODULES, WORST_CASE, INTERVALS)
    assert records == oracle_records
    assert fresh_cache.disk_hits == len(oracle_records)
    assert fresh_cache.misses == 0
