"""Engine/serial parity: the tentpole determinism guarantee.

The parallel engine (workers, outcome cache, event-list summaries) must
produce records identical — every `SubarrayRecord` field — to the serial
`Campaign.characterize_modules` walk, across multiple modules and
configs, cold and warm.
"""

import pytest

from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    Campaign,
    CharacterizationEngine,
    DisturbConfig,
    OutcomeCache,
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


def _serial(config):
    return Campaign(scale=QUICK_SCALE).characterize_modules(
        MODULES, config, INTERVALS
    )


@pytest.mark.engine
@pytest.mark.parametrize("workers", (0, 4), ids=("serial", "threads"))
@pytest.mark.parametrize("config", CONFIGS, ids=("worst-case", "alt"))
def test_parallel_cached_engine_matches_serial(tmp_path, config, workers):
    """The in-process engine and the thread pool, with and without a
    cache, must be bit-identical to the serial walk."""
    serial_records = _serial(config)
    uncached = CharacterizationEngine(
        scale=QUICK_SCALE, workers=workers, serial_fallback=False
    )
    assert uncached.characterize_modules(MODULES, config, INTERVALS) \
        == serial_records
    assert uncached.last_execution["effective_workers"] == max(workers, 1)

    cache = OutcomeCache(tmp_path)
    engine = CharacterizationEngine(
        scale=QUICK_SCALE, workers=workers, cache=cache, serial_fallback=False
    )
    cold = engine.characterize_modules(MODULES, config, INTERVALS)
    assert cold == serial_records
    warm = engine.characterize_modules(MODULES, config, INTERVALS)
    assert warm == serial_records
    assert cache.hits >= len(serial_records)


@pytest.mark.engine
@pytest.mark.parametrize("workers", (0, 2, 4), ids=lambda w: f"workers{w}")
def test_fault_tolerance_knobs_preserve_parity(tmp_path, workers):
    """Retries, backoff, timeout, and failure policy must never move a
    record: on a fault-free run they are pure control-plane settings."""
    serial_records = _serial(WORST_CASE)
    engine = CharacterizationEngine(
        scale=QUICK_SCALE,
        workers=workers,
        cache=OutcomeCache(tmp_path),
        retries=3,
        retry_backoff=0.01,
        timeout=120.0,
        failure_policy="skip-with-record",
        serial_fallback=False,
    )
    cold = engine.characterize_modules(MODULES, WORST_CASE, INTERVALS)
    assert cold == serial_records
    assert all(record.status == "ok" for record in cold)
    warm = engine.characterize_modules(MODULES, WORST_CASE, INTERVALS)
    assert warm == serial_records


@pytest.mark.engine
def test_trace_does_not_perturb_records(tmp_path):
    from repro.core import RunTrace

    serial_records = _serial(WORST_CASE)
    trace = RunTrace(tmp_path / "trace.jsonl")
    engine = CharacterizationEngine(
        scale=QUICK_SCALE, workers=2, cache=OutcomeCache(), trace=trace,
        serial_fallback=False,
    )
    assert engine.characterize_modules(MODULES, WORST_CASE, INTERVALS) \
        == serial_records
    trace.close()
    assert len(trace.records) == len(serial_records)


@pytest.mark.engine
def test_campaign_delegates_to_engine(tmp_path):
    """`Campaign(workers=..., cache=...)` is a drop-in for the serial path."""
    serial_records = _serial(WORST_CASE)
    campaign = Campaign(
        scale=QUICK_SCALE, workers=4, cache=OutcomeCache(tmp_path)
    )
    assert campaign.characterize_modules(MODULES, WORST_CASE, INTERVALS) \
        == serial_records


@pytest.mark.engine
def test_disk_cache_shared_across_engines(tmp_path):
    """A second engine instance answers the campaign from the disk tier."""
    serial_records = _serial(WORST_CASE)
    first = CharacterizationEngine(
        scale=QUICK_SCALE, cache=OutcomeCache(tmp_path)
    )
    first.characterize_modules(MODULES, WORST_CASE, INTERVALS)

    fresh_cache = OutcomeCache(tmp_path)
    second = CharacterizationEngine(scale=QUICK_SCALE, cache=fresh_cache)
    records = second.characterize_modules(MODULES, WORST_CASE, INTERVALS)
    assert records == serial_records
    assert fresh_cache.disk_hits == len(serial_records)
    assert fresh_cache.misses == 0
