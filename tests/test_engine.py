"""Unit tests of the engine building blocks: work units, summaries, cache."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.chip import DDR4, BankGeometry, get_module
from repro.chip.cells import CellPopulation
from repro.core import (
    DEFAULT_ENGINE_HORIZON,
    QUICK_SCALE,
    SEARCH_INTERVAL,
    WORST_CASE,
    CampaignScale,
    CharacterizationEngine,
    OutcomeCache,
    OutcomeSummary,
    SubarrayRole,
    disturb_outcome,
    execute_unit,
    plan_units,
)

INTERVALS = (0.064, 0.512, 1.0, 16.0)


def make_outcome(serial="S0", rows=64, columns=128, config=WORST_CASE):
    population = CellPopulation(
        key=("engine-test", serial), profile=get_module(serial).profile,
        rows=rows, columns=columns,
    )
    return disturb_outcome(
        population, config, DDR4, SubarrayRole.AGGRESSOR,
        aggressor_local_row=rows // 2,
    )


def unit_peak_bytes_per_cell(rows: int, columns: int) -> float:
    """Traced allocation peak of one `execute_unit` (16 s horizon), per cell."""
    geometry = BankGeometry(subarrays=4, rows_per_subarray=rows, columns=columns)
    unit = plan_units(("S0",), WORST_CASE, CampaignScale(geometry))[0]
    execute_unit(unit, horizon=16.0)  # imports and catalog state first
    tracemalloc.start()
    try:
        execute_unit(unit, horizon=16.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (rows * columns)


def test_execute_unit_allocation_peak_per_cell():
    """One unit at the serve default shape (256 x 512 cells) peaks at no
    more than 21.4 traced bytes per cell (measured 19.5): the population,
    one row block's float64 draw, the two row-block rates buffers and the
    weak-cell events, never a full-size rates, times or mask array.  Serve
    lanes each keep a unit in flight."""
    assert unit_peak_bytes_per_cell(256, 512) <= 21.4


def test_execute_unit_allocation_peak_per_cell_at_campaign_shape():
    """The campaign shape (512 x 1024 cells) peaks at no more than 12.6
    traced bytes per cell (measured 11.5): the row-block buffers stay the
    same size while the population doubles twice."""
    assert unit_peak_bytes_per_cell(512, 1024) <= 12.6


# ---------------------------------------------------------------------------
# Work planning
# ---------------------------------------------------------------------------

def test_plan_units_order_matches_serial_walk():
    units = plan_units(("S0", "M8"), WORST_CASE, QUICK_SCALE)
    assert [(u.serial, u.chip, u.bank, u.subarray) for u in units] == [
        (serial, 0, 0, subarray)
        for serial in ("S0", "M8")
        for subarray in range(4)
    ]
    assert all(u.geometry == QUICK_SCALE.geometry for u in units)
    assert all(u.config == WORST_CASE for u in units)


def test_unit_cache_keys_unique_and_stable():
    units = plan_units(("S0", "M8"), WORST_CASE, QUICK_SCALE)
    keys = [u.cache_key() for u in units]
    assert len(set(keys)) == len(units)
    assert keys == [u.cache_key() for u in units]


# ---------------------------------------------------------------------------
# OutcomeSummary vs the per-interval mask path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interval", INTERVALS)
def test_summary_metrics_match_masks(interval):
    outcome = make_outcome()
    reference = (
        outcome.flip_count(interval),
        outcome.rows_with_flips(interval),
        outcome.retention_flip_count(interval),
        outcome.retention_rows_with_flips(interval),
        outcome.time_to_first_flip(),
    )
    summary = outcome.summarize()
    assert (
        summary.flip_count(interval),
        summary.rows_with_flips(interval),
        summary.retention_flip_count(interval),
        summary.retention_rows_with_flips(interval),
        summary.time_to_first,
    ) == reference
    # The outcome now routes through the summary; results must not move.
    assert outcome.flip_count(interval) == reference[0]
    assert outcome.rows_with_flips(interval) == reference[1]


def test_summary_boundary_intervals_exact():
    """Counts at an interval exactly equal to an event time (<= vs <)."""
    outcome = make_outcome()
    finite = outcome.cd_times[np.isfinite(outcome.cd_times)]
    finite = finite[finite <= 64.0]
    if finite.size == 0:
        pytest.skip("population has no finite ColumnDisturb times")
    summary = outcome.summarize()
    fresh = make_outcome()
    for t in (float(finite.min()), float(np.median(finite))):
        assert summary.flip_count(t) == fresh.flip_count(t)
        assert summary.rows_with_flips(t) == fresh.rows_with_flips(t)


def test_summary_synthetic_half_open_semantics():
    """A cell counts on [cd_time, retention_worst): closed left, open right."""
    outcome = make_outcome()
    outcome.cd_times = np.array([[1.0, 2.0], [np.inf, 4.0]])
    outcome.retention_worst = np.array([[3.0, 2.0], [np.inf, np.inf]])
    outcome.retention_nominal = np.full((2, 2), np.inf)
    outcome._summary = None
    summary = outcome.summarize(horizon=10.0)
    # Cell (0,1) has cd_time == retention_worst: filtered at every interval.
    assert summary.flip_count(1.0) == 1  # closed left endpoint
    assert summary.flip_count(2.9) == 1
    assert summary.flip_count(3.0) == 0  # open right endpoint
    assert summary.flip_count(4.0) == 1  # cell (1,1), unbounded retention
    assert summary.rows_with_flips(1.0) == 1
    assert summary.rows_with_flips(4.0) == 1


def test_summary_horizon_enforced():
    summary = make_outcome().summarize(horizon=1.0)
    with pytest.raises(ValueError, match="horizon"):
        summary.flip_count(2.0)


def test_summarize_rebuilds_for_larger_horizon():
    outcome = make_outcome()
    small = outcome.summarize(horizon=1.0)
    large = outcome.summarize(horizon=32.0)
    assert large.horizon >= 32.0
    assert outcome.summarize(horizon=2.0) is large  # memoized, still covers
    assert small.horizon == 1.0


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def test_cache_disk_roundtrip(tmp_path):
    unit = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]
    summary = execute_unit(unit, horizon=32.0)
    cache = OutcomeCache(tmp_path)
    key = unit.cache_key()
    cache.put(key, summary)

    fresh = OutcomeCache(tmp_path)
    loaded = fresh.get(key, min_horizon=16.0)
    assert isinstance(loaded, OutcomeSummary)
    assert loaded.rows == summary.rows
    assert loaded.cells == summary.cells
    assert loaded.horizon == summary.horizon
    assert loaded.time_to_first == summary.time_to_first
    np.testing.assert_array_equal(loaded.cd_cell_starts, summary.cd_cell_starts)
    np.testing.assert_array_equal(loaded.ret_row_times, summary.ret_row_times)


def test_cache_insufficient_horizon_is_miss(tmp_path):
    unit = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]
    cache = OutcomeCache(tmp_path)
    key = unit.cache_key()
    cache.put(key, execute_unit(unit, horizon=1.0))
    assert cache.get(key, min_horizon=16.0) is None
    assert cache.misses == 1
    assert cache.get(key, min_horizon=0.5) is not None


def test_cache_ignores_corrupt_files(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache._path("deadbeef").write_bytes(b"not an npz archive")
    assert cache.get("deadbeef", min_horizon=0.0) is None


def test_cache_memory_only():
    cache = OutcomeCache()
    unit = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]
    key = unit.cache_key()
    assert cache.get(key) is None
    summary = execute_unit(unit, horizon=2.0)
    cache.put(key, summary)
    assert cache.get(key, min_horizon=2.0) is not None
    assert len(cache) == 1
    assert cache.stats == {
        "entries": 1, "memory_bytes": summary.nbytes, "disk_entries": 0,
        "lookups": 2, "hits": 1, "misses": 1, "disk_hits": 0,
        "quarantined": 0, "evictions": 0, "swept_tmp": 0,
    }
    assert cache.stats["hits"] + cache.stats["misses"] \
        == cache.stats["lookups"]


def test_summary_nbytes_sums_its_arrays():
    unit = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]
    summary = execute_unit(unit, horizon=16.0)
    arrays = (
        summary.cd_cell_starts, summary.cd_cell_ends, summary.cd_row_starts,
        summary.cd_row_ends, summary.ret_cell_times, summary.ret_row_times,
    )
    assert summary.nbytes == sum(array.nbytes for array in arrays) > 0


def test_cache_memory_bytes_tracks_held_entries():
    """``memory_bytes`` is the sum of the held entries' bytes after a put,
    a larger-horizon replace and an LRU eviction."""
    units = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[:3]
    keys = [unit.cache_key() for unit in units]
    short = [execute_unit(unit, horizon=1.0) for unit in units]
    longer = execute_unit(units[0], horizon=16.0)
    assert longer.nbytes > short[0].nbytes
    cache = OutcomeCache(max_memory_entries=2)
    cache.put(keys[0], short[0])
    assert cache.stats["memory_bytes"] == short[0].nbytes
    cache.put(keys[1], short[1])
    assert cache.stats["memory_bytes"] == short[0].nbytes + short[1].nbytes
    cache.put(keys[0], longer)  # replaces key 0, which becomes most recent
    assert len(cache) == 2
    assert cache.stats["memory_bytes"] == longer.nbytes + short[1].nbytes
    cache.put(keys[2], short[2])  # evicts key 1
    assert cache.stats["evictions"] == 1
    assert cache.get(keys[1]) is None
    assert cache.stats["memory_bytes"] == longer.nbytes + short[2].nbytes


def test_cache_memory_bytes_exact_under_concurrent_puts():
    """Fleet pool threads share one cache: no byte update may be lost."""
    empty = np.empty(0)
    sizes = [
        OutcomeSummary(1, 1, 1.0, 0.0, np.zeros(n), empty, empty, empty, empty, empty)
        for n in range(5)
    ]
    keys = [f"key-{i}" for i in range(16)]
    cache = OutcomeCache(max_memory_entries=8)

    def hammer(seed):
        for step in range(2000):
            cache.put(keys[(seed + step) % 16], sizes[(seed * step) % 5])

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
    held = [summary for summary in map(cache.get, keys) if summary is not None]
    assert len(held) == 8
    assert cache.stats["memory_bytes"] == sum(summary.nbytes for summary in held)


def test_cache_concurrent_puts_keep_the_longest_horizon():
    """Serve lanes that compute one unit to several horizons race their
    puts: whichever finishes last, every key ends at its longest."""
    empty = np.empty(0)
    by_horizon = [
        OutcomeSummary(1, 1, float(h), 0.0, np.zeros(h), empty, empty, empty, empty, empty)
        for h in range(1, 6)
    ]
    keys = [f"key-{i}" for i in range(4)]
    cache = OutcomeCache()

    def hammer(seed):
        for step in range(2000):
            cache.put(keys[(seed + step) % 4], by_horizon[(seed * step) % 5])

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
    assert [cache.get(key).horizon for key in keys] == [5.0] * 4
    assert cache.stats["memory_bytes"] == 4 * by_horizon[-1].nbytes


def test_cache_short_disk_write_landing_last_is_rewritten(tmp_path):
    """Two puts of one key write the disk outside the memory lock.  Held at
    a barrier, the shorter put's write lands after the longer one's; the
    longer summary the memory tier holds is then written again, so a fresh
    handle reads the longer entry and does not recompute."""
    empty = np.empty(0)
    short, long = (
        OutcomeSummary(1, 1, h, 0.0, np.zeros(int(h)), empty, empty, empty, empty, empty)
        for h in (1.0, 5.0)
    )
    cache = OutcomeCache(tmp_path)
    save = cache._save
    barrier = threading.Barrier(2, timeout=10)
    long_written = threading.Event()

    def held_save(key, summary):
        if summary is short:
            barrier.wait()  # the longer put has replaced it in memory
            assert long_written.wait(10)
        elif not long_written.is_set():
            barrier.wait()
        save(key, summary)
        if summary is long:
            long_written.set()

    cache._save = held_save
    first = threading.Thread(target=cache.put, args=("key", short))
    first.start()
    while barrier.n_waiting < 1 and first.is_alive():
        time.sleep(0.001)
    second = threading.Thread(target=cache.put, args=("key", long))
    second.start()
    first.join(timeout=30)
    second.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert cache.get("key").horizon == 5.0
    assert OutcomeCache(tmp_path).get("key").horizon == 5.0


def test_cache_short_group_write_landing_last_is_rewritten(tmp_path):
    """The group twin of the test above: a `put_many` whose group record
    holds the shorter summary of a key lands after a single put of the
    longer one.  The key is then written again from the memory tier, so a
    fresh handle reads the longer entry, and the group's other member
    keeps the group record."""
    empty = np.empty(0)
    short, long, other = (
        OutcomeSummary(1, 1, h, 0.0, np.zeros(int(h)), empty, empty, empty, empty, empty)
        for h in (1.0, 5.0, 3.0)
    )
    cache = OutcomeCache(tmp_path)
    save, save_group = cache._save, cache._save_group
    barrier = threading.Barrier(2, timeout=10)
    long_written = threading.Event()

    def held_save_group(pairs):
        barrier.wait()  # the longer put has replaced "key" in memory
        assert long_written.wait(10)
        save_group(pairs)

    def held_save(key, summary):
        if summary is long and not long_written.is_set():
            barrier.wait()
        save(key, summary)
        if summary is long:
            long_written.set()

    cache._save, cache._save_group = held_save, held_save_group
    first = threading.Thread(
        target=cache.put_many, args=([("key", short), ("other", other)],)
    )
    first.start()
    while barrier.n_waiting < 1 and first.is_alive():
        time.sleep(0.001)
    second = threading.Thread(target=cache.put, args=("key", long))
    second.start()
    first.join(timeout=30)
    second.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert cache.get("key").horizon == 5.0
    fresh = OutcomeCache(tmp_path)
    assert fresh.get("key").horizon == 5.0
    assert fresh.get("other").horizon == 3.0
    assert cache._path("key").stat().st_nlink == 1
    assert cache._path("other").stat().st_nlink == 1


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("intervals", [(0.064,), (0.512, 16.0), (1.0, 64.0)])
def test_engine_summaries_sized_to_intervals(intervals, cached):
    """Every summary answers exactly up to the longest interval asked,
    and never below the time-to-first search."""
    engine = CharacterizationEngine(
        scale=QUICK_SCALE, cache=OutcomeCache() if cached else None
    )
    units = plan_units(("S0", "HBM0"), WORST_CASE, QUICK_SCALE)
    summaries = engine.compute_summaries(units, intervals)
    assert {s.horizon for s in summaries} == {max(SEARCH_INTERVAL, *intervals)}


class CountingCache(OutcomeCache):
    """An `OutcomeCache` that counts its puts."""

    puts = 0

    def put(self, key, summary):
        self.puts += 1
        super().put(key, summary)


def test_engine_cache_entries_grow_once_per_longer_interval():
    cache = CountingCache()
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=cache)
    units = plan_units(("S0",), WORST_CASE, QUICK_SCALE)
    n = len(units)
    engine.compute_summaries(units, (0.512,))
    assert (cache.puts, cache.misses, len(cache)) == (n, n, n)
    # A longer interval misses every short entry once and replaces it.
    engine.compute_summaries(units, (16.0,))
    assert (cache.puts, cache.misses, len(cache)) == (2 * n, 2 * n, n)
    held = [cache.get(unit.cache_key()) for unit in units]
    assert {summary.horizon for summary in held} == {16.0}
    # A shorter interval is answered by the grown entries.
    before = cache.stats
    records = engine.characterize_module("S0", WORST_CASE, (1.0,))
    after = cache.stats
    assert cache.puts == 2 * n
    assert after["hits"] - before["hits"] == n
    assert after["misses"] == before["misses"]
    assert after["disk_hits"] == 0
    fresh = CharacterizationEngine(scale=QUICK_SCALE)
    assert records == fresh.characterize_module("S0", WORST_CASE, (1.0,))


def test_engine_reads_128s_disk_entries(tmp_path):
    """Disk entries written at the old 128 s engine horizon stay valid and
    answer shorter passes without a recompute."""
    units = plan_units(("S0",), WORST_CASE, QUICK_SCALE)
    seed = OutcomeCache(tmp_path)
    for unit in units:
        seed.put(unit.cache_key(), execute_unit(unit, horizon=DEFAULT_ENGINE_HORIZON))
    cache = CountingCache(tmp_path)
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=cache)
    records = engine.characterize_module("S0", WORST_CASE, (0.512, 16.0))
    assert cache.stats["disk_hits"] == cache.stats["lookups"] == len(units)
    assert cache.puts == 0
    fresh = CharacterizationEngine(scale=QUICK_SCALE)
    assert records == fresh.characterize_module("S0", WORST_CASE, (0.512, 16.0))


def test_engine_horizon_covers_requested_intervals():
    engine = CharacterizationEngine(scale=QUICK_SCALE, cache=OutcomeCache())
    records = engine.characterize_module("S0", WORST_CASE, (256.0,))
    assert all(256.0 in r.cd_flips for r in records)


def test_engine_defaults_match_search_interval():
    """Engine summaries always cover the 512 ms time-to-first search."""
    engine = CharacterizationEngine(scale=QUICK_SCALE)
    records = engine.characterize_module("S0", WORST_CASE, ())
    serial = CharacterizationEngine(scale=QUICK_SCALE, workers=0)
    assert records == serial.characterize_module("S0", WORST_CASE, ())
    assert all(
        r.time_to_first == float("inf") or r.time_to_first <= SEARCH_INTERVAL
        for r in records
    )
