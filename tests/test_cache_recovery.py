"""Crash-recovery paths of the on-disk outcome cache.

A real campaign's cache directory outlives many processes, some of which
die mid-write.  These tests cover the crash-safety contract: torn/corrupt
entries are quarantined (never silently re-missed every run), temp files
orphaned by dead writers are swept on init, concurrent writers to the same
key converge, and the stats counters stay mutually consistent.
"""

import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    OutcomeCache,
    execute_unit,
    plan_units,
)

pytestmark = pytest.mark.engine


@pytest.fixture
def unit():
    return plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]


@pytest.fixture
def summary(unit):
    return execute_unit(unit, horizon=32.0)


def _entry_path(directory, key: str) -> Path:
    """Where an `OutcomeCache` on ``directory`` keeps ``key``'s entry."""
    return OutcomeCache(directory)._path(key)


# ---------------------------------------------------------------------------
# Corrupt entries
# ---------------------------------------------------------------------------

def test_corrupt_entry_is_quarantined_not_remissed(tmp_path, unit, summary):
    cache = OutcomeCache(tmp_path)
    key = unit.cache_key()
    cache.put(key, summary)
    # Simulate a torn write that survived as a valid-looking file.
    cache._path(key).write_bytes(b"PK\x03\x04 truncated garbage")

    fresh = OutcomeCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.quarantined == 1
    assert not cache._path(key).exists()
    assert (tmp_path / f"{key}.bad").exists()
    # The quarantined entry never comes back: the next lookup is a clean
    # miss (no file), not another quarantine.
    assert fresh.get(key) is None
    assert fresh.quarantined == 1


def test_truncated_npz_is_miss_and_quarantined(tmp_path, unit, summary):
    cache = OutcomeCache(tmp_path)
    key = unit.cache_key()
    cache.put(key, summary)
    path = cache._path(key)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    fresh = OutcomeCache(tmp_path)
    assert fresh.get(key, min_horizon=1.0) is None
    assert fresh.quarantined == 1
    # A subsequent put repopulates the slot and the entry loads again.
    fresh.put(key, summary)
    assert OutcomeCache(tmp_path).get(key, min_horizon=1.0) is not None


# ---------------------------------------------------------------------------
# Orphaned temp files
# ---------------------------------------------------------------------------

def test_stale_tmp_files_swept_on_init(tmp_path):
    stale = Path(f"{_entry_path(tmp_path, 'deadbeef')}.tmp12345-0")
    stale.write_bytes(b"half-written")
    old = time.time() - 7200
    os.utime(stale, (old, old))

    cache = OutcomeCache(tmp_path)
    assert not stale.exists()
    assert cache.swept_tmp == 1


def test_fresh_tmp_files_survive_init_sweep(tmp_path):
    """A young temp file may belong to a live concurrent writer."""
    fresh = Path(f"{_entry_path(tmp_path, 'cafebabe')}.tmp99999-3")
    fresh.write_bytes(b"in flight")

    cache = OutcomeCache(tmp_path)
    assert fresh.exists()
    assert cache.swept_tmp == 0


def test_sweep_age_is_configurable(tmp_path):
    orphan = Path(f"{_entry_path(tmp_path, 'feedface')}.tmp1-1")
    orphan.write_bytes(b"orphan")
    cache = OutcomeCache(tmp_path, tmp_sweep_age_s=0.0)
    assert not orphan.exists()
    assert cache.swept_tmp == 1


def test_save_leaves_no_tmp_behind(tmp_path, unit, summary):
    cache = OutcomeCache(tmp_path)
    cache.put(unit.cache_key(), summary)
    assert list(tmp_path.glob("*.tmp*")) == []
    suffix = cache._path(unit.cache_key()).suffix
    assert len(list(tmp_path.glob(f"*{suffix}"))) == 1


# ---------------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------------

def test_concurrent_writers_to_same_key_converge(tmp_path, unit, summary):
    key = unit.cache_key()
    first = OutcomeCache(tmp_path)
    second = OutcomeCache(tmp_path)
    first.put(key, summary)
    second.put(key, summary)
    first.put(key, summary)

    loaded = OutcomeCache(tmp_path).get(key, min_horizon=16.0)
    assert loaded is not None
    assert loaded.horizon == summary.horizon
    np.testing.assert_array_equal(loaded.cd_cell_starts, summary.cd_cell_starts)
    assert list(tmp_path.glob("*.tmp*")) == []


def test_interleaved_writers_different_keys(tmp_path, unit, summary):
    units = plan_units(("S0",), WORST_CASE, QUICK_SCALE)
    writers = [OutcomeCache(tmp_path) for _ in range(2)]
    for i, u in enumerate(units):
        writers[i % 2].put(u.cache_key(), execute_unit(u, horizon=4.0))
    reader = OutcomeCache(tmp_path)
    for u in units:
        assert reader.get(u.cache_key(), min_horizon=2.0) is not None
    assert reader.disk_hits == len(units)


# ---------------------------------------------------------------------------
# Counter consistency and tier behaviour
# ---------------------------------------------------------------------------

def test_insufficient_disk_entry_not_promoted(tmp_path, unit):
    """A disk entry that cannot answer min_horizon must not poison the
    memory tier or count as any kind of hit."""
    key = unit.cache_key()
    OutcomeCache(tmp_path).put(key, execute_unit(unit, horizon=1.0))

    cache = OutcomeCache(tmp_path)
    assert cache.get(key, min_horizon=16.0) is None
    assert len(cache) == 0  # nothing promoted into memory
    assert cache.stats["disk_hits"] == 0
    assert cache.stats["misses"] == 1
    assert cache.stats["hits"] == 0
    # The same entry still answers a small-horizon lookup, from disk.
    assert cache.get(key, min_horizon=0.5) is not None
    assert cache.stats["disk_hits"] == 1
    assert cache.stats["hits"] + cache.stats["misses"] \
        == cache.stats["lookups"]


def test_lookup_reports_tier(tmp_path, unit, summary):
    key = unit.cache_key()
    OutcomeCache(tmp_path).put(key, summary)
    cache = OutcomeCache(tmp_path)
    assert cache.lookup("missing-key")[1] == "miss"
    assert cache.lookup(key, min_horizon=1.0)[1] == "disk"
    assert cache.lookup(key, min_horizon=1.0)[1] == "memory"
    assert cache.stats["lookups"] == 3
    assert cache.stats["hits"] == 2
    assert cache.stats["misses"] == 1


def test_memory_tier_lru_bound(unit):
    units = plan_units(("S0",), WORST_CASE, QUICK_SCALE)
    cache = OutcomeCache(max_memory_entries=2)
    summaries = {u.cache_key(): execute_unit(u, horizon=2.0) for u in units}
    for key, s in summaries.items():
        cache.put(key, s)
    assert len(cache) == 2
    assert cache.evictions == len(units) - 2
    keys = list(summaries)
    # Only the two most recently inserted survive.
    assert cache.get(keys[0]) is None
    assert cache.get(keys[-1]) is not None
    assert cache.get(keys[-2]) is not None


def test_lru_get_refreshes_recency(unit):
    units = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[:3]
    keys = [u.cache_key() for u in units]
    cache = OutcomeCache(max_memory_entries=2)
    cache.put(keys[0], execute_unit(units[0], horizon=2.0))
    cache.put(keys[1], execute_unit(units[1], horizon=2.0))
    assert cache.get(keys[0]) is not None  # refresh key 0
    cache.put(keys[2], execute_unit(units[2], horizon=2.0))  # evicts key 1
    assert cache.get(keys[0]) is not None
    assert cache.get(keys[1]) is None


def test_holds_probes_memory_only(tmp_path, unit, summary):
    """`holds` answers from the memory tier alone: it never loads a disk
    entry and moves no counter."""
    key = unit.cache_key()
    OutcomeCache(tmp_path).put(key, summary)
    cache = OutcomeCache(tmp_path)
    assert not cache.holds(key)  # on disk only
    assert len(cache) == 0
    assert cache.lookup(key, min_horizon=1.0)[1] == "disk"
    assert cache.holds(key, min_horizon=summary.horizon)
    assert not cache.holds(key, min_horizon=summary.horizon * 2)
    assert not cache.holds("missing-key")
    assert cache.stats["lookups"] == 1 and cache.stats["hits"] == 1


def test_lookup_survives_concurrent_eviction(unit, summary):
    """A memory hit whose entry another thread evicts mid-lookup must not
    raise, and the counters must still add up.  The serve event loop reads
    the cache while the submission lane writes it."""
    readers, rounds = 2, 10_000
    cache = OutcomeCache(max_memory_entries=1)
    cache.put("a", summary)
    stop = threading.Event()
    errors = []

    def writer():
        while not stop.is_set():
            cache.put("a", summary)
            cache.put("b", summary)  # evicts "a"

    def reader():
        try:
            for _ in range(rounds):
                cache.lookup("a")
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writing = threading.Thread(target=writer)
    reading = [threading.Thread(target=reader) for _ in range(readers)]
    try:
        writing.start()
        for thread in reading:
            thread.start()
        for thread in reading:
            thread.join(timeout=60)
    finally:
        stop.set()
        writing.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not writing.is_alive()
    assert not any(thread.is_alive() for thread in reading)
    assert errors == []
    stats = cache.stats
    assert stats["lookups"] == readers * rounds
    assert stats["hits"] + stats["misses"] == stats["lookups"]
