"""Group records of the outcome cache (`OutcomeCache.put_many`).

A fleet group's entries go to disk as one record: an 8-byte magic, then
per member the byte lengths of its UTF-8 key and of its entry (two
little-endian int64), the key and the entry's bytes, all followed by one
CRC-32.  The record is written and fsync'd once and hard-linked under
every member's ``<key>.outcome``.  A load that meets it keeps the other
members in the memory tier, so the rest of the group is answered without
another disk read and without moving a counter.
"""

import errno
import os
import random
import struct
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import durable
from repro.core import OutcomeCache, OutcomeSummary
from repro.core import cache as cache_module
from repro.fleet import FleetCampaign, FleetSpec

pytestmark = pytest.mark.engine

ARRAY_FIELDS = (
    "cd_cell_starts",
    "cd_cell_ends",
    "cd_row_starts",
    "cd_row_ends",
    "ret_cell_times",
    "ret_row_times",
)
MEMBER = struct.Struct("<qq")
CRC_BYTES = 4


def _summary(horizon: float, values: list[float]) -> OutcomeSummary:
    arrays = {
        name: np.asarray(values[index:], dtype=np.float64)
        for index, name in enumerate(ARRAY_FIELDS)
    }
    return OutcomeSummary(
        rows=len(values) + 1,
        cells=4 * len(values) + 8,
        horizon=horizon,
        time_to_first=values[0] if values else float("inf"),
        **arrays,
    )


def _fingerprint(summary: OutcomeSummary) -> tuple:
    return (
        summary.rows,
        summary.cells,
        summary.horizon,
        summary.time_to_first,
        *(getattr(summary, name).tobytes() for name in ARRAY_FIELDS),
    )


def _group(count: int = 4) -> list[tuple[str, OutcomeSummary]]:
    return [
        (f"{index:064x}", _summary(2.0 + index, [0.5 * step for step in range(index + 3)]))
        for index in range(count)
    ]


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


def test_group_record_layout(tmp_path):
    pairs = _group(3)
    cache = OutcomeCache(tmp_path)
    cache.put_many(pairs)
    paths = [cache._path(key) for key, _ in pairs]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert all(os.path.samefile(paths[0], path) for path in paths)
    assert paths[0].stat().st_nlink == 3
    assert cache.disk_entries == 3
    record = paths[0].read_bytes()
    assert record[:8] == b"OUTGROUP"
    assert struct.unpack("<I", record[-CRC_BYTES:])[0] == zlib.crc32(record[:-CRC_BYTES])
    offset, members = 8, []
    while offset < len(record) - CRC_BYTES:
        key_size, entry_size = MEMBER.unpack_from(record, offset)
        offset += MEMBER.size
        key = record[offset : offset + key_size].decode()
        offset += key_size
        members.append((key, record[offset : offset + entry_size]))
        offset += entry_size
    assert offset == len(record) - CRC_BYTES
    # Each member is the entry a single put writes, byte for byte.
    single = tmp_path / "single"
    for (key, entry), (want_key, summary) in zip(members, pairs):
        OutcomeCache(single).put(key, summary)
        assert key == want_key
        assert entry == (single / f"{key}.outcome").read_bytes()[:-CRC_BYTES]


def test_a_group_of_one_is_a_single_entry(tmp_path):
    (key, summary), = _group(1)
    OutcomeCache(tmp_path).put_many([(key, summary)])
    single = tmp_path / "single"
    OutcomeCache(single).put(key, summary)
    path = tmp_path / f"{key}.outcome"
    assert path.read_bytes() == (single / f"{key}.outcome").read_bytes()
    assert path.stat().st_nlink == 1


def test_an_earlier_build_reads_a_member_as_corrupt(tmp_path):
    """A build from before group records decodes a record as one entry
    (`_decode`): a member fails its magic, so that build quarantines the
    one name it read and recomputes it."""
    pairs = _group(2)
    cache = OutcomeCache(tmp_path)
    cache.put_many(pairs)
    payload = durable.read_record(cache._path(pairs[0][0]))
    with pytest.raises(ValueError, match="not an outcome entry"):
        cache_module._decode(payload)


# ---------------------------------------------------------------------------
# Reads
# ---------------------------------------------------------------------------


def test_a_group_read_holds_the_other_members(tmp_path):
    pairs = _group(4)
    OutcomeCache(tmp_path).put_many(pairs)
    fresh = OutcomeCache(tmp_path)
    tiers = [fresh.lookup(key)[1] for key, _ in pairs]
    assert tiers == ["disk", "memory", "memory", "memory"]
    assert fresh.stats["lookups"] == 4
    assert fresh.stats["hits"] == 4 and fresh.stats["disk_hits"] == 1
    assert fresh.stats["memory_bytes"] == sum(summary.nbytes for _, summary in pairs)
    for key, summary in pairs:
        assert _fingerprint(fresh.get(key)) == _fingerprint(summary)


def test_a_short_group_member_is_not_an_answer(tmp_path):
    """A member held from a group read answers only up to its horizon."""
    pairs = _group(2)
    OutcomeCache(tmp_path).put_many(pairs)
    fresh = OutcomeCache(tmp_path)
    (first, _), (second, summary) = pairs
    assert fresh.lookup(first)[1] == "disk"
    assert fresh.lookup(second, min_horizon=summary.horizon * 2) == (None, "miss")
    stats = fresh.stats
    assert (stats["lookups"], stats["hits"], stats["misses"]) == (2, 1, 1)


@pytest.mark.parametrize("corruption", ["flipped payload byte", "truncated"])
def test_a_corrupt_group_record_quarantines_each_key_as_it_is_read(
    tmp_path, corruption
):
    pairs = _group(3)
    OutcomeCache(tmp_path).put_many(pairs)
    path = tmp_path / f"{pairs[0][0]}.outcome"
    record = bytearray(path.read_bytes())
    if corruption == "truncated":
        del record[len(record) // 2 :]
    else:
        record[40] ^= 0x40
    # Written in place: every name is a link to this one file.
    with open(path, "r+b") as handle:
        handle.write(record)
        handle.truncate()
    fresh = OutcomeCache(tmp_path)
    for count, (key, _) in enumerate(pairs, start=1):
        assert fresh.lookup(key) == (None, "miss")
        assert fresh.quarantined == count
        assert (tmp_path / f"{key}.bad").exists()
    assert not list(tmp_path.glob("*.outcome"))
    stats = fresh.stats
    assert stats["hits"] + stats["misses"] == stats["lookups"] == 3


def test_a_record_that_does_not_hold_its_key_is_quarantined(tmp_path):
    pairs = _group(2)
    OutcomeCache(tmp_path).put_many(pairs)
    stray = tmp_path / f"{'f' * 64}.outcome"
    os.link(tmp_path / f"{pairs[0][0]}.outcome", stray)
    fresh = OutcomeCache(tmp_path)
    assert fresh.lookup("f" * 64) == (None, "miss")
    assert fresh.quarantined == 1
    assert fresh.lookup(pairs[0][0])[1] == "disk"


# ---------------------------------------------------------------------------
# Writes
# ---------------------------------------------------------------------------


def test_without_hard_links_each_member_is_its_own_entry(tmp_path, monkeypatch):
    """Where the filesystem refuses hard links (EPERM on vfat), the group
    is written as one entry per key, as single puts write them."""

    def refused(*args):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(durable.os, "link", refused)
    pairs = _group(4)
    cache = OutcomeCache(tmp_path)
    cache.put_many(pairs)
    monkeypatch.undo()
    assert cache.disk_entries == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{key}.outcome" for key, _ in pairs
    )
    for key, summary in pairs:
        path = tmp_path / f"{key}.outcome"
        assert path.stat().st_nlink == 1
        assert path.read_bytes()[:7] == b"OUTCOME"
        loaded, tier = OutcomeCache(tmp_path).lookup(key)
        assert tier == "disk" and _fingerprint(loaded) == _fingerprint(summary)


def test_a_put_that_runs_out_of_space_leaves_no_temp(tmp_path, monkeypatch):
    def full(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(durable.os, "fsync", full)
    cache = OutcomeCache(tmp_path)
    pairs = _group(2)
    with pytest.raises(OSError):
        cache.put(*pairs[0])
    with pytest.raises(OSError):
        cache.put_many(pairs)
    assert list(tmp_path.iterdir()) == []


def _condition(index: int, horizon: float) -> tuple[str, OutcomeSummary]:
    """Key ``index`` and its summary at ``horizon``: as in the engine, one
    key and one horizon always give one summary."""
    values = [index + 0.5 * step for step in range(int(horizon) + index)]
    return f"{index:064x}", _summary(horizon, values)


conditions = st.builds(
    _condition, st.integers(0, 4), st.sampled_from([1.0, 2.0, 4.0])
)
calls = st.lists(
    st.tuples(st.booleans(), st.lists(conditions, min_size=1, max_size=4)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(calls=calls)
def test_any_split_into_put_and_put_many_reads_back_bit_identically(calls):
    """Whatever mix of single puts and groups wrote a directory, a fresh
    handle reads every key's longest summary back bit for bit, the members
    a group read holds keep its counters consistent, and a corrupted group
    record quarantines each of its names as that name is read."""
    with tempfile.TemporaryDirectory() as directory:
        writer = OutcomeCache(directory)
        for grouped, pairs in calls:
            if grouped:
                writer.put_many(pairs)
            else:
                for key, summary in pairs:
                    writer.put(key, summary)
        written = {key for _, pairs in calls for key, _ in pairs}
        assert writer.disk_entries == len(written)
        reader = OutcomeCache(directory)
        assert reader.disk_entries == len(written)
        for key in sorted(written):
            held = writer.get(key)
            loaded = reader.get(key, min_horizon=held.horizon)
            assert loaded is not None and _fingerprint(loaded) == _fingerprint(held)
        stats = reader.stats
        assert stats["hits"] == stats["lookups"] == len(written)
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["quarantined"] == 0
        names = list(Path(directory).iterdir())
        assert sorted(p.suffix for p in names) == [".outcome"] * len(written)
        groups = {}
        for path in names:
            if path.stat().st_nlink > 1:
                groups.setdefault(path.stat().st_ino, []).append(path)
        if groups:
            linked = next(iter(groups.values()))
            with open(linked[0], "r+b") as handle:
                handle.seek(20)
                flipped = handle.read(1)[0] ^ 0x40
                handle.seek(20)
                handle.write(bytes([flipped]))
            corrupt = OutcomeCache(directory)
            for count, path in enumerate(linked, start=1):
                assert corrupt.lookup(path.stem) == (None, "miss")
                assert corrupt.quarantined == count


def test_concurrent_groups_leave_every_key_at_its_longest_summary(tmp_path):
    """Four threads, more than the host's cores, write overlapping groups at
    several horizons with a short switch interval: every name ends holding
    its key's longest summary, and no temp or quarantined file is left."""
    cache = OutcomeCache(tmp_path)
    longest = {}
    lock = threading.Lock()

    def write(seed):
        rng = random.Random(seed)
        for _ in range(25):
            picked = [(i, rng.choice([1.0, 2.0, 4.0])) for i in rng.sample(range(8), 4)]
            with lock:
                for index, horizon in picked:
                    longest[index] = max(horizon, longest.get(index, 0.0))
            cache.put_many([_condition(index, horizon) for index, horizon in picked])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, horizon in longest.items():
        key, summary = _condition(index, horizon)
        loaded = OutcomeCache(tmp_path).get(key, min_horizon=horizon)
        assert loaded is not None and _fingerprint(loaded) == _fingerprint(summary)
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".outcome"] * len(longest)


# ---------------------------------------------------------------------------
# A fleet campaign
# ---------------------------------------------------------------------------


def test_a_cold_fleet_pass_pays_one_fsync_per_group(tmp_path, monkeypatch):
    """128 instances at 64 x 256 on two workers, checkpointed every 64: 32
    groups of four, one fsync each, plus a file and a directory fsync per
    checkpoint (one fsync per instance, 132 in all, before group records)."""
    calls = []
    real = os.fsync

    def counted(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(durable.os, "fsync", counted)
    spec = FleetSpec(modules=128, seed=5, offset=1000, scenario="mixed")
    cache = OutcomeCache(tmp_path / "cache")
    result = FleetCampaign(
        spec=spec,
        cache=cache,
        checkpoint_dir=str(tmp_path / "checkpoints"),
        checkpoint_every=64,
        workers=2,
    ).run()
    monkeypatch.undo()
    assert result.cache_misses == 128
    assert len(calls) == 36
    names = list((tmp_path / "cache").iterdir())
    assert len(names) == 128 == cache.disk_entries
    assert {path.stat().st_nlink for path in names} == {4}
    rerun = FleetCampaign(spec=spec, cache=OutcomeCache(tmp_path / "cache")).run()
    assert rerun.cache_hits == 128
    assert rerun.aggregator.snapshot() == result.aggregator.snapshot()
