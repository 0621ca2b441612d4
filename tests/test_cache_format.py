"""The on-disk record of the outcome cache: layout, round trip, corruption.

A disk entry is ``<key>.outcome``: an 88-byte little-endian header (8-byte
magic, ``rows``/``cells`` int64, ``horizon``/``time_to_first`` float64, six
int64 array lengths), the six arrays as ``<f8``, then a CRC-32 of all the
bytes before it.  Any entry that is not exactly one intact record is
quarantined to ``<key>.bad`` and reads as a miss; files that are not
entries (such as a ``.npz`` from the earlier zip layout) are never read.
"""

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from repro.chip import get_module
from repro.chip.cells import CellPopulation
from repro.core import (
    QUICK_SCALE,
    WORST_CASE,
    OutcomeCache,
    OutcomeSummary,
    execute_unit,
    plan_units,
    retention_outcome,
)
from repro.fleet import FleetSpec
from repro.fleet.campaign import characterize_instance

pytestmark = pytest.mark.engine

#: magic, rows, cells, horizon, time_to_first, six array lengths.
HEADER_BYTES = 8 + 8 * (2 + 2 + 6)
CRC_BYTES = 4
ARRAY_FIELDS = (
    "cd_cell_starts",
    "cd_cell_ends",
    "cd_row_starts",
    "cd_row_ends",
    "ret_cell_times",
    "ret_row_times",
)


def _empty_summary() -> OutcomeSummary:
    return OutcomeSummary(
        rows=8,
        cells=64,
        horizon=2.0,
        time_to_first=float("inf"),
        **{name: np.empty(0, dtype=np.float64) for name in ARRAY_FIELDS},
    )


def _round_trip_cases() -> dict[str, OutcomeSummary]:
    unit = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]
    cases = {
        f"unit@{horizon}": execute_unit(unit, horizon=horizon)
        for horizon in (0.064, 16.0, 128.0)
    }
    population = CellPopulation(
        key=("S0", 0, 0, 1), profile=get_module("S0").profile, rows=64, columns=256
    )
    cases["retention"] = retention_outcome(population, 85.0).summarize(64.0)
    spec = FleetSpec(modules=2, seed=3, rows=32, columns=64, scenario="mixed")
    for index in range(2):
        cases[f"mixed#{index}"] = characterize_instance(
            spec.instance(index), spec.horizon
        )
    cases["empty"] = _empty_summary()
    return cases


@pytest.fixture(scope="module")
def cases():
    return _round_trip_cases()


@pytest.fixture
def stored(tmp_path):
    """A directory holding one entry with non-empty arrays, and its key."""
    unit = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]
    summary = execute_unit(unit, horizon=16.0)
    assert all(getattr(summary, name).size for name in ARRAY_FIELDS[:3])
    key = unit.cache_key()
    OutcomeCache(tmp_path).put(key, summary)
    return key, OutcomeCache(tmp_path)._path(key)


# ---------------------------------------------------------------------------
# Layout and round trip
# ---------------------------------------------------------------------------


def test_entry_layout(tmp_path, cases):
    summary = cases["unit@16.0"]
    cache = OutcomeCache(tmp_path)
    cache.put("k", summary)
    path = cache._path("k")
    assert path.name == "k.outcome"
    record = path.read_bytes()
    lengths = [getattr(summary, name).size for name in ARRAY_FIELDS]
    assert len(record) == HEADER_BYTES + 8 * sum(lengths) + CRC_BYTES
    magic, rows, cells, horizon, time_to_first, *stored_lengths = struct.unpack_from(
        "<8sqqdd6q", record
    )
    assert magic.startswith(b"OUTCOME")
    assert (rows, cells, horizon, time_to_first) == (
        summary.rows,
        summary.cells,
        summary.horizon,
        summary.time_to_first,
    )
    assert stored_lengths == lengths
    payload = record[HEADER_BYTES:-CRC_BYTES]
    assert payload == b"".join(
        getattr(summary, name).astype("<f8").tobytes() for name in ARRAY_FIELDS
    )
    assert struct.unpack("<I", record[-CRC_BYTES:])[0] == zlib.crc32(
        record[:-CRC_BYTES]
    )


@pytest.mark.parametrize(
    "name",
    ["unit@0.064", "unit@16.0", "unit@128.0", "retention", "mixed#0", "mixed#1", "empty"],
)
def test_round_trip_is_exact(tmp_path, cases, name):
    summary = cases[name]
    OutcomeCache(tmp_path).put("k", summary)
    reader = OutcomeCache(tmp_path)
    loaded, tier = reader.lookup("k")
    assert tier == "disk"
    for field in dataclasses.fields(OutcomeSummary):
        want = getattr(summary, field.name)
        got = getattr(loaded, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable
        else:
            assert type(got) is type(want)
            assert got == want
    assert loaded.nbytes == summary.nbytes
    assert reader.stats["quarantined"] == 0


# ---------------------------------------------------------------------------
# Corruption matrix
# ---------------------------------------------------------------------------


def _flip(record: bytes, offset: int) -> bytes:
    return record[:offset] + bytes([record[offset] ^ 0x40]) + record[offset + 1 :]


CORRUPTIONS = {
    "empty file": lambda r: b"",
    "header only": lambda r: r[:HEADER_BYTES],
    "truncated mid-payload": lambda r: r[: (HEADER_BYTES + len(r)) // 2],
    "missing CRC": lambda r: r[:-CRC_BYTES],
    "one extra byte": lambda r: r + b"\0",
    "wrong magic": lambda r: b"NOTOUTCM" + r[8:],
    "length past the file end": lambda r: (
        r[:40] + struct.pack("<q", len(r)) + r[48:]
    ),
    "flipped header byte": lambda r: _flip(r, 9),
    "flipped payload byte": lambda r: _flip(r, HEADER_BYTES + 3),
    "flipped CRC byte": lambda r: _flip(r, len(r) - 2),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_entry_is_quarantined_miss(stored, corruption):
    key, path = stored
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    cache = OutcomeCache(path.parent)
    assert cache.lookup(key) == (None, "miss")
    assert cache.quarantined == 1
    assert not path.exists()
    assert path.with_name(f"{key}.bad").exists()
    # Quarantined once: the slot is now a clean miss.
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert cache.stats["hits"] == 0


def test_missing_entry_is_a_clean_miss(tmp_path):
    cache = OutcomeCache(tmp_path)
    assert cache.lookup("absent") == (None, "miss")
    assert cache.quarantined == 0
    assert list(tmp_path.iterdir()) == []


def test_earlier_npz_entry_is_ignored(tmp_path, cases):
    """A ``.npz`` left by the zip layout is not an entry: it is never read,
    counted, quarantined, or touched; its key recomputes once."""
    summary = cases["unit@16.0"]
    npz = tmp_path / "k.npz"
    with open(npz, "wb") as handle:
        np.savez(
            handle,
            scalars=np.array([summary.rows, summary.cells, summary.horizon, 0.0]),
            **{name: getattr(summary, name) for name in ARRAY_FIELDS},
        )
    before = npz.read_bytes()
    cache = OutcomeCache(tmp_path)
    assert cache.disk_entries == 0
    assert cache.lookup("k") == (None, "miss")
    assert cache.quarantined == 0
    assert npz.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.npz"]
    cache.put("k", summary)
    assert cache.disk_entries == 1
    assert OutcomeCache(tmp_path).lookup("k")[1] == "disk"
    assert npz.read_bytes() == before
