"""Content-addressed cache of characterization outcomes.

The ~20 figure benches repeatedly characterize the same (module, config,
temperature) conditions — often differing only in the refresh intervals they
query.  Because an `OutcomeSummary` answers *any* interval up to its horizon,
one cached summary per condition serves them all: the cache key addresses
the *condition* (population identity, geometry, disturb config, role,
guardband), never the intervals.

Two tiers:

* in-memory — always on; shares summaries within one process (e.g. across
  figure benches in one pytest run).  Optionally LRU-bounded
  (``max_memory_entries``) so multi-day campaigns cannot grow without limit;
* on-disk (optional) — one ``<key>.outcome`` file per key under a
  user-chosen directory, so repeated campaign runs skip recomputation
  entirely.

A disk entry is one framed binary record: a fixed little-endian header
(magic, ``rows``, ``cells``, ``horizon``, ``time_to_first`` and the six
array lengths), the six arrays as ``<f8`` in `OutcomeSummary` field order,
then a CRC-32 of everything before it.  A load is one read into one buffer
that the loaded arrays view, so a hit costs a checksum, not a parse.

The disk tier is crash-safe: writes go to a unique temp file that is
fsync'd before an atomic ``os.replace`` (a torn write can never surface as
a valid-looking entry), stale temp files orphaned by a killed process are
swept on ``__init__``, and an entry whose frame or checksum does not hold
is quarantined (renamed to ``<key>.bad``) on first read instead of
silently re-missing every run.

Keys are content hashes over every input that determines the outcome,
including a fingerprint of the die profile's calibrated parameters — a
recalibrated catalog silently invalidates stale entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import struct
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.analytic import OutcomeSummary, SubarrayRole
from repro.obs import state as _obs_state
from repro.core.config import DisturbConfig
from repro.physics.profile import DisturbanceProfile

# Registry mirrors of the per-instance `stats` counters (`repro.obs`),
# pre-bound per tier so the hot lookup path is one guarded increment.
_LOOKUPS = obs.counter(
    "cache_lookups_total",
    "Outcome-cache lookups, by the tier that answered.",
    labelnames=("tier",),
)
_LOOKUP_MEMORY = _LOOKUPS.labels(tier="memory")
_LOOKUP_DISK = _LOOKUPS.labels(tier="disk")
_LOOKUP_MISS = _LOOKUPS.labels(tier="miss")
_PUTS = obs.counter(
    "cache_puts_total", "Outcome summaries stored in the cache."
)
_QUARANTINED = obs.counter(
    "cache_quarantined_total",
    "Corrupt disk entries renamed to .bad on first read.",
)
_EVICTIONS = obs.counter(
    "cache_evictions_total",
    "Memory-tier entries evicted past max_memory_entries.",
)
# Gauge mirrors of the per-instance `stats` so a /metrics scrape can tell
# the cache's own hit ratio apart from the serve layer's coalesce ratio.
# Several live caches share these families; the most recently active
# instance's observation wins (the normal case is exactly one cache per
# process — the engine's, or the serve scheduler's).
_HIT_RATIO = obs.gauge(
    "cache_hit_ratio",
    "hits / lookups of the most recently active outcome cache.",
)
_ENTRIES = obs.gauge(
    "cache_entries",
    "Entries held by the most recently active outcome cache, per tier.",
    labelnames=("tier",),
)
_ENTRIES_MEMORY = _ENTRIES.labels(tier="memory")
_ENTRIES_DISK = _ENTRIES.labels(tier="disk")
_MEMORY_BYTES = obs.gauge(
    "cache_memory_bytes",
    "Summary array bytes held by the memory tier of the most recently "
    "active outcome cache.",
)

#: Bump when the summary layout or the outcome semantics change: old disk
#: entries become unreachable instead of wrong.
CACHE_FORMAT_VERSION = 2

#: Temp files older than this are presumed orphaned by a dead process and
#: swept on init; younger ones may belong to a live concurrent writer.
TMP_SWEEP_AGE_S = 600.0

_ARRAY_FIELDS = (
    "cd_cell_starts",
    "cd_cell_ends",
    "cd_row_starts",
    "cd_row_ends",
    "ret_cell_times",
    "ret_row_times",
)

#: Disk entries are ``<key>.outcome``; nothing else in the directory is read.
_ENTRY_SUFFIX = ".outcome"

#: Entry header: magic, rows, cells, horizon, time_to_first, then the
#: length of each `_ARRAY_FIELDS` array, all little-endian.
_HEADER = struct.Struct(f"<8sqqdd{len(_ARRAY_FIELDS)}q")
_MAGIC = b"OUTCOME" + bytes([CACHE_FORMAT_VERSION])
_CRC = struct.Struct("<I")
_F8 = np.dtype("<f8")

#: Everything reading or decoding a short, torn, or foreign entry raises.
_CORRUPT_ENTRY_ERRORS = (OSError, ValueError)

#: Disambiguates temp files written by threads sharing one pid.
_TMP_SEQUENCE = itertools.count()


def content_key(fields: tuple) -> str:
    """Stable content hash of a tuple of plain values.

    The shared key-derivation primitive: `outcome_cache_key` addresses one
    characterization condition with it, and `repro.serve.protocol` derives
    request coalescing keys from it, so both layers inherit the same
    collision and stability properties.  ``fields`` must contain only
    values with a deterministic ``repr`` (numbers, strings, tuples).
    """
    return hashlib.sha256(repr(tuple(fields)).encode()).hexdigest()


def _field_values(value) -> tuple:
    """The field values of a flat dataclass, in field order.

    For the flat frozen dataclasses keys hash (`DisturbanceProfile`,
    `DisturbConfig`) this equals ``dataclasses.astuple(value)``, and so has
    the same ``repr``, without its recursive copy of every field.
    """
    return tuple(getattr(value, field.name) for field in dataclasses.fields(value))


def outcome_cache_key(
    population_key: tuple,
    rows: int,
    columns: int,
    profile: DisturbanceProfile,
    config: DisturbConfig,
    role: SubarrayRole,
    guardband: int,
    aggressor_local_row: int | None,
) -> str:
    """Stable content hash of one characterization condition."""
    return content_key((
        CACHE_FORMAT_VERSION,
        tuple(population_key),
        rows,
        columns,
        _field_values(profile),
        _field_values(config),
        role.value,
        guardband,
        aggressor_local_row,
    ))


class OutcomeCache:
    """Two-tier (memory + optional disk) store of `OutcomeSummary` values.

    Args:
        directory: optional on-disk tier; created if missing.  ``None``
            keeps the cache purely in-memory.
        max_memory_entries: optional LRU bound on the memory tier; the
            least recently used entry is evicted past this size (the disk
            tier, when configured, still holds every entry).
        tmp_sweep_age_s: age threshold for the init-time sweep of orphaned
            ``*.tmp*`` files left behind by crashed writers.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_memory_entries: int | None = None,
        tmp_sweep_age_s: float = TMP_SWEEP_AGE_S,
    ) -> None:
        self._memory: OrderedDict[str, OutcomeSummary] = OrderedDict()
        # Fleet pool threads share one cache, and the serve event loop
        # reads it while the submission lane writes: the memory tier, its
        # byte total and the lookup counters change only under this lock.
        self._memory_lock = threading.Lock()
        self.memory_bytes = 0
        self.max_memory_entries = max_memory_entries
        self.directory = Path(directory) if directory is not None else None
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.quarantined = 0
        self.evictions = 0
        self.swept_tmp = 0
        self.disk_entries = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sweep_tmp(tmp_sweep_age_s)
            self.disk_entries = sum(
                1 for _ in self.directory.glob(f"*{_ENTRY_SUFFIX}")
            )

    def __len__(self) -> int:
        return len(self._memory)

    def lookup(
        self, key: str, min_horizon: float = 0.0
    ) -> tuple[OutcomeSummary | None, str]:
        """Look up ``key`` and report which tier answered.

        Returns ``(summary, tier)`` with tier one of ``"memory"``,
        ``"disk"``, or ``"miss"``.  A stored summary whose horizon cannot
        answer ``min_horizon`` is a miss — it is *not* promoted between
        tiers, and the caller's subsequent `put` replaces it.

        Safe against concurrent `put` calls: the memory-tier read, its
        recency refresh and the counters move together under the memory
        lock, and the disk read runs outside it.
        """
        with self._memory_lock:
            summary = self._memory.get(key)
            hit = summary is not None and summary.horizon >= min_horizon
            if hit:
                self._memory.move_to_end(key)
                self.lookups += 1
                self.hits += 1
        if hit:
            _LOOKUP_MEMORY.inc()
            self._update_gauges()
            return summary, "memory"
        if self.directory is not None:
            loaded = self._load(key)
            if loaded is not None and loaded.horizon >= min_horizon:
                self._remember(key, loaded)
                with self._memory_lock:
                    self.lookups += 1
                    self.hits += 1
                    self.disk_hits += 1
                _LOOKUP_DISK.inc()
                self._update_gauges()
                return loaded, "disk"
        with self._memory_lock:
            self.lookups += 1
            self.misses += 1
        _LOOKUP_MISS.inc()
        self._update_gauges()
        return None, "miss"

    def holds(self, key: str, min_horizon: float = 0.0) -> bool:
        """Whether the memory tier holds a summary of ``key`` able to
        answer intervals up to ``min_horizon``.

        A probe, not a lookup: it never reads the disk tier and changes no
        counter and no recency, so a caller can check that a whole request
        is in memory before resolving it through `lookup`.
        """
        with self._memory_lock:
            summary = self._memory.get(key)
        return summary is not None and summary.horizon >= min_horizon

    def get(self, key: str, min_horizon: float = 0.0) -> OutcomeSummary | None:
        """Look up a summary able to answer intervals up to ``min_horizon``."""
        return self.lookup(key, min_horizon)[0]

    def put(self, key: str, summary: OutcomeSummary) -> None:
        """Store a summary in memory (and on disk when configured)."""
        self._remember(key, summary)
        _PUTS.inc()
        if self.directory is not None:
            self._save(key, summary)
        self._update_gauges()

    @property
    def stats(self) -> dict[str, int]:
        """Mutually consistent counters: ``hits + misses == lookups``;
        ``disk_hits`` is the subset of ``hits`` answered from disk;
        ``memory_bytes`` is the summary array bytes the memory tier holds."""
        with self._memory_lock:
            return {
                "entries": len(self._memory),
                "memory_bytes": self.memory_bytes,
                "disk_entries": self.disk_entries,
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "quarantined": self.quarantined,
                "evictions": self.evictions,
                "swept_tmp": self.swept_tmp,
            }

    def _update_gauges(self) -> None:
        """Mirror this instance's tier sizes and hit ratio onto the
        registry gauges (last active instance wins)."""
        if not _obs_state.enabled:
            return
        _ENTRIES_MEMORY.set(len(self._memory))
        _ENTRIES_DISK.set(self.disk_entries)
        _MEMORY_BYTES.set(self.memory_bytes)
        if self.lookups:
            _HIT_RATIO.set(self.hits / self.lookups)

    # ------------------------------------------------------------------
    # Memory tier
    # ------------------------------------------------------------------
    def _remember(self, key: str, summary: OutcomeSummary) -> None:
        """Hold ``summary`` as the most recent entry, replacing any older
        summary of ``key``, and keep ``memory_bytes`` equal to the sum of
        the held entries' bytes."""
        with self._memory_lock:
            replaced = self._memory.get(key)
            if replaced is not None:
                self.memory_bytes -= replaced.nbytes
            self._memory[key] = summary
            self._memory.move_to_end(key)
            self.memory_bytes += summary.nbytes
            if self.max_memory_entries is not None:
                while len(self._memory) > self.max_memory_entries:
                    _, evicted = self._memory.popitem(last=False)
                    self.memory_bytes -= evicted.nbytes
                    self.evictions += 1
                    _EVICTIONS.inc()

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_ENTRY_SUFFIX}"

    def _save(self, key: str, summary: OutcomeSummary) -> None:
        arrays = [
            np.ascontiguousarray(getattr(summary, name), dtype=_F8)
            for name in _ARRAY_FIELDS
        ]
        header = _HEADER.pack(
            _MAGIC, summary.rows, summary.cells, summary.horizon,
            summary.time_to_first, *(array.size for array in arrays),
        )
        path = self._path(key)
        tmp = path.parent / (
            f"{path.name}.tmp{os.getpid()}-{next(_TMP_SEQUENCE)}"
        )
        with open(tmp, "wb") as handle:
            handle.write(header)
            crc = zlib.crc32(header)
            for array in arrays:
                handle.write(array)
                crc = zlib.crc32(array, crc)
            handle.write(_CRC.pack(crc))
            handle.flush()
            os.fsync(handle.fileno())
        existed = path.exists()
        os.replace(tmp, path)
        if not existed:
            self.disk_entries += 1

    def _load(self, key: str) -> OutcomeSummary | None:
        path = self._path(key)
        try:
            with open(path, "rb", buffering=0) as handle:
                record = bytearray(os.fstat(handle.fileno()).st_size)
                if handle.readinto(record) != len(record):
                    raise ValueError("short read")
            return _decode(record)
        except FileNotFoundError:
            return None
        except _CORRUPT_ENTRY_ERRORS:
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Rename a corrupt entry to ``<key>.bad`` so the next run misses
        cleanly (and the evidence survives for inspection)."""
        try:
            os.replace(path, path.with_suffix(".bad"))
            self.quarantined += 1
            self.disk_entries = max(0, self.disk_entries - 1)
            _QUARANTINED.inc()
        except OSError:
            # Lost a race with another reader/writer: nothing to keep.
            pass

    def _sweep_tmp(self, age_s: float) -> None:
        now = time.time()
        for orphan in self.directory.glob("*.tmp*"):
            try:
                if now - orphan.stat().st_mtime >= age_s:
                    orphan.unlink()
                    self.swept_tmp += 1
            except OSError:
                # Concurrent sweep or a live writer finishing: fine.
                pass


def _decode(record: bytearray) -> OutcomeSummary:
    """Check one disk entry's frame and checksum and view its arrays.

    The arrays are writable views of ``record``; raises ``ValueError`` if
    the entry is not exactly one intact record.
    """
    if len(record) < _HEADER.size + _CRC.size:
        raise ValueError("entry shorter than its frame")
    magic, rows, cells, horizon, time_to_first, *lengths = _HEADER.unpack_from(
        record
    )
    if magic != _MAGIC:
        raise ValueError("not an outcome entry")
    if min(lengths) < 0:
        raise ValueError("negative array length")
    end = _HEADER.size + _F8.itemsize * sum(lengths)
    if end + _CRC.size != len(record):
        raise ValueError("entry size does not match its header")
    if zlib.crc32(memoryview(record)[:end]) != _CRC.unpack_from(record, end)[0]:
        raise ValueError("checksum mismatch")
    arrays = {}
    offset = _HEADER.size
    for name, length in zip(_ARRAY_FIELDS, lengths):
        arrays[name] = np.frombuffer(record, _F8, length, offset)
        offset += _F8.itemsize * length
    return OutcomeSummary(
        rows=rows,
        cells=cells,
        horizon=horizon,
        time_to_first=time_to_first,
        **arrays,
    )
