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

Beside its summaries the memory tier holds one `WeakTail` per cell
population the engine has drawn (`tail` / `put_tail`, keyed by
`population_cache_key`): the few cells any cooler or shorter condition on
that population can need, so the engine answers such a unit without
drawing the population again.  Tails never reach the disk, never pass
through `lookup`, and only grow.

A disk entry is one `repro._util.durable` record whose payload is a fixed
little-endian header (magic, ``rows``, ``cells``, ``horizon``,
``time_to_first`` and the six array lengths) and the six arrays as ``<f8``
in `OutcomeSummary` field order.  A load is one read into one buffer that
the loaded arrays view, so a hit costs a checksum, not a parse.  That
module makes the disk tier crash-safe: writes are atomic, ``__init__``
sweeps temp files orphaned by a killed process, and an entry that is not
exactly one intact record is quarantined (renamed to ``<key>.bad``) on
first read instead of silently re-missing every run.

`put_many` writes the entries of several keys (a fleet group) as one
group record: its own magic, then per member the key, the entry's length
and the entry's bytes.  The record is written and fsync'd once and
hard-linked under every member's ``<key>.outcome``; where the filesystem
has no hard links, each member is written as its own entry instead.  A
load that meets a group record checks its one CRC and also holds the
other members in the memory tier, so the rest of the group is answered
without another disk read.

Keys are content hashes over every input that determines the outcome,
including a fingerprint of the die profile's calibrated parameters — a
recalibrated catalog silently invalidates stale entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import threading
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro import obs
from repro._util import durable
from repro.core.analytic import OutcomeSummary, SubarrayRole, WeakTail
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
    "Summary and weak-tail array bytes held by the memory tier of the most "
    "recently active outcome cache.",
)

#: Bump when the summary layout or the outcome semantics change: old disk
#: entries become unreachable instead of wrong.
CACHE_FORMAT_VERSION = 2

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
#: Group record: this magic, then per member a `_MEMBER` header (the byte
#: lengths of its UTF-8 key and of its entry), the key and the entry.
_GROUP_MAGIC = b"OUTGROUP"
_MEMBER = struct.Struct("<qq")
_F8 = np.dtype("<f8")


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


def population_cache_key(
    population_key: tuple, rows: int, columns: int, profile: DisturbanceProfile
) -> str:
    """Stable content hash of one cell population: the key of its
    `WeakTail`."""
    return content_key(
        ("population", tuple(population_key), rows, columns, _field_values(profile))
    )


class OutcomeCache:
    """Two-tier (memory + optional disk) store of `OutcomeSummary` values,
    with the populations' weak tails in the memory tier.

    Args:
        directory: optional on-disk tier; created if missing.  ``None``
            keeps the cache purely in-memory.
        max_memory_entries: optional LRU bound on the memory tier's
            summaries; the least recently used one is evicted past this
            size (the disk tier, when configured, still holds every entry).
            Weak tails are not evicted.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_memory_entries: int | None = None,
    ) -> None:
        self._memory: OrderedDict[str, OutcomeSummary] = OrderedDict()
        self._tails: dict[str, WeakTail] = {}
        # Fleet pool threads share one cache, and the serve event loop
        # reads it while the submission lanes write: the memory tier (its
        # summaries and tails), its byte total and the tier counters change
        # only under this lock.
        self._memory_lock = threading.Lock()
        # Inside `put_many`, the calling thread's `put`s collect their disk
        # writes here (``pairs``) for one group record.
        self._group = threading.local()
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
            self.swept_tmp = durable.sweep_tmp(self.directory)
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

        A disk read that meets a group record (`put_many`) also holds the
        record's other members in the memory tier, moving no counter.

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
            members = self._load(key)
            loaded = members.pop(key, None)
            for other, summary in members.items():
                self._remember(other, summary)
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
        """Store a summary in memory (and on disk when configured).

        Entries only grow: when the memory tier already holds a summary of
        ``key`` with a longer horizon (another thread computed the same
        unit further out), that one is kept and nothing is written.  Two
        puts of one key write the disk outside the memory lock, so the
        shorter summary can land last: after each write, while memory
        holds a longer summary of the key than the one written, that one
        is written too.  Inside `put_many`, the disk write is left to it.
        """
        if not self._remember(key, summary):
            return
        _PUTS.inc()
        if self.directory is not None:
            group = getattr(self._group, "pairs", None)
            if group is not None:
                group[key] = summary
            else:
                self._write(key, summary)
        self._update_gauges()

    def put_many(self, pairs: Iterable[tuple[str, OutcomeSummary]]) -> None:
        """`put` each ``(key, summary)`` pair, with one disk write for all.

        Every pair goes through `put`, so the memory tier, the counters
        and the grow-only rule treat it as a single put, but the disk
        writes wait for the last pair.  One kept pair is then written as
        `put` writes it; two or more become one group record, written and
        fsync'd once and hard-linked under each key's ``<key>.outcome``.
        As in `put`, a key whose memory tier then holds a longer summary
        than the one written is written again.
        """
        self._group.pairs = kept = {}
        try:
            for key, summary in pairs:
                self.put(key, summary)
        finally:
            self._group.pairs = None
        if len(kept) == 1:
            (key, summary), = kept.items()
            self._write(key, summary)
        elif kept:
            self._save_group(kept)
            for key, summary in kept.items():
                longer = self._longer_held(key, summary)
                if longer is not None:
                    self._write(key, longer)

    def tail(self, key: str) -> WeakTail | None:
        """The weak tail held for the population ``key``
        (`population_cache_key`), or ``None``.  A probe: no counter moves."""
        with self._memory_lock:
            return self._tails.get(key)

    def put_tail(self, key: str, tail: WeakTail) -> bool:
        """Hold ``tail`` for the population ``key`` in the memory tier.

        Tails only grow: a held tail is replaced only by one that covers
        it (`WeakTail.covers`) and that it does not cover.  A tail that
        would hold more bytes than the population's own λ and κ arrays
        (above 2/3 of its cells) is not kept.  Its arrays become read-only.
        Returns whether the tail is now held.
        """
        population_bytes = (
            (tail.lambda_int.itemsize + tail.kappa.itemsize) * tail.rows * tail.columns
        )
        if tail.nbytes > population_bytes:
            return False
        for array in tail.arrays:
            array.flags.writeable = False
        with self._memory_lock:
            held = self._tails.get(key)
            if held is not None:
                if held.covers(tail.temperature_c, tail.horizon) or not tail.covers(
                    held.temperature_c, held.horizon
                ):
                    return False
                self.memory_bytes -= held.nbytes
            self._tails[key] = tail
            self.memory_bytes += tail.nbytes
        self._update_gauges()
        return True

    @property
    def stats(self) -> dict[str, int]:
        """Mutually consistent counters: ``hits + misses == lookups``;
        ``disk_hits`` is the subset of ``hits`` answered from disk;
        ``memory_bytes`` is the summary and weak-tail array bytes the
        memory tier holds; ``entries`` counts summaries only."""
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
    def _remember(self, key: str, summary: OutcomeSummary) -> bool:
        """Hold ``summary`` as the most recent entry, replacing any summary
        of ``key`` with a horizon no longer than its own, and keep
        ``memory_bytes`` equal to the sum of the held entries' bytes.

        Returns ``False``, holding nothing new, when the held summary of
        ``key`` answers a longer horizon.
        """
        with self._memory_lock:
            replaced = self._memory.get(key)
            if replaced is not None:
                if replaced.horizon > summary.horizon:
                    return False
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
        return True

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_ENTRY_SUFFIX}"

    def _write(self, key: str, summary: OutcomeSummary) -> None:
        """Write ``key``'s entry; then, while the memory tier holds a longer
        summary of ``key`` than the one written, write that one too."""
        while summary is not None:
            self._save(key, summary)
            summary = self._longer_held(key, summary)

    def _longer_held(self, key: str, summary: OutcomeSummary) -> OutcomeSummary | None:
        """The memory tier's summary of ``key`` if its horizon is longer
        than ``summary``'s, else ``None``."""
        with self._memory_lock:
            held = self._memory.get(key)
        return held if held is not None and held.horizon > summary.horizon else None

    def _save(self, key: str, summary: OutcomeSummary) -> None:
        path = self._path(key)
        existed = path.exists()
        durable.atomic_write(path, _entry(summary))
        if not existed:
            with self._memory_lock:
                self.disk_entries += 1

    def _save_group(self, pairs: dict[str, OutcomeSummary]) -> None:
        """Write ``pairs`` as one group record linked under every key's
        path, or as one entry per key where hard links are refused."""
        chunks = [_GROUP_MAGIC]
        for key, summary in pairs.items():
            name = key.encode()
            header, *arrays = _entry(summary)
            size = len(header) + sum(array.nbytes for array in arrays)
            chunks += [_MEMBER.pack(len(name), size), name, header, *arrays]
        created = durable.atomic_write_linked(
            [self._path(key) for key in pairs], chunks
        )
        if created is None:
            for key, summary in pairs.items():
                self._save(key, summary)
        elif created:
            with self._memory_lock:
                self.disk_entries += created

    def _load(self, key: str) -> dict[str, OutcomeSummary]:
        """The summaries the record at ``key``'s path holds, by key:
        ``key``'s, and a group record's other members; empty if there is
        no record, or if it is corrupt (it is then quarantined)."""
        path = self._path(key)
        try:
            return _decode_record(durable.read_record(path), key)
        except FileNotFoundError:
            return {}
        except (OSError, ValueError):
            if durable.quarantine(path):
                with self._memory_lock:
                    self.quarantined += 1
                    self.disk_entries = max(0, self.disk_entries - 1)
                _QUARANTINED.inc()
            return {}


def _entry(summary: OutcomeSummary) -> list:
    """One disk entry's chunks: its header, then its six arrays as ``<f8``."""
    arrays = [
        np.ascontiguousarray(getattr(summary, name), dtype=_F8)
        for name in _ARRAY_FIELDS
    ]
    header = _HEADER.pack(
        _MAGIC, summary.rows, summary.cells, summary.horizon,
        summary.time_to_first, *(array.size for array in arrays),
    )
    return [header, *arrays]


def _decode_record(payload: memoryview, key: str) -> dict[str, OutcomeSummary]:
    """The summaries one disk record holds, by key: an entry is ``key``'s,
    and a group record names its members, which must include ``key``.

    Raises ``ValueError`` if the payload is neither.
    """
    if payload[: len(_GROUP_MAGIC)] != _GROUP_MAGIC:
        return {key: _decode(payload)}
    members = {}
    offset = len(_GROUP_MAGIC)
    while offset < len(payload):
        if offset + _MEMBER.size > len(payload):
            raise ValueError("group member header past the record end")
        name_size, entry_size = _MEMBER.unpack_from(payload, offset)
        start = offset + _MEMBER.size + name_size
        offset = start + entry_size
        if min(name_size, entry_size) < 0 or offset > len(payload):
            raise ValueError("group member past the record end")
        name = bytes(payload[start - name_size : start]).decode()
        members[name] = _decode(payload[start:offset])
    if key not in members:
        raise ValueError("group record does not hold its key")
    return members


def _decode(payload: memoryview) -> OutcomeSummary:
    """View one disk entry's arrays in its record payload.

    The arrays are writable views of ``payload``; raises ``ValueError`` if
    the payload is not exactly one entry.
    """
    if len(payload) < _HEADER.size:
        raise ValueError("entry shorter than its header")
    magic, rows, cells, horizon, time_to_first, *lengths = _HEADER.unpack_from(
        payload
    )
    if magic != _MAGIC:
        raise ValueError("not an outcome entry")
    if min(lengths) < 0:
        raise ValueError("negative array length")
    if _HEADER.size + _F8.itemsize * sum(lengths) != len(payload):
        raise ValueError("entry size does not match its header")
    arrays = {}
    offset = _HEADER.size
    for name, length in zip(_ARRAY_FIELDS, lengths):
        arrays[name] = np.frombuffer(payload, _F8, length, offset)
        offset += _F8.itemsize * length
    return OutcomeSummary(
        rows=rows,
        cells=cells,
        horizon=horizon,
        time_to_first=time_to_first,
        **arrays,
    )
