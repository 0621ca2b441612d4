"""The one durable-write path: framed records, atomic writes, a keep-N store.

Outcome-cache entries, fleet checkpoints and memsys snapshots are all
written, verified, swept and pruned here.  A record is a payload followed
by a little-endian CRC-32 of it, which detects torn writes and bit rot
(not forgery, which no digest without a secret key could).  `atomic_write`
replaces a file with a record, so a crash leaves the old record or the new
one and, at worst, an orphaned temp file that `sweep_tmp` removes later;
`atomic_write_linked` gives several names one record, written and fsync'd
once, through hard links; `read_record` returns an intact record's
payload; `quarantine` moves a record that fails to ``.bad``.  An
`OSError` that interrupts a write (ENOSPC, EIO) removes its temp names
before it propagates; only a crash leaves them for the sweep.
`RecordStore` keeps the newest records of one resumable run and also
fsyncs its directory, so a saved record survives power loss.  The cache
skips that fsync: an entry lost to power loss is only a miss that
recomputes.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import struct
import time
import zlib
from collections.abc import Iterable, Sequence
from pathlib import Path

#: Temp files older than this are presumed orphaned by a dead process and
#: swept; younger ones may belong to a live concurrent writer.
TMP_SWEEP_AGE_S = 600.0

_CRC = struct.Struct("<I")

#: Disambiguates temp files written by threads sharing one pid.
_TMP_SEQUENCE = itertools.count()

#: The names `_tmp_path` gives temp files and temp links.
_TMP_NAME = re.compile(r".+\.tmp\d+-\d+")


def atomic_write(path: str | Path, chunks: Iterable) -> None:
    """Replace ``path`` with one record of ``chunks`` (bytes-like objects,
    C-contiguous arrays included): the record is whole and fsync'd under a
    unique ``<name>.tmp<pid>-<seq>`` name before the atomic ``os.replace``.
    """
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        _write_record(tmp, chunks)
        os.replace(tmp, path)
    except OSError:
        _discard(tmp)
        raise


def atomic_write_linked(paths: Sequence[str | Path], chunks: Iterable) -> int | None:
    """Give every path in ``paths`` (one or more, in one directory) one
    record of ``chunks``, written and fsync'd once under a temp name, then
    hard-linked under each path: `os.link` where the path is new, a temp
    link and an atomic `os.replace` where it exists.  The temp name is
    unlinked last.  At every step each path holds its old record or the
    new one.

    Returns how many of ``paths`` it created, or ``None`` if the filesystem
    refused a hard link (EPERM on vfat, ENOTSUP on some FUSE or SMB
    mounts): the paths linked before the refusal then hold the new record,
    the rest are untouched, and the caller writes them another way.
    """
    paths = [Path(path) for path in paths]
    tmp = _tmp_path(paths[0])
    created = 0
    try:
        _write_record(tmp, chunks)
        for path in paths:
            link = None
            try:
                try:
                    os.link(tmp, path)
                    created += 1
                except FileExistsError:
                    link = _tmp_path(path)
                    os.link(tmp, link)
            except OSError:
                _discard(tmp)
                return None
            if link is not None:
                try:
                    os.replace(link, path)
                except OSError:
                    _discard(link)
                    raise
        os.unlink(tmp)
    except OSError:
        _discard(tmp)
        raise
    return created


def _tmp_path(path: Path) -> Path:
    """A temp name beside ``path`` that no other writer uses."""
    return path.with_name(f"{path.name}.tmp{os.getpid()}-{next(_TMP_SEQUENCE)}")


def _write_record(path: Path, chunks: Iterable) -> None:
    """Write ``chunks`` and their CRC to the new file ``path`` and fsync it."""
    with open(path, "wb") as handle:
        crc = 0
        for chunk in chunks:
            handle.write(chunk)
            crc = zlib.crc32(chunk, crc)
        handle.write(_CRC.pack(crc))
        handle.flush()
        os.fsync(handle.fileno())


def _discard(path: Path) -> None:
    """Remove a temp name after a failed write; gone already is fine."""
    try:
        os.unlink(path)
    except OSError:
        pass


def read_record(path: str | Path) -> memoryview:
    """The payload of the record at ``path``, as a writable view of the
    buffer one ``readinto`` filled (no copy).

    Raises ``ValueError`` unless the file is exactly one intact record, and
    ``OSError`` if it cannot be read.
    """
    with open(path, "rb", buffering=0) as handle:
        record = bytearray(os.fstat(handle.fileno()).st_size)
        if handle.readinto(record) != len(record):
            raise ValueError("short read")
    end = len(record) - _CRC.size
    if end < 0:
        raise ValueError("record shorter than its checksum")
    payload = memoryview(record)[:end]
    if zlib.crc32(payload) != _CRC.unpack_from(record, end)[0]:
        raise ValueError("checksum mismatch")
    return payload


def quarantine(path: str | Path) -> bool:
    """Rename a record that failed its check to ``.bad``, so later reads
    miss it cleanly and the evidence survives; False if another reader or
    writer moved it first."""
    try:
        os.replace(path, Path(path).with_suffix(".bad"))
    except OSError:
        return False
    return True


def sweep_tmp(directory: str | Path) -> int:
    """Remove temp names that a write left and that are older than
    `TMP_SWEEP_AGE_S` from ``directory``; returns how many it removed.
    Files of any other name are left alone."""
    now = time.time()
    swept = 0
    for orphan in Path(directory).glob("*.tmp*"):
        if not _TMP_NAME.fullmatch(orphan.name):
            continue
        try:
            if now - orphan.stat().st_mtime >= TMP_SWEEP_AGE_S:
                os.unlink(orphan)
                swept += 1
        except OSError:
            # A concurrent sweep, or a live writer finishing: fine.
            pass
    return swept


class RecordStore:
    """The newest few records of one resumable run, in one directory.

    Each record is a JSON object, written canonically (sorted keys, no
    spaces) as ``<prefix>-<index:012d>.json`` through `atomic_write`.  A
    directory holds one run's resume state: `save` keeps the record it
    wrote and the ``keep - 1`` newest below it, and deletes the rest,
    including records above it that an earlier run left.  `load` and
    `latest` trust only records that pass `read_record` and hold a JSON
    object, and quarantine any other.  Subclasses set `prefix`.
    """

    #: File-name prefix of this store's records.
    prefix: str

    def __init__(self, directory: str | Path, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)
        sweep_tmp(self.directory)

    def _records(self) -> list[Path]:
        return sorted(self.directory.glob(f"{self.prefix}-{'[0-9]' * 12}.json"))

    def save(self, payload: dict, index: int) -> Path:
        """Durably write ``payload`` as the record at ``index``, then prune;
        returns the record's path."""
        path = self.directory / f"{self.prefix}-{index:012d}.json"
        data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        atomic_write(path, [data.encode("utf-8")])
        # The rename must be durable before any older record goes.
        fd = os.open(self.directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        records = self._records()
        older = [record for record in records if record.name < path.name]
        kept = {path, *older[::-1][: self.keep - 1]}
        for record in records:
            if record not in kept:
                try:
                    os.unlink(record)
                except FileNotFoundError:
                    pass
        return path

    def load(self, path: str | Path) -> dict | None:
        """The record at ``path``; None if it cannot be read now (it is left
        in place), or if it fails its check (it is then quarantined)."""
        try:
            payload = json.loads(bytes(read_record(path)))
            if not isinstance(payload, dict):
                raise ValueError("record is not a JSON object")
        except OSError:
            # Missing, or unreadable for now (EACCES, EMFILE, EIO): not corrupt.
            return None
        except ValueError:
            quarantine(path)
            return None
        return payload

    def latest(self) -> dict | None:
        """The newest record that passes `load`, or None."""
        for path in reversed(self._records()):
            payload = self.load(path)
            if payload is not None:
                return payload
        return None
