"""The one durable-write path: crash faults, directory fsync, orphan sweep.

Outcome-cache entries, fleet checkpoints and memsys snapshots are all
written through `repro._util.durable`.  The fault matrix crashes each of
them at each step of that path, by making one of the module's ``os``
calls (or, mid-chunk, its file's ``write``) raise a `BaseException`, then
opens a fresh handle on the same directory: it must read the old state or
the new one, never a torn record and never a temp file.  A second matrix
crashes each step of a cache group write (`OutcomeCache.put_many`: one
record, hard-linked under every key), where each key must read its old or
its new summary.
"""

import errno
import io
import itertools
import os
import stat

import pytest

from repro._util import durable
from repro.core import QUICK_SCALE, WORST_CASE, OutcomeCache, execute_unit, plan_units
from repro.fleet.aggregate import CheckpointStore
from repro.sim.memsys import SnapshotStore

_FSYNC = os.fsync


class Crash(BaseException):
    """A simulated crash: no ``except Exception`` on the write path stops it."""


def _crash(*args):
    raise Crash


class _TornFile(io.FileIO):
    """A file whose first write stores half its bytes, then crashes."""

    def write(self, data):
        data = bytes(data)
        super().write(data[: len(data) // 2])
        raise Crash


def _crash_on_directory_fsync(fd):
    if stat.S_ISDIR(os.fstat(fd).st_mode):
        raise Crash
    _FSYNC(fd)


def _crash_on_call(name, count):
    """``os.<name>`` that crashes on its ``count``-th call."""
    real = getattr(os, name)
    calls = itertools.count(1)

    def call(*args):
        if next(calls) == count:
            raise Crash
        return real(*args)

    return call


#: Each step of the durable path: the call that crashes there, and how.  A
#: crash before ``os.replace`` must leave the old state.
STEPS = {
    "mid-chunk write": (durable, "open", _TornFile),
    "before the file fsync": (durable.os, "fsync", _crash),
    "before os.replace": (durable.os, "replace", _crash),
    "before the directory fsync": (durable.os, "fsync", _crash_on_directory_fsync),
    "before the prune": (durable.os, "unlink", _crash),
}
BEFORE_REPLACE = ("mid-chunk write", "before the file fsync", "before os.replace")

#: Versions in write order; the fault strikes while writing "new".
VERSIONS = ("older", "old", "new")


def _payload(version: str) -> dict:
    return {"version": version, "counts": list(range(2000))}


class _CacheEntry:
    """One outcome-cache key, overwritten by each version."""

    skipped = ("before the directory fsync", "before the prune")

    def __init__(self):
        unit = plan_units(("S0",), WORST_CASE, QUICK_SCALE)[0]
        self.summaries = {
            version: execute_unit(unit, horizon=horizon)
            for version, horizon in zip(VERSIONS, (2.0, 4.0, 16.0))
        }

    def write(self, directory, version):
        OutcomeCache(directory).put("key", self.summaries[version])

    def read(self, directory):
        summary = OutcomeCache(directory).get("key")
        return None if summary is None else self._fingerprint(summary)

    def state(self, version):
        return self._fingerprint(self.summaries[version])

    @staticmethod
    def _fingerprint(summary):
        return summary.horizon, summary.cd_cell_starts.tobytes()


class _Records:
    """A keep-2 `RecordStore`: saving "new" prunes "older"."""

    skipped = ()

    def __init__(self, store_class):
        self.store_class = store_class

    def write(self, directory, version):
        self.store_class(directory).save(_payload(version), VERSIONS.index(version))

    def read(self, directory):
        return self.store_class(directory).latest()

    def state(self, version):
        return _payload(version)


STORES = {
    "cache entry": _CacheEntry,
    "fleet checkpoint": lambda: _Records(CheckpointStore),
    "memsys snapshot": lambda: _Records(SnapshotStore),
}


@pytest.mark.parametrize("step", list(STEPS))
@pytest.mark.parametrize("store_name", list(STORES))
def test_crash_at_any_step_leaves_the_old_or_the_new_state(
    tmp_path, monkeypatch, store_name, step
):
    store = STORES[store_name]()
    if step in store.skipped:
        pytest.skip("the cache neither fsyncs its directory nor prunes")
    for version in ("older", "old"):
        store.write(tmp_path, version)
    target, name, fault = STEPS[step]
    with monkeypatch.context() as patch:
        patch.setattr(target, name, fault, raising=False)
        with pytest.raises(Crash):
            store.write(tmp_path, "new")

    expected = "old" if step in BEFORE_REPLACE else "new"
    assert store.read(tmp_path) == store.state(expected)
    assert not list(tmp_path.glob("*.bad"))
    # A crash before the replace leaves a temp file that no read trusted.
    assert bool(list(tmp_path.glob("*.tmp*"))) == (step in BEFORE_REPLACE)


#: Each step of a group write, the fault that crashes there, and the keys
#: that then read their new summary.  The group writes "k2" (new), then
#: "k0" and "k1" (existing): the second `os.link` is "k0"'s, the second
#: `os.replace` is "k1"'s.
GROUP_STEPS = {
    "mid-chunk write": (durable, "open", lambda: _TornFile, ()),
    "before the file fsync": (durable.os, "fsync", lambda: _crash, ()),
    "before an os.link": (durable.os, "link", lambda: _crash_on_call("link", 2), ("k2",)),
    "before the os.replace of an existing key": (
        durable.os, "replace", lambda: _crash_on_call("replace", 2), ("k2", "k0"),
    ),
    "before the temp unlink": (durable.os, "unlink", lambda: _crash, ("k2", "k0", "k1")),
}


@pytest.mark.parametrize("step", list(GROUP_STEPS))
def test_crash_at_any_step_of_a_group_write_leaves_each_key_old_or_new(
    tmp_path, monkeypatch, step
):
    entry = _CacheEntry()
    summaries = entry.summaries
    for version in ("older", "old"):
        OutcomeCache(tmp_path).put_many(
            [("k0", summaries[version]), ("k1", summaries[version])]
        )
    target, name, fault, new = GROUP_STEPS[step]
    with monkeypatch.context() as patch:
        patch.setattr(target, name, fault(), raising=False)
        with pytest.raises(Crash):
            OutcomeCache(tmp_path).put_many(
                [(key, summaries["new"]) for key in ("k2", "k0", "k1")]
            )

    for key in ("k0", "k1", "k2"):
        # A handle per key: a group read would answer the other keys too.
        fresh = OutcomeCache(tmp_path)
        summary = fresh.get(key)
        if key in new:
            assert summary is not None and entry._fingerprint(summary) == entry.state("new")
        elif key == "k2":
            assert summary is None
        else:
            assert entry._fingerprint(summary) == entry.state("old")
        assert fresh.quarantined == 0
    assert not list(tmp_path.glob("*.bad"))
    # The crash left its temp name, which no read trusted.
    assert list(tmp_path.glob("*.tmp*"))


@pytest.mark.parametrize("linked", [False, True], ids=["atomic_write", "linked"])
@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_an_os_error_removes_the_temp_names_and_propagates(
    tmp_path, monkeypatch, linked, call
):
    """ENOSPC mid-write leaves no temp name behind (a fresh handle's sweep
    would keep it for ten minutes); the old record stays."""
    paths = [tmp_path / "a", tmp_path / "b"]
    for path in paths:
        durable.atomic_write(path, [b"old"])

    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(durable.os, call, full)
    with pytest.raises(OSError) as raised:
        if linked:
            durable.atomic_write_linked(paths, [b"new"])
        else:
            durable.atomic_write(paths[0], [b"new"])
    assert raised.value.errno == errno.ENOSPC
    monkeypatch.undo()
    assert sorted(tmp_path.iterdir()) == paths
    assert [bytes(durable.read_record(path)) for path in paths] == [b"old", b"old"]


def test_linked_write_links_one_record_under_every_path(tmp_path):
    existing, new = tmp_path / "existing", tmp_path / "new"
    durable.atomic_write(existing, [b"old"])
    assert durable.atomic_write_linked([new, existing], [b"gr", b"oup"]) == 1
    assert sorted(tmp_path.iterdir()) == [existing, new]
    assert os.path.samefile(existing, new)
    assert new.stat().st_nlink == 2
    assert bytes(durable.read_record(existing)) == b"group"


def test_linked_write_refused_links_leave_the_paths_to_the_caller(
    tmp_path, monkeypatch
):
    def refused(*args):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(durable.os, "link", refused)
    assert durable.atomic_write_linked([tmp_path / "a", tmp_path / "b"], [b"x"]) is None
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("store_class", [CheckpointStore, SnapshotStore])
def test_save_fsyncs_the_directory_after_replace_and_before_any_unlink(
    tmp_path, monkeypatch, store_class
):
    store = store_class(tmp_path, keep=1)
    store.save({"n": 1}, 1)
    calls = []

    def recorded(name):
        real = getattr(os, name)

        def call(*args):
            if name == "fsync" and stat.S_ISDIR(os.fstat(args[0]).st_mode):
                calls.append("fsync directory")
            else:
                calls.append(name)
            return real(*args)

        return call

    for name in ("fsync", "replace", "unlink"):
        monkeypatch.setattr(durable.os, name, recorded(name))
    path = store.save({"n": 2}, 2)
    assert calls == ["fsync", "replace", "fsync directory", "unlink"]
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    ("store_class", "prefix"),
    [(CheckpointStore, "checkpoint"), (SnapshotStore, "snapshot")],
)
def test_store_sweeps_orphaned_temp_files(tmp_path, store_class, prefix):
    orphan = tmp_path / f"{prefix}-000000000001.json.tmp123-1"
    orphan.write_bytes(b"half a rec")
    os.utime(orphan, (0, 0))
    live = tmp_path / f"{prefix}-000000000002.json.tmp456-7"
    live.write_bytes(b"in flight")
    # Old files the durable writer did not name are not its to sweep.
    foreign = [tmp_path / name for name in ("notes.tmpl", "report.tmp", "run.tmp7")]
    for path in foreign:
        path.write_text("not a record")
        os.utime(path, (0, 0))
    store = store_class(tmp_path)
    assert not orphan.exists()
    assert live.exists()
    path = store.save({"n": 1}, 1)
    assert sorted(tmp_path.iterdir()) == sorted([path, live, *foreign])
    assert store.latest() == {"n": 1}


def test_unreadable_record_is_left_in_place(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path)
    older = store.save({"n": 1}, 1)
    newest = store.save({"n": 2}, 2)

    def denied(path, *args, **kwargs):
        if path == newest:
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(durable, "open", denied, raising=False)
    assert store.load(newest) is None
    assert store.latest() == {"n": 1}
    assert sorted(tmp_path.iterdir()) == [older, newest]


def test_framed_record_that_is_not_an_object_is_quarantined(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save({"n": 1}, 1)
    newest = tmp_path / "checkpoint-000000000002.json"
    durable.atomic_write(newest, [b"[1]"])
    assert bytes(durable.read_record(newest)) == b"[1]"
    assert store.latest() == {"n": 1}
    assert newest.with_suffix(".bad").exists()


@pytest.mark.parametrize(
    "record", [b"", b"abc", b"[1]", b"{}", b'{"n":1}\x00\x00\x00\x00'], ids=repr
)
def test_read_record_rejects_anything_but_one_intact_record(tmp_path, record):
    path = tmp_path / "record"
    path.write_bytes(record)
    with pytest.raises(ValueError):
        durable.read_record(path)
