"""Snapshot files for resumable `MemsysSimulation` runs.

A snapshot is one `repro._util.durable` record: the canonical JSON of the
simulation state followed by a CRC-32, written atomically and fsync'd
together with its directory, the path fleet checkpoints also use.  A
file that fails its check (torn by a crash, bit rot, or hand-edited) is
quarantined to ``.bad`` and never restores into a simulation.
"""

from __future__ import annotations

from pathlib import Path

from repro._util.durable import RecordStore


class SnapshotStore(RecordStore):
    """Snapshots of one resumable simulation: `RecordStore` records
    ``snapshot-<events 12 digits>.json``."""

    prefix = "snapshot"

    def save(self, state: dict, events: int) -> Path:
        """Durably persist ``state`` as the snapshot after ``events``
        processed events; returns its path."""
        return super().save(state, events)
