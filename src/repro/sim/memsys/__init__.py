"""repro.sim.memsys — the multi-rank / multi-channel memory system.

Public surface:

* `MemsysTopology` / `SINGLE_CHANNEL` — channel/rank layout over the
  flat bank space;
* `MemorySystem` — the R x C controller (tRTRS, per-channel buses,
  optional timing checking/enforcement);
* `MemsysSimulation` — the resumable event loop (`snapshot`/`restore`);
* `SnapshotStore` — CRC-framed atomic snapshot files;
* `SystemCounters` — per-channel/per-rank bandwidth accounting (the
  single source the obs gauges and the energy model compute from);
* `TimingChecker` / `Command` / `TimingViolation` — command-stream
  constraint checking.

See docs/MEMSYS.md for the model, counter catalog, and snapshot format.
"""

from repro.sim.memsys.counters import (
    ChannelCounters,
    RankCounters,
    SystemCounters,
)
from repro.sim.memsys.simulation import SNAPSHOT_VERSION, MemsysSimulation
from repro.sim.memsys.snapshot import SnapshotStore
from repro.sim.memsys.system import MemorySystem
from repro.sim.memsys.timingcheck import (
    Command,
    TimingChecker,
    TimingViolation,
    TimingViolationError,
    record_violations,
)
from repro.sim.memsys.topology import (
    MAX_CHANNELS,
    MAX_RANKS,
    SINGLE_CHANNEL,
    MemsysTopology,
)

__all__ = [
    "MAX_CHANNELS",
    "MAX_RANKS",
    "SINGLE_CHANNEL",
    "SNAPSHOT_VERSION",
    "ChannelCounters",
    "Command",
    "MemorySystem",
    "MemsysSimulation",
    "MemsysTopology",
    "RankCounters",
    "SnapshotStore",
    "SystemCounters",
    "TimingChecker",
    "TimingViolation",
    "TimingViolationError",
    "record_violations",
]
