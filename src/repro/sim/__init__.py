"""Cycle-level memory-system simulator (Ramulator-lite, §6.2 substitution)."""

from repro.sim.controller import ControllerStats, MemoryController, MemoryRequest
from repro.sim.cpu import PEAK_IPC_PER_CYCLE, Core
from repro.sim.energy import EnergyBreakdown, estimate_energy, estimate_system_energy
from repro.sim.mechanism import (
    ActivationMechanism,
    DynamicPrvr,
    NeighbourRefreshTrr,
    NoMechanism,
    prvr_threshold_from_floor,
)
from repro.sim.refreshpolicy import (
    CompositePolicy,
    NoRefresh,
    PeriodicBlocker,
    PeriodicRefresh,
    RefreshPolicy,
    RowLevelRefresh,
    SmdMaintenance,
    prvr_policy,
    raidr_policy,
    smd_raidr_policy,
)
from repro.sim.memsys import (
    SINGLE_CHANNEL,
    MemorySystem,
    MemsysSimulation,
    MemsysTopology,
    SnapshotStore,
    SystemCounters,
    TimingChecker,
    TimingViolation,
    TimingViolationError,
)
from repro.sim.results import SystemResult
from repro.sim.system import SimulationResult, simulate_mix
from repro.sim.timing import (
    CONTROLLER_HZ,
    DDR4_3200,
    MEMSYS_DDR4_3200,
    MemsysTiming,
    SimTiming,
    cycles_to_seconds,
    seconds_to_cycles,
)

__all__ = [
    "ActivationMechanism",
    "DynamicPrvr",
    "NeighbourRefreshTrr",
    "NoMechanism",
    "prvr_threshold_from_floor",
    "ControllerStats",
    "MemoryController",
    "MemoryRequest",
    "PEAK_IPC_PER_CYCLE",
    "Core",
    "EnergyBreakdown",
    "estimate_energy",
    "estimate_system_energy",
    "CompositePolicy",
    "NoRefresh",
    "PeriodicBlocker",
    "PeriodicRefresh",
    "RefreshPolicy",
    "RowLevelRefresh",
    "SmdMaintenance",
    "prvr_policy",
    "raidr_policy",
    "smd_raidr_policy",
    "SimulationResult",
    "SystemResult",
    "simulate_mix",
    "SINGLE_CHANNEL",
    "MemorySystem",
    "MemsysSimulation",
    "MemsysTopology",
    "SnapshotStore",
    "SystemCounters",
    "TimingChecker",
    "TimingViolation",
    "TimingViolationError",
    "CONTROLLER_HZ",
    "DDR4_3200",
    "MEMSYS_DDR4_3200",
    "MemsysTiming",
    "SimTiming",
    "cycles_to_seconds",
    "seconds_to_cycles",
]
