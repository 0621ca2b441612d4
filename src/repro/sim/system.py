"""Multi-core memory-system simulation: the Fig. 23 engine.

`simulate_mix` couples N cores (`repro.sim.cpu.Core`) to a memory
controller in one discrete-event loop (`repro.sim.memsys.MemsysSimulation`).
Cores issue requests subject to their MLP window; the controller
arbitrates FR-FCFS around the refresh policy's blocking windows;
completions unblock further issues.

Both controller fidelities are modes of `repro.sim.memsys.MemorySystem`:
``"simple"`` (three latencies; with the default single-channel topology
bit-identical to the historic `MemoryController` loop, pinned by the
parity suite) and ``"command"`` (explicit DDR4 PRE/ACT/RD/WR scheduling).
Either runs over any R ranks x C channels ``topology`` and under the
`TimingChecker`.

Outputs per-core IPC, from which weighted speedups against a baseline
configuration (the paper normalizes to a hypothetical No Refresh system)
are computed.
"""

from __future__ import annotations

import dataclasses

from repro.sim.refreshpolicy import RefreshPolicy
from repro.sim.results import SimulationResult, SystemResult
from repro.sim.timing import DDR4_3200, MemsysTiming, SimTiming
from repro.workloads.trace import WorkloadTrace

__all__ = ["SimulationResult", "SystemResult", "simulate_mix"]


def _memsys_timing(timing: SimTiming) -> MemsysTiming:
    """Lift a plain `SimTiming` to `MemsysTiming` (memsys defaults for the
    rank/channel/write constraints it does not carry)."""
    if isinstance(timing, MemsysTiming):
        return timing
    fields = {
        f.name: getattr(timing, f.name) for f in dataclasses.fields(SimTiming)
    }
    return MemsysTiming(**fields)


def simulate_mix(
    traces: list[WorkloadTrace],
    policy: RefreshPolicy,
    banks: int = 16,
    timing: SimTiming = DDR4_3200,
    window: int = 4,
    fr_fcfs: bool = True,
    mechanism=None,
    backend: str = "simple",
    topology=None,
    check_timing: bool = False,
    enforce_timing: bool = False,
) -> SystemResult:
    """Run one multiprogrammed mix to completion under ``policy`` (plus an
    optional reactive mitigation mechanism, see `repro.sim.mechanism`).

    ``backend`` selects the controller fidelity: ``"simple"`` (three-latency
    model) or ``"command"`` (explicit DDR4 command scheduling with
    tRRD/tFAW/tWTR/tWR constraints).

    ``topology`` spreads the bank space over a
    `repro.sim.memsys.MemsysTopology`; ``check_timing`` runs the memsys
    `TimingChecker` over the command stream and ``enforce_timing`` (simple
    backend) delays accesses until their implied commands are legal (see
    docs/MEMSYS.md).
    """
    from repro.sim.memsys.simulation import MemsysSimulation
    from repro.sim.memsys.topology import SINGLE_CHANNEL

    simulation = MemsysSimulation(
        traces,
        policy,
        banks=banks,
        topology=topology if topology is not None else SINGLE_CHANNEL,
        timing=_memsys_timing(timing),
        window=window,
        fr_fcfs=fr_fcfs,
        mechanism=mechanism,
        backend=backend,
        check_timing=check_timing,
        enforce_timing=enforce_timing,
    )
    return simulation.run()
