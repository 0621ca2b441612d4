"""Memory-controller timing parameters, in controller clock cycles.

The cycle-level simulator runs in a single clock domain: the DDR4-3200
memory-controller clock (1.6 GHz, 0.625 ns per cycle).  Core instruction
throughput is expressed in instructions per controller cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Controller clock frequency (DDR4-3200: 1.6 GHz).
CONTROLLER_HZ = 1.6e9


def seconds_to_cycles(seconds: float) -> int:
    """Convert seconds to whole controller cycles."""
    return int(round(seconds * CONTROLLER_HZ))


def cycles_to_seconds(cycles: float) -> float:
    """Convert controller cycles to seconds."""
    return cycles / CONTROLLER_HZ


@dataclass(frozen=True)
class SimTiming:
    """DRAM access timing in controller cycles (DDR4-3200 speed bin).

    Attributes:
        t_rcd: ACT -> column command.
        t_cl: column command -> first data.
        t_rp: PRE -> ACT.
        t_ras: ACT -> PRE.
        t_rc: ACT -> ACT (same bank).
        t_burst: data-bus occupancy per access.
        t_rfc: all-bank refresh busy time.
        t_refi: REF-to-REF interval at the nominal refresh period.
        row_refresh: bank busy time of one per-row refresh (ACT+PRE).
    """

    t_rcd: int = 22
    t_cl: int = 22
    t_rp: int = 22
    t_ras: int = 52
    t_rc: int = 74
    t_burst: int = 4
    t_rfc: int = 560
    t_refi: int = 12480
    row_refresh: int = 74

    def __post_init__(self) -> None:
        for name in ("t_rcd", "t_cl", "t_rp", "t_ras", "t_rc", "t_burst",
                     "t_rfc", "t_refi", "row_refresh"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def hit_latency(self) -> int:
        """Row-buffer hit: CAS + burst."""
        return self.t_cl + self.t_burst

    def closed_latency(self) -> int:
        """Closed bank: ACT + CAS + burst."""
        return self.t_rcd + self.t_cl + self.t_burst

    def conflict_latency(self) -> int:
        """Row-buffer conflict: PRE + ACT + CAS + burst."""
        return self.t_rp + self.t_rcd + self.t_cl + self.t_burst


DDR4_3200 = SimTiming()


@dataclass(frozen=True)
class MemsysTiming(SimTiming):
    """`SimTiming` extended with the rank-, channel- and write-level
    constraints the memory system (`repro.sim.memsys`) schedules and its
    `TimingChecker` asserts.

    Attributes:
        t_rrd: ACT -> ACT across banks of one rank.
        t_faw: rolling four-activate window per rank.
        t_ccd: column command -> column command on one channel.
        t_rtp: read -> PRE recovery.
        t_rtrs: rank-to-rank data-bus turnaround on one channel.
        t_cwl: WR -> first write data.
        t_wr: end of write data -> PRE (write recovery).
        t_wtr: end of write data -> RD on the same rank.
    """

    t_rrd: int = 8
    t_faw: int = 34
    t_ccd: int = 8
    t_rtp: int = 12
    t_rtrs: int = 4
    t_cwl: int = 16
    t_wr: int = 24
    t_wtr: int = 12

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in (
            "t_rrd", "t_faw", "t_ccd", "t_rtp", "t_rtrs", "t_cwl", "t_wr", "t_wtr"
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_faw < self.t_rrd:
            raise ValueError("t_faw must be at least t_rrd")


MEMSYS_DDR4_3200 = MemsysTiming()
