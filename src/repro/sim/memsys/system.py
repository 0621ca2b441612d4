"""The multi-rank / multi-channel memory system.

`MemorySystem` generalizes `repro.sim.controller.MemoryController` to
R ranks x C channels: every channel has its own data bus (accesses on
different channels never serialize against each other) and every rank
shares its channel's bus behind a rank-to-rank turnaround (``t_rtrs``)
whenever consecutive data bursts come from different ranks.

It exposes the same duck interface as the single-channel controller
(``banks`` as a flat list over the global bank space, ``enqueue`` /
``serve_next`` / ``stats``), so one event loop drives it.  Two backends
schedule each access on the same bank, rank and channel state:

* ``"simple"`` abstracts an access into one of three latencies (hit /
  closed / conflict).  With ``channels == ranks == 1`` its arithmetic
  reduces term for term to `MemoryController.serve_next`; the parity
  suite pins the two bit-identical.
* ``"command"`` issues explicit PRE/ACT/RD/WR commands, each at the
  first cycle its JEDEC spacing rules allow: per bank tRCD, tRP, tRAS,
  tRC, tRTP and tWR; per (channel, rank) tRRD, tFAW and tWTR; per
  channel tCCD, data-bus occupancy and tRTRS.

Two optional fidelity layers:

* ``check_timing`` records the command stream (explicit in command mode,
  implied by the three-latency schedule in simple mode, where every
  column command is a RD) and runs it through the `TimingChecker` at end
  of run: in simple mode an honest account of where the abstract model
  breaks JEDEC spacing rules, in command mode an independent proof that
  it does not.
* ``enforce_timing`` (simple mode only) *delays* each access until its
  implied commands are legal (per-bank tRC/tRAS/tRTP, per-rank
  tRRD/tFAW, per-channel tCCD, bus + tRTRS), so a checked run reports
  zero violations.  Enforcement changes schedules, so it is opt-in; the
  default path stays bit-identical to the historic model.

The command mode and enforcement share one ACT floor (`_act_floor`) and
one column floor (`_column_floor`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.sim.controller import ControllerStats, MemoryRequest
from repro.sim.memsys.counters import SystemCounters
from repro.sim.memsys.timingcheck import Command, TimingChecker
from repro.sim.memsys.topology import SINGLE_CHANNEL, MemsysTopology
from repro.sim.refreshpolicy import NoRefresh, RefreshPolicy
from repro.sim.timing import MEMSYS_DDR4_3200, MemsysTiming

#: Controller fidelities `MemorySystem` schedules (see the module docstring).
BACKENDS = ("simple", "command")

_FAR_PAST = -(10**9)

# Same family/labels as the single-channel controller registers: the
# registry returns the existing family, so both models feed one series.
_REQUESTS = obs.counter(
    "sim_requests_total",
    "Memory requests served by the simulated controller, by row outcome.",
    labelnames=("outcome",),
)
_REQ_HIT = _REQUESTS.labels(outcome="hit")
_REQ_CLOSED = _REQUESTS.labels(outcome="closed")
_REQ_CONFLICT = _REQUESTS.labels(outcome="conflict")


@dataclass
class _SysBankState:
    """Open-row and occupancy state of one bank (plus the ACT and PRE
    trackers; unused — and unchanging — in simple mode without
    enforcement)."""

    open_row: int | None = None
    free_at: int = 0
    queue: list = field(default_factory=list)
    act_at: int = _FAR_PAST
    ready_for_pre: int = 0

    def to_json(self) -> dict:
        return {
            "open_row": self.open_row,
            "free_at": self.free_at,
            "act_at": self.act_at,
            "ready_for_pre": self.ready_for_pre,
            "queue": [_request_to_json(r) for r in self.queue],
        }


@dataclass
class _RankState:
    """ACT bookkeeping of one (channel, rank) for tRRD/tFAW, and the end
    of its last write burst for tWTR."""

    last_act: int = _FAR_PAST
    acts: deque = field(default_factory=lambda: deque(maxlen=4))
    write_data_end: int = _FAR_PAST

    def to_json(self) -> dict:
        return {
            "last_act": self.last_act,
            "acts": list(self.acts),
            "write_data_end": self.write_data_end,
        }


def _request_to_json(request: MemoryRequest) -> dict:
    return {
        "core": request.core,
        "index": request.index,
        "bank": request.bank,
        "row": request.row,
        "arrival": request.arrival,
        "is_write": request.is_write,
        "issue": request.issue,
        "completion": request.completion,
        "row_hit": request.row_hit,
    }


def _request_from_json(payload: dict) -> MemoryRequest:
    return MemoryRequest(
        core=int(payload["core"]),
        index=int(payload["index"]),
        bank=int(payload["bank"]),
        row=int(payload["row"]),
        arrival=int(payload["arrival"]),
        is_write=bool(payload["is_write"]),
        issue=int(payload["issue"]),
        completion=int(payload["completion"]),
        row_hit=bool(payload["row_hit"]),
    )


class MemorySystem:
    """R ranks x C channels of banks behind one scheduling interface.

    Args:
        banks: global bank count, interleaved over the topology
            (must divide evenly by ``channels * ranks``).
        topology: channel/rank layout (default: single channel, single
            rank — the historic controller, bit-identical).
        timing: `MemsysTiming` parameters (a `SimTiming` superset).
        policy: refresh policy (blockers per global bank index).
        fr_fcfs: row hits first, then oldest (else plain FCFS).
        mechanism: optional reactive mitigation (`repro.sim.mechanism`).
        backend: ``"simple"`` (three latencies) or ``"command"``
            (explicit DDR4 commands).
        check_timing: record the command stream and check it with
            `TimingChecker` at end of run.
        enforce_timing: simple mode only; delay accesses until their
            implied commands are legal (changes schedules; off by
            default for parity).
    """

    def __init__(
        self,
        banks: int = 16,
        topology: MemsysTopology = SINGLE_CHANNEL,
        timing: MemsysTiming = MEMSYS_DDR4_3200,
        policy: RefreshPolicy | None = None,
        fr_fcfs: bool = True,
        mechanism=None,
        backend: str = "simple",
        check_timing: bool = False,
        enforce_timing: bool = False,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
        if backend == "command" and enforce_timing:
            raise ValueError(
                "enforce_timing applies to the simple backend; the command "
                "backend schedules legal command streams by construction"
            )
        topology.validate_banks(banks)
        self.topology = topology
        self.timing = timing
        self.policy = policy if policy is not None else NoRefresh()
        self.fr_fcfs = fr_fcfs
        self.mechanism = mechanism
        self.backend = backend
        self.check_timing = check_timing
        self.enforce_timing = enforce_timing
        self.banks = [_SysBankState() for _ in range(banks)]
        self._blockers = [self.policy.blockers(b) for b in range(banks)]
        channels, ranks = topology.channels, topology.ranks
        self.channel_free_at = [0] * channels
        self.last_data_rank: list[int | None] = [None] * channels
        self.last_column_at = [_FAR_PAST] * channels
        self.rank_state = [[_RankState() for _ in range(ranks)] for _ in range(channels)]
        self.stats = ControllerStats()
        self.counters = SystemCounters(channel_count=channels, rank_count=ranks)
        self.commands: list[Command] = []

    @property
    def bank_count(self) -> int:
        return len(self.banks)

    def enqueue(self, request: MemoryRequest) -> None:
        """Add an arrived request to its bank queue."""
        self.banks[request.bank].queue.append(request)

    def bank_has_work(self, bank: int) -> bool:
        return bool(self.banks[bank].queue)

    # ------------------------------------------------------------------
    def serve_next(self, bank_index: int, now: int) -> MemoryRequest | None:
        """Issue the next request of ``bank_index`` (FR-FCFS), if any.

        In simple mode this mirrors `MemoryController.serve_next` term for
        term, with the channel-local data bus and the rank-to-rank
        turnaround replacing the single global bus.
        """
        bank = self.banks[bank_index]
        if not bank.queue:
            return None
        ready = [r for r in bank.queue if r.arrival <= now]
        if not ready:
            return None
        if self.fr_fcfs:
            request = next((r for r in ready if r.row == bank.open_row), ready[0])
        else:
            request = ready[0]
        bank.queue.remove(request)

        channel, rank = self.topology.locate(bank_index)
        if bank.open_row is None:
            outcome = "closed"
            self.stats.row_closed += 1
            _REQ_CLOSED.inc()
        elif bank.open_row == request.row:
            outcome = "hit"
            request.row_hit = True
            self.stats.row_hits += 1
            _REQ_HIT.inc()
        else:
            outcome = "conflict"
            self.stats.row_conflicts += 1
            _REQ_CONFLICT.inc()
        # Rank-to-rank turnaround when the channel's data bus switches
        # ranks (with one rank it never applies).
        turnaround = 0
        previous_rank = self.last_data_rank[channel]
        if previous_rank is not None and previous_rank != rank:
            turnaround = self.timing.t_rtrs

        start = max(now, bank.free_at, request.arrival)
        if self.backend == "command":
            is_write = request.is_write
            pre, act, column, completion = self._schedule_commands(
                bank_index, bank, channel, rank, outcome, start, request, turnaround
            )
            request.issue = column
            bank.free_at = max(column + self.timing.t_ccd, completion)
        else:
            is_write = False  # the three-latency model times every access as a read
            start, completion = self._schedule_latency(
                bank_index, bank, channel, rank, outcome, start, request.row, turnaround
            )
            request.issue = start
            bank.free_at = completion
            timing = self.timing
            column = completion - timing.t_cl - timing.t_burst
            act = column - timing.t_rcd if outcome != "hit" else None
            pre = start if outcome == "conflict" else None

        request.completion = completion
        bank.open_row = request.row
        if self.mechanism is not None and outcome != "hit":
            extra = self.mechanism.on_activate(request.bank, request.row, request.issue)
            bank.free_at += extra
        self.channel_free_at[channel] = completion
        if turnaround:
            self.counters.channels[channel].turnarounds += 1
        self.last_data_rank[channel] = rank
        self.stats.requests += 1
        self._account(
            bank_index, channel, rank, outcome, pre, act, column, is_write, completion
        )
        return request

    # ------------------------------------------------------------------
    def _act_floor(self, bank: _SysBankState, rank_state: _RankState) -> int:
        """Earliest ACT on ``bank`` under tRC, tRRD and tFAW."""
        timing = self.timing
        floor = max(bank.act_at + timing.t_rc, rank_state.last_act + timing.t_rrd)
        if len(rank_state.acts) == 4:
            floor = max(floor, rank_state.acts[0] + timing.t_faw)
        return floor

    def _column_floor(self, channel: int, data_latency: int, turnaround: int) -> int:
        """Earliest column command on ``channel`` under tCCD whose burst,
        ``data_latency`` cycles later, clears the data bus (plus tRTRS on
        a rank switch)."""
        return max(
            self.last_column_at[channel] + self.timing.t_ccd,
            self.channel_free_at[channel] + turnaround - data_latency,
        )

    def _schedule_latency(
        self,
        bank_index: int,
        bank: _SysBankState,
        channel: int,
        rank: int,
        outcome: str,
        start: int,
        row: int,
        turnaround: int,
    ) -> tuple[int, int]:
        """(start, completion) of a three-latency access."""
        timing = self.timing
        if outcome == "closed":
            latency = timing.closed_latency()
        elif outcome == "hit":
            latency = timing.hit_latency()
        else:
            latency = timing.conflict_latency()
        start = self._resolve_blockers(bank_index, start, row)
        if self.enforce_timing:
            # The implied commands sit at fixed offsets from ``start``:
            # PRE at 0 (conflict), the column command at ``column_offset``
            # and the ACT tRCD before it.  Every rule is a minimum
            # spacing, so the earliest legal start is the largest floor,
            # moved past any refresh window (moving later breaks none).
            column_offset = latency - timing.t_cl - timing.t_burst
            floor = self._column_floor(channel, timing.t_cl, turnaround) - column_offset
            if outcome != "hit":
                rank_state = self.rank_state[channel][rank]
                act_offset = column_offset - timing.t_rcd
                floor = max(floor, self._act_floor(bank, rank_state) - act_offset)
            if outcome == "conflict":
                floor = max(floor, bank.ready_for_pre)
            if floor > start:
                start = self._resolve_blockers(bank_index, floor, row)
        else:
            # Data-bus serialization: the burst must not overlap another
            # burst on this channel, plus the rank-to-rank turnaround.
            # (With one rank this is exactly the single-channel
            # controller's bus step.)
            data_start = start + latency - timing.t_burst
            if data_start < self.channel_free_at[channel] + turnaround:
                shift = self.channel_free_at[channel] + turnaround - data_start
                start += shift
                start = self._resolve_blockers(bank_index, start, row)
        return start, start + latency

    def _schedule_commands(
        self,
        bank_index: int,
        bank: _SysBankState,
        channel: int,
        rank: int,
        outcome: str,
        start: int,
        request: MemoryRequest,
        turnaround: int,
    ) -> tuple[int | None, int | None, int, int]:
        """(pre, act, column, data end) of one access issued as explicit
        commands, each at its first legal, unblocked cycle."""
        timing = self.timing
        rank_state = self.rank_state[channel][rank]
        row = request.row
        pre = act = None
        earliest = start
        if outcome == "conflict":
            # PRE after tRAS and the read (tRTP) or write (tWR) recovery.
            pre = max(earliest, bank.ready_for_pre)
            pre = self._resolve_blockers(bank_index, pre, row)
            earliest = pre + timing.t_rp
        if outcome != "hit":
            act = max(earliest, self._act_floor(bank, rank_state))
            act = self._resolve_blockers(bank_index, act, row)
            earliest = act + timing.t_rcd
        if request.is_write:
            data_latency = timing.t_cwl
            floor = self._column_floor(channel, data_latency, turnaround)
        else:
            data_latency = timing.t_cl
            floor = max(
                self._column_floor(channel, data_latency, turnaround),
                rank_state.write_data_end + timing.t_wtr,
            )
        column = self._resolve_blockers(bank_index, max(earliest, floor), row)
        return pre, act, column, column + data_latency + timing.t_burst

    def _account(
        self,
        bank_index: int,
        channel: int,
        rank: int,
        outcome: str,
        pre: int | None,
        act: int | None,
        column: int,
        is_write: bool,
        data_end: int,
    ) -> None:
        """Fold one served access into counters, trackers, and (when
        checking) the command stream."""
        timing = self.timing
        rank_counters = self.counters.ranks[channel][rank]
        rank_counters.requests += 1
        rank_counters.busy_cycles += timing.t_burst
        if outcome == "hit":
            rank_counters.row_hits += 1
        elif outcome == "closed":
            rank_counters.row_closed += 1
        else:
            rank_counters.row_conflicts += 1
        channel_counters = self.counters.channels[channel]
        channel_counters.commands += 1 + (pre is not None) + (act is not None)
        channel_counters.column_commands += 1
        if self.backend == "command" or self.enforce_timing:
            bank = self.banks[bank_index]
            rank_state = self.rank_state[channel][rank]
            if act is not None:
                bank.act_at = act
                rank_state.last_act = act
                rank_state.acts.append(act)
            if is_write:
                recovery = data_end + timing.t_wr
                rank_state.write_data_end = data_end
            else:
                recovery = column + timing.t_rtp
            bank.ready_for_pre = max(
                bank.ready_for_pre, bank.act_at + timing.t_ras, recovery
            )
            self.last_column_at[channel] = column
        if self.check_timing:
            locate = (channel, rank, bank_index)
            if pre is not None:
                self.commands.append(Command("PRE", *locate, pre))
            if act is not None:
                self.commands.append(Command("ACT", *locate, act))
            self.commands.append(Command("WR" if is_write else "RD", *locate, column))

    def run_checker(self, strict: bool = False) -> TimingChecker:
        """Check the command stream collected so far."""
        checker = TimingChecker(self.timing, strict=strict)
        checker.check(self.commands)
        checker.record()
        return checker

    def _resolve_blockers(
        self, bank_index: int, cycle: int, row: int | None = None
    ) -> int:
        """Earliest cycle >= ``cycle`` at which no refresh window blocks the
        access.  Iterates because leaving one window may land in another.
        Region-aware policies (SMD) contribute row-dependent blockers."""
        blockers = self._blockers[bank_index]
        if self.policy.region_aware and row is not None:
            blockers = blockers + self.policy.blockers_for(bank_index, row)
        if not blockers:
            return cycle
        changed = True
        while changed:
            changed = False
            for blocker in blockers:
                available = blocker.next_available(cycle)
                if available != cycle:
                    cycle = available
                    changed = True
        return cycle

    # ------------------------------------------------------------------
    # Snapshot support (see repro.sim.memsys.snapshot)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Exact JSON-able internal state (for snapshot/restore)."""
        if self.mechanism is not None:
            raise ValueError(
                "snapshot/restore does not support reactive mechanisms "
                "(their internal state is not serializable)"
            )
        return {
            "banks": [bank.to_json() for bank in self.banks],
            "channel_free_at": list(self.channel_free_at),
            "last_data_rank": list(self.last_data_rank),
            "last_column_at": list(self.last_column_at),
            "rank_state": [
                [rank.to_json() for rank in channel] for channel in self.rank_state
            ],
            "stats": {
                "requests": self.stats.requests,
                "row_hits": self.stats.row_hits,
                "row_conflicts": self.stats.row_conflicts,
                "row_closed": self.stats.row_closed,
            },
            "counters": self.counters.to_json(),
            "commands": [command.to_json() for command in self.commands],
        }

    def load_state(self, state: dict) -> None:
        """Restore internal state captured by `state` (same construction)."""
        if len(state["banks"]) != len(self.banks):
            raise ValueError("snapshot bank count does not match this system")
        for bank, payload in zip(self.banks, state["banks"]):
            bank.open_row = (
                int(payload["open_row"]) if payload["open_row"] is not None else None
            )
            bank.free_at = int(payload["free_at"])
            bank.act_at = int(payload["act_at"])
            bank.ready_for_pre = int(payload["ready_for_pre"])
            bank.queue = [_request_from_json(r) for r in payload["queue"]]
        self.channel_free_at = [int(v) for v in state["channel_free_at"]]
        self.last_data_rank = [
            int(v) if v is not None else None for v in state["last_data_rank"]
        ]
        self.last_column_at = [int(v) for v in state["last_column_at"]]
        for channel, payloads in zip(self.rank_state, state["rank_state"]):
            for rank, payload in zip(channel, payloads):
                rank.last_act = int(payload["last_act"])
                rank.acts = deque((int(v) for v in payload["acts"]), maxlen=4)
                rank.write_data_end = int(payload["write_data_end"])
        stats = state["stats"]
        self.stats = ControllerStats(
            requests=int(stats["requests"]),
            row_hits=int(stats["row_hits"]),
            row_conflicts=int(stats["row_conflicts"]),
            row_closed=int(stats["row_closed"]),
        )
        self.counters = SystemCounters.from_json(state["counters"])
        self.commands = [Command.from_json(c) for c in state["commands"]]
