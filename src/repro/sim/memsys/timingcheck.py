"""Timing-violation checking over explicit DRAM command streams.

A `TimingChecker` walks a stream of `Command` records — (kind, channel,
rank, bank, cycle) — and asserts every JEDEC-class minimum-spacing
constraint the configured timing object can express:

per bank     tRCD (ACT->column), tRP (PRE->ACT), tRAS (ACT->PRE),
             tRC (ACT->ACT), tRTP (RD->PRE), tWR (WR recovery->PRE);
per rank     tRRD (ACT->ACT), tFAW (four-activate window),
             tWTR (WR data->RD), tREFI (REF cadence: a REF may be
             postponed at most 9 intervals);
per channel  tCCD (column->column), data-bus burst overlap ("bus"),
             tRTRS (rank-to-rank data turnaround).

Constraints whose parameters the timing object lacks are skipped, so a
`repro.sim.timing.MemsysTiming` (which carries every one) or any object
with a subset of its field names can be checked against.

Violations are *structured records*, not log lines: each carries the
offending command, the constraint name, the reference command it
collided with, and the earliest legal cycle.  `record` routes them to
the obs registry as ``sim_timing_violations_total{constraint,channel}``;
strict mode (`assert_legal`) raises `TimingViolationError` on the first
violation instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import obs

#: Command kinds the checker understands.
COMMAND_KINDS = ("ACT", "PRE", "RD", "WR", "REF")

#: A REF may be postponed at most this many tREFI intervals (JEDEC).
REFI_POSTPONE_LIMIT = 9

_VIOLATIONS = obs.counter(
    "sim_timing_violations_total",
    "Timing constraints violated by simulated command streams.",
    labelnames=("constraint", "channel"),
)


@dataclass(frozen=True)
class Command:
    """One issued DRAM command, located in the topology and in time."""

    kind: str
    channel: int
    rank: int
    bank: int
    cycle: int

    def __post_init__(self) -> None:
        if self.kind not in COMMAND_KINDS:
            raise ValueError(
                f"unknown command kind {self.kind!r}; known kinds: {COMMAND_KINDS}"
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "channel": self.channel,
            "rank": self.rank,
            "bank": self.bank,
            "cycle": self.cycle,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Command":
        return cls(
            kind=str(payload["kind"]),
            channel=int(payload["channel"]),
            rank=int(payload["rank"]),
            bank=int(payload["bank"]),
            cycle=int(payload["cycle"]),
        )


@dataclass(frozen=True)
class TimingViolation:
    """One broken constraint: structured, renderable, obs-routable."""

    constraint: str
    command: Command
    earliest_legal: int
    reference: Command | None = None

    @property
    def slack(self) -> int:
        """How many cycles early the command was."""
        return self.earliest_legal - self.command.cycle

    def message(self) -> str:
        where = f"ch{self.command.channel}/rk{self.command.rank}/bk{self.command.bank}"
        text = (
            f"{self.constraint}: {self.command.kind}@{self.command.cycle} "
            f"({where}) is {self.slack} cycle(s) early "
            f"(earliest legal: {self.earliest_legal})"
        )
        if self.reference is not None:
            text += f"; conflicts with {self.reference.kind}@{self.reference.cycle}"
        return text

    def to_json(self) -> dict:
        return {
            "constraint": self.constraint,
            "command": self.command.to_json(),
            "earliest_legal": self.earliest_legal,
            "reference": (
                self.reference.to_json() if self.reference is not None else None
            ),
        }


class TimingViolationError(RuntimeError):
    """Strict mode: a command stream broke a timing constraint."""

    def __init__(self, violations: list[TimingViolation]) -> None:
        self.violations = violations
        first = violations[0]
        extra = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
        super().__init__(f"timing violation: {first.message()}{extra}")


class _BankTrack:
    __slots__ = ("last_act", "last_pre", "last_rd", "wr_data_end")

    def __init__(self) -> None:
        self.last_act: Command | None = None
        self.last_pre: Command | None = None
        self.last_rd: Command | None = None
        self.wr_data_end: tuple[int, Command] | None = None


class _RankTrack:
    __slots__ = ("acts", "wr_data_end", "last_ref")

    def __init__(self) -> None:
        self.acts: deque[Command] = deque(maxlen=4)
        self.wr_data_end: tuple[int, Command] | None = None
        self.last_ref: Command | None = None


class _ChannelTrack:
    __slots__ = ("last_column", "data_end", "data_rank", "data_ref")

    def __init__(self) -> None:
        self.last_column: Command | None = None
        self.data_end: int | None = None
        self.data_rank: int | None = None
        self.data_ref: Command | None = None


class TimingChecker:
    """Assert inter-command constraints over a command stream.

    Args:
        timing: a timing object; constraints are resolved from the
            attributes it has (`MemsysTiming`, or any duck with a subset
            of its field names).
        strict: when True, `check` raises `TimingViolationError` at the
            first violation instead of collecting it.
    """

    def __init__(self, timing, strict: bool = False) -> None:
        self.timing = timing
        self.strict = strict
        self.violations: list[TimingViolation] = []

    def _param(self, name: str) -> int | None:
        value = getattr(self.timing, name, None)
        return int(value) if value is not None else None

    # ------------------------------------------------------------------
    def check(self, commands) -> list[TimingViolation]:
        """Check a whole stream (any issue order; sorted by cycle here).

        Returns the violations found in this call (also appended to
        ``self.violations``).  Strict checkers raise on the first one.
        """
        t_rcd = self._param("t_rcd")
        t_rp = self._param("t_rp")
        t_ras = self._param("t_ras")
        t_rc = self._param("t_rc")
        t_rtp = self._param("t_rtp")
        t_wr = self._param("t_wr")
        t_rrd = self._param("t_rrd")
        t_faw = self._param("t_faw")
        t_ccd = self._param("t_ccd")
        t_wtr = self._param("t_wtr")
        t_cl = self._param("t_cl")
        t_cwl = self._param("t_cwl")
        t_burst = self._param("t_burst")
        t_rtrs = self._param("t_rtrs")
        t_refi = self._param("t_refi")

        banks: dict[tuple[int, int, int], _BankTrack] = {}
        ranks: dict[tuple[int, int], _RankTrack] = {}
        channels: dict[int, _ChannelTrack] = {}
        found: list[TimingViolation] = []

        def flag(
            constraint: str,
            command: Command,
            earliest: int,
            reference: Command | None,
        ) -> None:
            violation = TimingViolation(
                constraint=constraint,
                command=command,
                earliest_legal=earliest,
                reference=reference,
            )
            found.append(violation)
            self.violations.append(violation)
            if self.strict:
                raise TimingViolationError([violation])

        def require(
            constraint: str,
            command: Command,
            reference: Command | None,
            earliest: int,
        ) -> None:
            if command.cycle < earliest:
                flag(constraint, command, earliest, reference)

        for command in sorted(commands, key=lambda c: c.cycle):
            bank = banks.setdefault(
                (command.channel, command.rank, command.bank), _BankTrack()
            )
            rank = ranks.setdefault((command.channel, command.rank), _RankTrack())
            channel = channels.setdefault(command.channel, _ChannelTrack())

            if command.kind == "ACT":
                if t_rp is not None and bank.last_pre is not None:
                    require("tRP", command, bank.last_pre, bank.last_pre.cycle + t_rp)
                if t_rc is not None and bank.last_act is not None:
                    require("tRC", command, bank.last_act, bank.last_act.cycle + t_rc)
                if t_rrd is not None and rank.acts:
                    last = rank.acts[-1]
                    require("tRRD", command, last, last.cycle + t_rrd)
                if t_faw is not None and len(rank.acts) == 4:
                    oldest = rank.acts[0]
                    require("tFAW", command, oldest, oldest.cycle + t_faw)
                bank.last_act = command
                rank.acts.append(command)

            elif command.kind == "PRE":
                if t_ras is not None and bank.last_act is not None:
                    require("tRAS", command, bank.last_act, bank.last_act.cycle + t_ras)
                if t_rtp is not None and bank.last_rd is not None:
                    require("tRTP", command, bank.last_rd, bank.last_rd.cycle + t_rtp)
                if t_wr is not None and bank.wr_data_end is not None:
                    end, reference = bank.wr_data_end
                    require("tWR", command, reference, end + t_wr)
                bank.last_pre = command

            elif command.kind in ("RD", "WR"):
                if t_rcd is not None and bank.last_act is not None:
                    require("tRCD", command, bank.last_act, bank.last_act.cycle + t_rcd)
                if t_ccd is not None and channel.last_column is not None:
                    require(
                        "tCCD",
                        command,
                        channel.last_column,
                        channel.last_column.cycle + t_ccd,
                    )
                if (
                    command.kind == "RD"
                    and t_wtr is not None
                    and rank.wr_data_end is not None
                ):
                    end, reference = rank.wr_data_end
                    require("tWTR", command, reference, end + t_wtr)
                latency = t_cwl if command.kind == "WR" else t_cl
                if latency is not None and t_burst is not None:
                    data_start = command.cycle + latency
                    if channel.data_end is not None:
                        gap = 0
                        constraint = "bus"
                        if (
                            t_rtrs is not None
                            and channel.data_rank is not None
                            and channel.data_rank != command.rank
                        ):
                            gap = t_rtrs
                            constraint = "tRTRS"
                        if data_start < channel.data_end + gap:
                            flag(
                                constraint,
                                command,
                                channel.data_end + gap - latency,
                                channel.data_ref,
                            )
                    channel.data_end = data_start + t_burst
                    channel.data_rank = command.rank
                    channel.data_ref = command
                    if command.kind == "WR":
                        bank.wr_data_end = (data_start + t_burst, command)
                        rank.wr_data_end = (data_start + t_burst, command)
                if command.kind == "RD":
                    bank.last_rd = command
                channel.last_column = command

            elif command.kind == "REF":
                if t_refi is not None and rank.last_ref is not None:
                    limit = rank.last_ref.cycle + REFI_POSTPONE_LIMIT * t_refi
                    if command.cycle > limit:
                        flag("tREFI", command, limit, rank.last_ref)
                rank.last_ref = command

        return found

    # ------------------------------------------------------------------
    def assert_legal(self, commands) -> None:
        """Strict one-shot check: raise on any violation."""
        violations = self.check(commands)
        if violations:
            raise TimingViolationError(violations)

    def record(self) -> None:
        """Publish collected violations onto the obs registry."""
        record_violations(self.violations)


def record_violations(violations: list[TimingViolation]) -> None:
    """Route structured violation records to the obs registry."""
    if not obs.is_enabled():
        return
    for violation in violations:
        _VIOLATIONS.labels(
            constraint=violation.constraint,
            channel=str(violation.command.channel),
        ).inc()
