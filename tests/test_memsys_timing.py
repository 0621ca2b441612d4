"""The `TimingChecker`: no false positives, no missed violations.

Two directions, both property-based where it matters:

* *Soundness* — command streams produced by schedulers that enforce the
  constraints (the memsys model's command backend; its simple backend
  with ``enforce_timing``) must check clean, over random workloads and
  topologies.
* *Completeness* — for every constraint the checker knows, a seeded
  minimal illegal stream must be caught, with the right constraint name
  and nothing else flagged.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.sim import DDR4_3200, MemoryRequest
from repro.sim.memsys import (
    Command,
    MemorySystem,
    MemsysSimulation,
    MemsysTopology,
    TimingChecker,
    TimingViolationError,
    record_violations,
)
from repro.sim.refreshpolicy import NoRefresh, PeriodicRefresh
from repro.sim.timing import MEMSYS_DDR4_3200
from repro.workloads.trace import WorkloadTrace

T = MEMSYS_DDR4_3200

#: Data-bus geometry only — lets the cross-rank tests exercise tRTRS and
#: tREFI without the per-bank constraints firing on the same commands.
BUS_ONLY = SimpleNamespace(t_cl=22, t_cwl=16, t_burst=4, t_ccd=8, t_rtrs=4, t_refi=100)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _constraints(commands, timing=T) -> list[str]:
    return sorted({v.constraint for v in TimingChecker(timing).check(commands)})


TOPOLOGIES = st.sampled_from([MemsysTopology(), MemsysTopology(channels=2, ranks=2)])


def _command_stream(accesses, topology, at_once):
    """Serve (bank, row, is_write) accesses in order: all arriving at
    cycle 0 (``at_once``, so cross-bank rules bind) or each arriving when
    the previous one completes."""
    system = MemorySystem(
        banks=8, topology=topology, backend="command", check_timing=True
    )
    now = 0
    for index, (bank, row, is_write) in enumerate(accesses):
        system.enqueue(
            MemoryRequest(
                core=0, index=index, bank=bank, row=row, arrival=now, is_write=is_write
            )
        )
        served = system.serve_next(bank, now)
        assert served is not None
        if not at_once:
            now = max(now, served.completion)
    return system.commands


access_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 5), st.booleans()),
    min_size=1,
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(access_strategy, TOPOLOGIES, st.booleans())
def test_legal_command_level_streams_check_clean(accesses, topology, at_once):
    """Zero false positives on schedules built by a constraint-enforcing
    scheduler — every kind of command the checker models appears here."""
    commands = _command_stream(accesses, topology, at_once)
    assert TimingChecker(T).check(commands) == []


@settings(max_examples=16, deadline=None)
@given(
    mpki=st.floats(20.0, 60.0),
    locality=st.floats(0.1, 0.9),
    write_fraction=st.floats(0.0, 0.5),
    channels=st.integers(1, 2),
    ranks=st.integers(1, 2),
    backend=st.sampled_from(["simple", "command"]),
    refresh=st.booleans(),
)
def test_enforced_memsys_runs_check_clean(
    mpki, locality, write_fraction, channels, ranks, backend, refresh
):
    """Whole mixes scheduled under the constraints check clean: the simple
    backend with ``enforce_timing``, the command backend (writes and
    refresh blocking included) by construction."""
    traces = [
        WorkloadTrace(
            name=f"enf-{i}",
            mpki=mpki,
            locality=locality,
            length=150,
            write_fraction=write_fraction,
        )
        for i in range(2)
    ]
    simulation = MemsysSimulation(
        traces,
        PeriodicRefresh(DDR4_3200) if refresh else NoRefresh(),
        topology=MemsysTopology(channels=channels, ranks=ranks),
        backend=backend,
        check_timing=True,
        enforce_timing=backend == "simple",
    )
    result = simulation.run()
    assert result.violations == []
    assert result.timing_checked
    assert result.timing_enforced == (backend == "simple")


def test_unenforced_three_latency_model_violates_honestly():
    """The abstract model really does break JEDEC spacing — which is the
    whole reason enforcement exists and is opt-in."""
    traces = [
        WorkloadTrace(name=f"raw-{i}", mpki=40.0, locality=0.4, length=400)
        for i in range(3)
    ]
    simulation = MemsysSimulation(
        traces, NoRefresh(), topology=MemsysTopology(2, 2), check_timing=True
    )
    result = simulation.run()
    assert result.violations, "expected the unenforced model to violate"
    assert not result.timing_enforced


def _cmd(kind, cycle, bank=0, rank=0, channel=0):
    return Command(kind=kind, channel=channel, rank=rank, bank=bank, cycle=cycle)


ILLEGAL_SEEDS = [
    ("tRP", [_cmd("PRE", 100), _cmd("ACT", 100 + T.t_rp - 1)]),
    ("tRC", [_cmd("ACT", 0), _cmd("ACT", T.t_rc - 1)]),
    ("tRAS", [_cmd("ACT", 0), _cmd("PRE", T.t_ras - 1)]),
    ("tRCD", [_cmd("ACT", 0), _cmd("RD", T.t_rcd - 1)]),
    ("tRTP", [_cmd("RD", 0), _cmd("PRE", T.t_rtp - 1)]),
    ("tWR", [_cmd("WR", 0), _cmd("PRE", T.t_cwl + T.t_burst + T.t_wr - 1)]),
    ("tRRD", [_cmd("ACT", 0), _cmd("ACT", T.t_rrd - 1, bank=1)]),
    (
        "tFAW",
        [_cmd("ACT", i * T.t_rrd, bank=i) for i in range(4)]
        + [_cmd("ACT", T.t_faw - 2, bank=4)],
    ),
    ("tCCD", [_cmd("RD", 0), _cmd("RD", T.t_ccd - 1, bank=1)]),
    ("tWTR", [_cmd("WR", 0), _cmd("RD", T.t_ccd, bank=1)]),
    ("bus", [_cmd("RD", 0), _cmd("WR", T.t_ccd, bank=1)]),
]


@pytest.mark.parametrize(
    "constraint,commands", ILLEGAL_SEEDS, ids=[seed[0] for seed in ILLEGAL_SEEDS]
)
def test_illegal_seed_is_always_caught(constraint, commands):
    assert _constraints(commands) == [constraint]


def test_rank_turnaround_violation_is_trtrs_not_bus():
    same_rank = [_cmd("RD", 0), _cmd("WR", 8, bank=1)]
    cross_rank = [_cmd("RD", 0), _cmd("WR", 8, bank=1, rank=1)]
    assert _constraints(same_rank, BUS_ONLY) == ["bus"]
    assert _constraints(cross_rank, BUS_ONLY) == ["tRTRS"]


def test_channels_are_independent():
    """The same overlap across channels is legal — separate data buses."""
    commands = [_cmd("RD", 0), _cmd("RD", 1, channel=1)]
    assert _constraints(commands, BUS_ONLY) == []


def test_refi_postpone_window():
    at_limit = [_cmd("REF", 0), _cmd("REF", 9 * BUS_ONLY.t_refi)]
    past_limit = [_cmd("REF", 0), _cmd("REF", 9 * BUS_ONLY.t_refi + 1)]
    assert _constraints(at_limit, BUS_ONLY) == []
    assert _constraints(past_limit, BUS_ONLY) == ["tREFI"]


def test_strict_mode_raises_on_first_violation():
    checker = TimingChecker(T, strict=True)
    with pytest.raises(TimingViolationError, match="tRCD"):
        checker.check([_cmd("ACT", 0), _cmd("RD", 1), _cmd("RD", 2, bank=1)])
    assert len(checker.violations) == 1


def test_assert_legal_collects_everything():
    checker = TimingChecker(T)
    commands = [_cmd("ACT", 0), _cmd("RD", 1), _cmd("ACT", 2, bank=1)]
    with pytest.raises(TimingViolationError) as excinfo:
        checker.assert_legal(commands)
    assert len(excinfo.value.violations) >= 2


def test_violation_record_shape():
    (violation,) = TimingChecker(T).check([_cmd("PRE", 10), _cmd("ACT", 20)])
    assert violation.constraint == "tRP"
    assert violation.earliest_legal == 10 + T.t_rp
    assert violation.slack == 10 + T.t_rp - 20
    assert "tRP" in violation.message() and "ch0/rk0/bk0" in violation.message()
    as_json = violation.to_json()
    assert as_json["command"]["cycle"] == 20
    assert as_json["reference"]["kind"] == "PRE"


def test_record_publishes_labelled_obs_counter():
    obs.enable()
    violations = TimingChecker(T).check(
        [_cmd("PRE", 0), _cmd("ACT", 1), _cmd("RD", 2, bank=1, channel=1)]
    )
    record_violations(violations)
    for family in obs.snapshot()["metrics"]:
        if family["name"] == "sim_timing_violations_total":
            labelled = {
                (s["labels"]["constraint"], s["labels"]["channel"]): s["value"]
                for s in family["samples"]
            }
            break
    else:
        pytest.fail("sim_timing_violations_total not published")
    assert labelled[("tRP", "0")] == 1.0


def test_unknown_command_kind_rejected():
    with pytest.raises(ValueError, match="unknown command kind"):
        Command(kind="NOP", channel=0, rank=0, bank=0, cycle=0)


def test_missing_parameters_are_skipped_not_crashed():
    """A timing object without e.g. tFAW checks what it can, only."""
    partial = SimpleNamespace(t_rp=22)
    commands = [_cmd("ACT", 0), _cmd("ACT", 1, bank=1), _cmd("ACT", 2)]
    assert _constraints(commands, partial) == []
    assert MEMSYS_DDR4_3200.t_rtrs > 0  # the full object does model tRTRS
