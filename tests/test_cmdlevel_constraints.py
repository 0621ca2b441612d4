"""Property-based JEDEC-constraint checking on random command schedules.

Feed the command-level scheduler (`MemorySystem`'s ``"command"`` backend)
random request streams, collect the full command stream it records under
``check_timing``, and verify EVERY inter-command constraint on the
resulting schedule with a checker written independently of both the
scheduler and `TimingChecker` — the strongest possible correctness
statement for the scheduler.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import MEMSYS_DDR4_3200, MemoryRequest, MemorySystem

T = MEMSYS_DDR4_3200


def run_schedule(accesses: list[tuple[int, int, bool]], at_once: bool = False):
    """Serve a list of (bank, row, is_write) accesses back-to-back (or all
    arriving at cycle 0 when ``at_once``) and return the (kind, bank,
    cycle) command stream."""
    controller = MemorySystem(banks=8, backend="command", check_timing=True)
    now = 0
    for index, (bank, row, is_write) in enumerate(accesses):
        controller.enqueue(
            MemoryRequest(core=0, index=index, bank=bank, row=row,
                          arrival=now, is_write=is_write)
        )
        served = controller.serve_next(bank, now)
        assert served is not None
        if not at_once:
            now = max(now, served.completion)
    return [(c.kind, c.bank, c.cycle) for c in controller.commands]


def check_constraints(log: list[tuple[str, int, int]]) -> None:
    acts_all: list[int] = []
    last_act_rank: int | None = None
    last_per_bank_act: dict[int, int] = {}
    last_per_bank_pre: dict[int, int] = {}
    last_column: int | None = None
    for kind, bank, cycle in log:
        if kind == "ACT":
            if bank in last_per_bank_act:
                assert cycle - last_per_bank_act[bank] >= T.t_rc, "tRC"
            if bank in last_per_bank_pre:
                assert cycle - last_per_bank_pre[bank] >= T.t_rp, "tRP"
            if last_act_rank is not None:
                assert cycle - last_act_rank >= T.t_rrd, "tRRD"
            acts_all.append(cycle)
            if len(acts_all) >= 5:
                assert cycle - acts_all[-5] >= T.t_faw, "tFAW"
            last_act_rank = cycle
            last_per_bank_act[bank] = cycle
        elif kind == "PRE":
            if bank in last_per_bank_act:
                assert cycle - last_per_bank_act[bank] >= T.t_ras, "tRAS"
            last_per_bank_pre[bank] = cycle
        elif kind in ("RD", "WR"):
            if bank in last_per_bank_act:
                assert cycle - last_per_bank_act[bank] >= T.t_rcd, "tRCD"
            if last_column is not None:
                assert cycle - last_column >= T.t_ccd, "tCCD"
            last_column = cycle


access_strategy = st.lists(
    st.tuples(
        st.integers(0, 7),  # bank
        st.integers(0, 5),  # row (small space: lots of conflicts and hits)
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(access_strategy, st.booleans())
def test_random_schedules_respect_all_constraints(accesses, at_once):
    check_constraints(run_schedule(accesses, at_once))


def test_dense_single_bank_conflicts():
    accesses = [(0, row % 3, False) for row in range(30)]
    check_constraints(run_schedule(accesses))


def test_act_storm_across_banks():
    accesses = [(bank % 4, bank, False) for bank in range(24)]
    check_constraints(run_schedule(accesses))


def test_write_read_interleave():
    accesses = [(i % 2, i % 4, i % 2 == 0) for i in range(20)]
    check_constraints(run_schedule(accesses))


def test_log_disabled_by_default():
    """The command stream is recorded only when it will be checked."""
    controller = MemorySystem(banks=1, backend="command")
    controller.enqueue(MemoryRequest(core=0, index=0, bank=0, row=0, arrival=0))
    assert controller.serve_next(0, 0) is not None
    assert controller.commands == []
