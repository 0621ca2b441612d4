"""Command-level DDR4 scheduling (`MemorySystem`'s ``"command"`` backend):
constraint enforcement and system runs."""

import pytest

from repro.sim import (
    DDR4_3200,
    MEMSYS_DDR4_3200,
    MemoryRequest,
    MemorySystem,
    MemsysTiming,
    NoRefresh,
    PeriodicRefresh,
    SimTiming,
    simulate_mix,
)
from repro.workloads import WorkloadTrace, make_mix

T = MEMSYS_DDR4_3200


def command_system(banks, **kwargs):
    return MemorySystem(banks=banks, backend="command", **kwargs)


def make_request(index=0, bank=0, row=5, arrival=0, is_write=False):
    return MemoryRequest(
        core=0, index=index, bank=bank, row=row, arrival=arrival,
        is_write=is_write,
    )


class TestConstraints:
    def test_closed_bank_access_latency(self):
        controller = command_system(2)
        controller.enqueue(make_request())
        served = controller.serve_next(0, 0)
        # ACT at 0, RD at tRCD, data at tRCD + tCL + tBURST.
        assert served.completion == T.t_rcd + T.t_cl + T.t_burst
        assert controller.stats.activations == 1

    def test_row_hit_skips_activation(self):
        controller = command_system(1)
        controller.enqueue(make_request(index=0))
        controller.serve_next(0, 0)
        controller.enqueue(make_request(index=1, arrival=500))
        served = controller.serve_next(0, 500)
        assert served.row_hit
        assert controller.stats.activations == 1  # no second ACT

    def test_conflict_issues_pre_with_recovery(self):
        controller = command_system(1)
        controller.enqueue(make_request(index=0, row=5))
        first = controller.serve_next(0, 0)
        controller.enqueue(make_request(index=1, row=9, arrival=0))
        second = controller.serve_next(0, first.completion)
        # PRE cannot happen before tRAS after the ACT; then tRP + tRCD + tCL.
        earliest = T.t_ras + T.t_rp + T.t_rcd + T.t_cl + T.t_burst
        assert second.completion >= earliest
        assert controller.stats.row_conflicts == 1

    def test_trrd_separates_acts_across_banks(self):
        controller = command_system(4)
        acts = []
        for bank in range(4):
            controller.enqueue(make_request(index=bank, bank=bank))
            served = controller.serve_next(bank, 0)
            acts.append(served.issue - T.t_rcd)  # the ACT cycle
        gaps = [b - a for a, b in zip(acts, acts[1:])]
        assert all(gap >= T.t_rrd for gap in gaps)

    def test_tfaw_limits_act_bursts(self):
        controller = command_system(8)
        acts = []
        for bank in range(5):
            controller.enqueue(make_request(index=bank, bank=bank))
            served = controller.serve_next(bank, 0)
            acts.append(served.issue - T.t_rcd)
        # The 5th ACT must wait for the tFAW window of the first four.
        assert acts[4] >= acts[0] + T.t_faw

    def test_write_to_read_turnaround(self):
        controller = command_system(2)
        controller.enqueue(make_request(index=0, bank=0, is_write=True))
        write = controller.serve_next(0, 0)
        controller.enqueue(make_request(index=1, bank=1, arrival=0))
        read = controller.serve_next(1, write.completion)
        write_data_end = write.completion
        assert read.issue >= write_data_end + T.t_wtr

    def test_write_recovery_delays_precharge(self):
        controller = command_system(1)
        controller.enqueue(make_request(index=0, row=5, is_write=True))
        write = controller.serve_next(0, 0)
        controller.enqueue(make_request(index=1, row=9, arrival=0))
        conflict = controller.serve_next(0, write.completion)
        # PRE waits for tWR after the write burst.
        pre_at = conflict.issue - T.t_rcd - T.t_rp
        assert pre_at >= write.completion + T.t_wr

    def test_refresh_blockers_respected(self):
        controller = command_system(1, policy=PeriodicRefresh(DDR4_3200))
        controller.enqueue(make_request())
        served = controller.serve_next(0, 0)
        assert served.issue >= DDR4_3200.t_rfc

    def test_validation(self):
        with pytest.raises(ValueError):
            command_system(0)
        with pytest.raises(ValueError):
            MemsysTiming(t_rcd=0)
        for name in ("t_cwl", "t_wr", "t_wtr"):
            with pytest.raises(ValueError, match=name):
                MemsysTiming(**{name: 0})
        with pytest.raises(ValueError, match="enforce_timing"):
            command_system(1, enforce_timing=True)


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def mix(self):
        return make_mix(4, length=500)

    def test_backend_runs_to_completion(self, mix):
        result = simulate_mix(mix, NoRefresh(), backend="command")
        assert all(ipc > 0 for ipc in result.ipcs)
        assert result.requests == sum(len(t) for t in mix)

    def test_command_level_slower_than_simple(self, mix):
        """Extra constraints (tFAW, turnarounds) can only cost cycles."""
        simple = simulate_mix(mix, NoRefresh(), backend="simple")
        command = simulate_mix(mix, NoRefresh(), backend="command")
        assert sum(command.ipcs) <= sum(simple.ipcs) * 1.02

    def test_refresh_conclusion_backend_independent(self, mix):
        """The refresh-interference ordering must hold on both backends."""
        for backend in ("simple", "command"):
            base = simulate_mix(mix, NoRefresh(), backend=backend)
            nominal = simulate_mix(
                mix, PeriodicRefresh(DDR4_3200), backend=backend
            ).weighted_speedup(base)
            aggressive = simulate_mix(
                mix, PeriodicRefresh(DDR4_3200, rate_multiplier=8),
                backend=backend,
            ).weighted_speedup(base)
            assert nominal > aggressive

    def test_writes_flow_through(self):
        trace = WorkloadTrace(
            name="rw", mpki=30.0, locality=0.5, length=400,
            write_fraction=0.3,
        )
        result = simulate_mix([trace] * 2, NoRefresh(), backend="command")
        assert result.requests == 800

    def test_unknown_backend(self, mix):
        with pytest.raises(ValueError):
            simulate_mix(mix, NoRefresh(), backend="quantum")

    def test_timing_argument_reaches_command_backend(self):
        """Slower DRAM timing must slow the command backend down, as it
        does the simple one (the command level once ignored ``timing``)."""
        mix = make_mix(1, length=300)
        slow = SimTiming(t_rcd=40, t_cl=40, t_rp=40)
        for backend in ("simple", "command"):
            default = simulate_mix(mix, NoRefresh(), backend=backend)
            slowed = simulate_mix(mix, NoRefresh(), backend=backend, timing=slow)
            assert slowed.cycles > default.cycles, backend
