"""The memory-system model: topology, parity, counters, multi-channel.

The single most important promise here is *parity*: with the default
1 channel x 1 rank topology, `MemorySystem` (and `simulate_mix`, which
now runs on it) must reproduce the historic single-controller event loop
bit for bit — same IPCs, same cycle counts, same request outcomes.  The
legacy loop is reconstructed inline from `MemoryController` so the
comparison stays honest even after the old code path is gone.
"""

from __future__ import annotations

import heapq
import json

import pytest

from repro import obs
from repro.sim import simulate_mix
from repro.sim.controller import MemoryController, MemoryRequest
from repro.sim.cpu import Core
from repro.sim.energy import estimate_energy, estimate_system_energy
from repro.sim.memsys import (
    MAX_CHANNELS,
    MAX_RANKS,
    MemorySystem,
    MemsysSimulation,
    MemsysTopology,
)
from repro.sim.refreshpolicy import NoRefresh, PeriodicRefresh, raidr_policy
from repro.sim.timing import DDR4_3200, MEMSYS_DDR4_3200
from repro.workloads.trace import WorkloadTrace

_ARRIVE = 0
_BANK_FREE = 1


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _traces(cores: int = 3, length: int = 400) -> list[WorkloadTrace]:
    return [
        WorkloadTrace(
            name=f"memsys-{i}",
            mpki=30.0 + 10.0 * i,
            locality=0.2 + 0.2 * i,
            length=length,
        )
        for i in range(cores)
    ]


def _legacy_simulate(traces, policy, banks=16, window=4, fr_fcfs=True):
    """The historic `simulate_mix` loop, verbatim, on `MemoryController`."""
    controller = MemoryController(
        banks=banks, timing=DDR4_3200, policy=policy, fr_fcfs=fr_fcfs
    )
    cores = [Core(core_id=i, trace=t, window=window) for i, t in enumerate(traces)]
    events: list[tuple[int, int, int, tuple]] = []
    sequence = 0

    def push(cycle, kind, payload):
        nonlocal sequence
        heapq.heappush(events, (cycle, sequence, kind, payload))
        sequence += 1

    def pump_core(core):
        while core.issuable():
            cycle = core.next_issue_time()
            bank, row = core.trace.request(core.next_index)
            request = MemoryRequest(
                core=core.core_id,
                index=core.next_index,
                bank=bank,
                row=row,
                arrival=cycle,
                is_write=core.trace.is_write(core.next_index),
            )
            core.next_index += 1
            core.outstanding += 1
            core.last_issue = cycle
            push(cycle, _ARRIVE, (request,))

    def serve(bank_index, cycle):
        served = controller.serve_next(bank_index, cycle)
        if served is None:
            queue = controller.banks[bank_index].queue
            if queue:
                push(min(r.arrival for r in queue), _BANK_FREE, (bank_index,))
            return
        push(served.completion, _BANK_FREE, (bank_index,))
        core = cores[served.core]
        core.on_complete(served.index, served.completion)
        pump_core(core)

    for core in cores:
        pump_core(core)
    last_cycle = 0
    while events:
        cycle, _, kind, payload = heapq.heappop(events)
        last_cycle = max(last_cycle, cycle)
        if kind == _ARRIVE:
            (request,) = payload
            controller.enqueue(request)
            if controller.banks[request.bank].free_at <= cycle:
                serve(request.bank, cycle)
            else:
                push(controller.banks[request.bank].free_at, _BANK_FREE, (request.bank,))
        else:
            (bank_index,) = payload
            serve(bank_index, cycle)
    return {
        "ipcs": [core.ipc() for core in cores],
        "cycles": last_cycle,
        "stats": controller.stats,
    }


class TestTopology:
    def test_bounds(self):
        with pytest.raises(ValueError, match="channels"):
            MemsysTopology(channels=0)
        with pytest.raises(ValueError, match="channels"):
            MemsysTopology(channels=MAX_CHANNELS + 1)
        with pytest.raises(ValueError, match="ranks"):
            MemsysTopology(ranks=0)
        with pytest.raises(ValueError, match="ranks"):
            MemsysTopology(ranks=MAX_RANKS + 1)

    def test_interleave_covers_every_bank_exactly_once(self):
        topology = MemsysTopology(channels=2, ranks=2)
        seen = set()
        for bank in range(16):
            channel, rank = topology.locate(bank)
            assert 0 <= channel < 2 and 0 <= rank < 2
            seen.add((channel, rank, bank // topology.ranks_total))
        assert len(seen) == 16

    def test_consecutive_banks_alternate_channels(self):
        topology = MemsysTopology(channels=4, ranks=1)
        channels = [topology.channel_of(bank) for bank in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_banks_must_divide_evenly(self):
        topology = MemsysTopology(channels=2, ranks=2)
        with pytest.raises(ValueError, match="divide evenly"):
            topology.validate_banks(10)
        assert topology.banks_per_rank(16) == 4

    def test_system_rejects_undividable_banks(self):
        with pytest.raises(ValueError, match="divide evenly"):
            MemorySystem(banks=10, topology=MemsysTopology(channels=2, ranks=2))


class TestSingleChannelParity:
    """1x1 must be the historic controller, bit for bit."""

    @pytest.mark.parametrize(
        "policy_factory",
        [
            NoRefresh,
            lambda: PeriodicRefresh(DDR4_3200),
            lambda: PeriodicRefresh(DDR4_3200, rate_multiplier=4.0),
            lambda: raidr_policy(DDR4_3200, 4096, 0.02),
        ],
    )
    def test_simulate_mix_matches_legacy_loop(self, policy_factory):
        traces = _traces()
        result = simulate_mix(traces, policy_factory())
        legacy = _legacy_simulate(traces, policy_factory())
        assert result.ipcs == legacy["ipcs"]
        assert result.cycles == legacy["cycles"]
        assert result.requests == legacy["stats"].requests
        expected_hits = legacy["stats"].row_hits / legacy["stats"].requests
        assert result.row_hit_rate == expected_hits

    def test_memsys_simulation_matches_legacy_loop(self):
        traces = _traces(cores=2, length=300)
        simulation = MemsysSimulation(traces, PeriodicRefresh(DDR4_3200))
        result = simulation.run()
        legacy = _legacy_simulate(traces, PeriodicRefresh(DDR4_3200))
        assert result.ipcs == legacy["ipcs"]
        assert result.cycles == legacy["cycles"]
        stats = simulation.system.stats
        assert stats.row_hits == legacy["stats"].row_hits
        assert stats.row_closed == legacy["stats"].row_closed
        assert stats.row_conflicts == legacy["stats"].row_conflicts

    def test_simulate_mix_is_deterministic_as_json(self):
        traces = _traces(cores=2, length=200)
        first = simulate_mix(traces, NoRefresh(), topology=MemsysTopology(2, 2))
        second = simulate_mix(traces, NoRefresh(), topology=MemsysTopology(2, 2))
        assert json.dumps(first.to_json()) == json.dumps(second.to_json())


class TestMultiChannel:
    def test_work_spreads_over_channels_and_conserves_requests(self):
        traces = _traces()
        result = simulate_mix(traces, NoRefresh(), topology=MemsysTopology(2, 2))
        assert result.channels == 2 and result.ranks == 2
        report = result.channel_report
        assert len(report) == 2
        assert all(row["requests"] > 0 for row in report)
        assert sum(row["requests"] for row in report) == result.requests

    def test_more_channels_never_slow_the_mix(self):
        traces = _traces()
        single = simulate_mix(traces, NoRefresh())
        dual = simulate_mix(traces, NoRefresh(), topology=MemsysTopology(channels=2))
        assert dual.cycles <= single.cycles

    def test_two_ranks_pay_turnarounds(self):
        traces = _traces()
        simulation = MemsysSimulation(
            traces, NoRefresh(), topology=MemsysTopology(channels=1, ranks=2)
        )
        simulation.run()
        assert simulation.system.counters.channels[0].turnarounds > 0

    def test_single_rank_never_pays_turnarounds(self):
        simulation = MemsysSimulation(_traces(), NoRefresh())
        simulation.run()
        assert simulation.system.counters.channels[0].turnarounds == 0


class TestCounters:
    def test_counters_agree_with_stats(self):
        simulation = MemsysSimulation(
            _traces(), PeriodicRefresh(DDR4_3200), topology=MemsysTopology(2, 2)
        )
        result = simulation.run()
        counters = simulation.system.counters
        stats = simulation.system.stats
        total = sum(
            counters.ranks[c][r].requests
            for c in range(counters.channel_count)
            for r in range(counters.rank_count)
        )
        assert total == stats.requests == result.requests
        hits = sum(counters.channel_hits(c) for c in range(counters.channel_count))
        assert hits == stats.row_hits

    def test_busy_cycles_are_burst_per_request(self):
        simulation = MemsysSimulation(_traces(cores=2, length=200), NoRefresh())
        simulation.run()
        counters = simulation.system.counters
        rank = counters.ranks[0][0]
        assert rank.busy_cycles == rank.requests * MEMSYS_DDR4_3200.t_burst

    def test_report_ratios_are_bounded(self):
        simulation = MemsysSimulation(
            _traces(), NoRefresh(), topology=MemsysTopology(channels=2)
        )
        result = simulation.run()
        for row in simulation.system.counters.report(result.cycles):
            assert 0.0 <= row["utilization"] <= 1.0
            assert 0.0 <= row["row_hit_ratio"] <= 1.0
            assert 0.0 <= row["command_bus_efficiency"] <= 1.0

    def test_publish_feeds_obs_gauges(self):
        for backend in ("simple", "command"):
            obs.reset()
            obs.enable()
            simulation = MemsysSimulation(
                _traces(cores=2, length=200),
                NoRefresh(),
                topology=MemsysTopology(2, 1),
                backend=backend,
            )
            simulation.run()
            families = {family["name"]: family for family in obs.snapshot()["metrics"]}
            busy = families["sim_data_bus_busy_cycles_total"]["samples"]
            labelled = {
                (sample["labels"]["channel"], sample["labels"]["rank"]): sample["value"]
                for sample in busy
            }
            assert labelled[("0", "all")] == labelled[("0", "0")], backend
            assert "sim_channel_utilization" in families
            assert "sim_row_hit_ratio" in families
            outcomes = families["sim_requests_total"]["samples"]
            served = sum(sample["value"] for sample in outcomes)
            assert served == simulation.system.stats.requests, backend
            assert families["sim_energy_mj"]["samples"], backend
            (span,) = [s for s in obs.finished_spans() if s["name"] == "sim.mix"]
            assert span["attributes"]["backend"] == backend


class TestSystemEnergy:
    def test_single_rank_matches_flat_estimate(self):
        traces = _traces(cores=2, length=300)
        policy = PeriodicRefresh(DDR4_3200)
        simulation = MemsysSimulation(traces, policy)
        result = simulation.run()
        stats = simulation.system.stats
        flat = estimate_energy(result, stats.row_closed + stats.row_conflicts)
        system = estimate_system_energy(
            simulation.system.counters,
            result.cycles,
            policy.refresh_rows_per_second(simulation.banks_total),
        )
        assert system.total_mj == pytest.approx(flat.total_mj, rel=1e-12)
        assert result.energy_total_mj == pytest.approx(flat.total_mj, rel=1e-12)

    def test_per_rank_rows_sum_to_total(self):
        simulation = MemsysSimulation(
            _traces(), PeriodicRefresh(DDR4_3200), topology=MemsysTopology(2, 2)
        )
        result = simulation.run()
        assert result.energy_report, "expected one energy row per (channel, rank)"
        assert len(result.energy_report) == 4
        total = sum(row["total_mj"] for row in result.energy_report)
        assert result.energy_total_mj == pytest.approx(total, rel=1e-9)
