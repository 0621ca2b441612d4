"""The memsys discrete-event loop: cores x `MemorySystem`, resumable.

This is `repro.sim.system.simulate_mix`'s engine for both backends,
lifted into a class so the full simulation state — pending event heap,
per-core progress, and every bank/rank/channel tracker — can be
captured (`snapshot`) and restored (`restore`) mid-run.  Snapshots are
plain JSON, bound to the exact simulation configuration by a content
digest (`config_digest`): a snapshot taken under different traces,
policy, topology, timing, backend, or flags refuses to restore instead
of silently producing garbage.

Determinism contract: a run resumed from any snapshot produces a
`SystemResult` whose `to_json` form is byte-for-byte identical to the
uninterrupted run's — pinned by the snapshot round-trip tests and the CI
memsys smoke (which SIGKILLs a run mid-flight and resumes it).
"""

from __future__ import annotations

import dataclasses
import heapq

from repro import obs
from repro.core.cache import content_key
from repro.obs import state as _obs_state
from repro.sim.controller import MemoryRequest
from repro.sim.cpu import Core
from repro.sim.memsys.snapshot import SnapshotStore
from repro.sim.memsys.system import (
    MemorySystem,
    _request_from_json,
    _request_to_json,
)
from repro.sim.memsys.topology import SINGLE_CHANNEL, MemsysTopology
from repro.sim.refreshpolicy import RefreshPolicy
from repro.sim.results import SystemResult
from repro.sim.timing import CONTROLLER_HZ, MEMSYS_DDR4_3200, MemsysTiming
from repro.workloads.trace import WorkloadTrace

# Same families `repro.sim.system` has always published; the registry
# hands back the existing family, so both entry points feed one series.
_CYCLES = obs.counter(
    "sim_cycles_total", "Controller cycles simulated across completed mixes."
)
_REFRESH_OPS = obs.counter(
    "refresh_ops_total",
    "Refresh operations issued over simulated time, by refresh policy.",
    labelnames=("policy",),
)

_ARRIVE = 0
_BANK_FREE = 1

#: Bump when the snapshot layout changes; old snapshots refuse to load.
SNAPSHOT_VERSION = 2


class MemsysSimulation:
    """One multiprogrammed mix running over a `MemorySystem`.

    The event loop is the historic `simulate_mix` loop verbatim (arrival
    and bank-free events in a (cycle, sequence) heap); with the default
    single-channel topology it reproduces the historic single-controller
    runs of either backend bit-identically.

    Args:
        traces: one workload trace per core.
        policy: refresh policy shared by all banks.
        banks: global bank count (interleaved over ``topology``).
        topology: channels x ranks layout.
        timing: `MemsysTiming` parameters.
        window: per-core MLP window.
        fr_fcfs: row hits first, then oldest.
        mechanism: optional reactive mitigation (blocks snapshots).
        backend: ``"simple"`` (three latencies) or ``"command"``
            (explicit DDR4 commands); see `MemorySystem`.
        check_timing: run the `TimingChecker` over the command stream at
            end of run and attach violations to the result.
        enforce_timing: simple backend only; delay accesses until their
            implied commands are legal (changes schedules; off by
            default for parity).
    """

    def __init__(
        self,
        traces: list[WorkloadTrace],
        policy: RefreshPolicy,
        banks: int = 16,
        topology: MemsysTopology = SINGLE_CHANNEL,
        timing: MemsysTiming = MEMSYS_DDR4_3200,
        window: int = 4,
        fr_fcfs: bool = True,
        mechanism=None,
        backend: str = "simple",
        check_timing: bool = False,
        enforce_timing: bool = False,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.traces = traces
        self.policy = policy
        self.banks_total = banks
        self.topology = topology
        self.timing = timing
        self.window = window
        self.system = MemorySystem(
            banks=banks,
            topology=topology,
            timing=timing,
            policy=policy,
            fr_fcfs=fr_fcfs,
            mechanism=mechanism,
            backend=backend,
            check_timing=check_timing,
            enforce_timing=enforce_timing,
        )
        self.cores = [
            Core(core_id=i, trace=t, window=window) for i, t in enumerate(traces)
        ]
        self._events: list[tuple[int, int, int, tuple]] = []
        self._sequence = 0
        self.last_cycle = 0
        self.events_processed = 0
        self._primed = False

    # ------------------------------------------------------------------
    # Event loop (the historic simulate_mix loop, stateful)
    # ------------------------------------------------------------------
    def _push(self, cycle: int, kind: int, payload: tuple) -> None:
        heapq.heappush(self._events, (cycle, self._sequence, kind, payload))
        self._sequence += 1

    def _pump_core(self, core: Core) -> None:
        """Schedule every request the core can currently commit to."""
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
            self._push(cycle, _ARRIVE, (request,))

    def _serve(self, bank_index: int, cycle: int) -> None:
        served = self.system.serve_next(bank_index, cycle)
        if served is None:
            # Maybe only future arrivals are queued: retry at the earliest.
            queue = self.system.banks[bank_index].queue
            if queue:
                self._push(min(r.arrival for r in queue), _BANK_FREE, (bank_index,))
            return
        self._push(served.completion, _BANK_FREE, (bank_index,))
        core = self.cores[served.core]
        core.on_complete(served.index, served.completion)
        self._pump_core(core)

    def prime(self) -> None:
        """Seed the event heap with every core's initial requests (no-op
        after a restore, which carries the heap in its state)."""
        if self._primed:
            return
        self._primed = True
        for core in self.cores:
            self._pump_core(core)

    @property
    def pending_events(self) -> int:
        return len(self._events)

    def step(self) -> None:
        """Process one event (call only while `pending_events`)."""
        cycle, _, kind, payload = heapq.heappop(self._events)
        self.last_cycle = max(self.last_cycle, cycle)
        if kind == _ARRIVE:
            (request,) = payload
            self.system.enqueue(request)
            bank = self.system.banks[request.bank]
            if bank.free_at <= cycle:
                self._serve(request.bank, cycle)
            else:
                # The bank is occupied past its last scheduled wake-up
                # (mitigation mechanisms extend free_at after the access);
                # make sure someone retries once it frees up.
                self._push(bank.free_at, _BANK_FREE, (request.bank,))
        else:  # _BANK_FREE
            (bank_index,) = payload
            self._serve(bank_index, cycle)
        self.events_processed += 1

    def run(
        self, store: SnapshotStore | None = None, snapshot_every: int = 0
    ) -> SystemResult:
        """Run to completion; optionally snapshot every N processed events."""
        self.prime()
        with obs.span(
            "sim.mix",
            policy=self.policy.name,
            cores=len(self.traces),
            banks=self.banks_total,
            backend=self.system.backend,
            channels=self.topology.channels,
            ranks=self.topology.ranks,
        ):
            while self._events:
                self.step()
                if (
                    store is not None
                    and snapshot_every > 0
                    and self.events_processed % snapshot_every == 0
                ):
                    store.save(self.snapshot(), self.events_processed)
        return self.finish()

    def finish(self) -> SystemResult:
        """Close out a drained run: check timing, publish counters, build
        the deterministic `SystemResult`."""
        for core in self.cores:
            if core.finish_cycle is None:
                raise RuntimeError(f"core {core.core_id} did not finish its trace")
        violations: list[dict] = []
        if self.system.check_timing:
            checker = self.system.run_checker()
            violations = [v.to_json() for v in checker.violations]
        self.system.counters.publish(self.last_cycle)
        # Energy from the same counters the bandwidth gauges publish from.
        from repro.sim.energy import estimate_system_energy

        energy = estimate_system_energy(
            self.system.counters,
            self.last_cycle,
            self.policy.refresh_rows_per_second(self.banks_total),
        )
        energy.publish()
        if _obs_state.enabled:
            _CYCLES.inc(self.last_cycle)
            # Refresh operations issued over this mix's simulated wall time.
            _REFRESH_OPS.labels(policy=self.policy.name).inc(
                self.policy.refresh_events_per_second(self.banks_total)
                * self.last_cycle
                / CONTROLLER_HZ
            )
        stats = self.system.stats
        return SystemResult(
            policy_name=self.policy.name,
            ipcs=[core.ipc() for core in self.cores],
            cycles=self.last_cycle,
            requests=stats.requests,
            row_hit_rate=stats.row_hits / stats.requests if stats.requests else 0.0,
            refresh_events_per_second=self.policy.refresh_events_per_second(
                self.banks_total
            ),
            refresh_rows_per_second=self.policy.refresh_rows_per_second(self.banks_total),
            channels=self.topology.channels,
            ranks=self.topology.ranks,
            banks_total=self.banks_total,
            channel_report=self.system.counters.report(self.last_cycle),
            energy_report=energy.report(),
            energy_total_mj=energy.total_mj,
            violations=violations,
            timing_checked=self.system.check_timing,
            timing_enforced=self.system.enforce_timing,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def config_digest(self) -> str:
        """Content hash of everything that determines this simulation's
        trajectory.  A snapshot only restores into a simulation whose
        digest matches — same traces, policy, topology, timing, backend,
        flags."""
        trace_sig = tuple(
            (
                t.name,
                t.mpki,
                t.locality,
                t.banks,
                t.rows_per_bank,
                t.length,
                t.write_fraction,
            )
            for t in self.traces
        )
        policy_sig = (
            self.policy.name,
            tuple(
                tuple((b.period, b.busy, b.offset) for b in blockers)
                for blockers in self.system._blockers
            ),
            repr(self.policy.refresh_events_per_second(self.banks_total)),
            repr(self.policy.refresh_rows_per_second(self.banks_total)),
        )
        return content_key(
            (
                "memsys-snapshot",
                SNAPSHOT_VERSION,
                trace_sig,
                policy_sig,
                (self.topology.channels, self.topology.ranks),
                self.banks_total,
                dataclasses.astuple(self.timing),
                self.window,
                self.system.fr_fcfs,
                self.system.backend,
                self.system.check_timing,
                self.system.enforce_timing,
            )
        )

    @staticmethod
    def _event_to_json(event: tuple[int, int, int, tuple]) -> dict:
        cycle, sequence, kind, payload = event
        if kind == _ARRIVE:
            body = _request_to_json(payload[0])
        else:
            body = payload[0]
        return {"cycle": cycle, "seq": sequence, "kind": kind, "payload": body}

    @staticmethod
    def _event_from_json(payload: dict) -> tuple[int, int, int, tuple]:
        kind = int(payload["kind"])
        if kind == _ARRIVE:
            body: tuple = (_request_from_json(payload["payload"]),)
        else:
            body = (int(payload["payload"]),)
        return (int(payload["cycle"]), int(payload["seq"]), kind, body)

    def snapshot(self) -> dict:
        """The full simulation state as plain JSON, digest-bound to this
        configuration.  Event heap entries are serialized in heap order,
        so restoring them verbatim preserves the heap invariant."""
        if self.policy.region_aware:
            raise ValueError(
                "snapshot/restore does not support region-aware refresh "
                "policies (their row-dependent blockers are not captured "
                "by the configuration digest)"
            )
        return {
            "version": SNAPSHOT_VERSION,
            "config": self.config_digest(),
            "events_processed": self.events_processed,
            "sequence": self._sequence,
            "last_cycle": self.last_cycle,
            "events": [self._event_to_json(e) for e in self._events],
            "cores": [
                {
                    "next_index": core.next_index,
                    "outstanding": core.outstanding,
                    "last_issue": core.last_issue,
                    "finish_cycle": core.finish_cycle,
                    "completions": {
                        str(index): cycle for index, cycle in core.completions.items()
                    },
                }
                for core in self.cores
            ],
            "system": self.system.state(),
        }

    def restore(self, state: dict) -> None:
        """Load a `snapshot` into this (freshly constructed) simulation.

        Refuses version or configuration mismatches — restoring under a
        different setup would silently diverge, not resume.
        """
        if state.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {state.get('version')!r} is not {SNAPSHOT_VERSION}"
            )
        if state.get("config") != self.config_digest():
            raise ValueError(
                "snapshot was taken under a different simulation "
                "configuration (traces/policy/topology/timing/backend mismatch)"
            )
        if len(state["cores"]) != len(self.cores):
            raise ValueError("snapshot core count does not match")
        self.system.load_state(state["system"])
        for core, payload in zip(self.cores, state["cores"]):
            core.next_index = int(payload["next_index"])
            core.outstanding = int(payload["outstanding"])
            core.last_issue = int(payload["last_issue"])
            core.finish_cycle = (
                int(payload["finish_cycle"])
                if payload["finish_cycle"] is not None
                else None
            )
            core.completions = {
                int(index): int(cycle) for index, cycle in payload["completions"].items()
            }
        self._events = [self._event_from_json(e) for e in state["events"]]
        self._sequence = int(state["sequence"])
        self.last_cycle = int(state["last_cycle"])
        self.events_processed = int(state["events_processed"])
        self._primed = True
