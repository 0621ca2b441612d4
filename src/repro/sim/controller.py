"""FR-FCFS memory controller with pluggable refresh policies.

A compact discrete-event model of one DDR4 channel: per-bank request
queues, open-row tracking, FR-FCFS arbitration (row hits first, then
oldest), shared data-bus serialization, and refresh blocking windows from a
`repro.sim.refreshpolicy.RefreshPolicy`.

The model's purpose is the Fig. 23 question — how refresh-induced bank
blocking scales with the refresh-operation rate — so command-level nuances
(tFAW, write-to-read turnarounds) are abstracted into the three classic
access latencies (hit / closed / conflict).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.sim.refreshpolicy import NoRefresh, RefreshPolicy
from repro.sim.timing import DDR4_3200, SimTiming

# Registry mirror of `ControllerStats`, split by access outcome.
_REQUESTS = obs.counter(
    "sim_requests_total",
    "Memory requests served by the simulated controller, by row outcome.",
    labelnames=("outcome",),
)
_REQ_HIT = _REQUESTS.labels(outcome="hit")
_REQ_CLOSED = _REQUESTS.labels(outcome="closed")
_REQ_CONFLICT = _REQUESTS.labels(outcome="conflict")


@dataclass
class MemoryRequest:
    """One LLC-miss memory request.

    ``arrival``/``issue``/``completion`` are controller cycles; ``issue``
    and ``completion`` are filled in by the controller.
    """

    core: int
    index: int
    bank: int
    row: int
    arrival: int
    is_write: bool = False
    issue: int = -1
    completion: int = -1
    row_hit: bool = False


@dataclass
class _BankState:
    open_row: int | None = None
    free_at: int = 0
    queue: list = field(default_factory=list)


@dataclass
class ControllerStats:
    """Aggregate controller event counts (feeds the energy model)."""

    requests: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    row_closed: int = 0

    @property
    def activations(self) -> int:
        """ACT commands issued (every non-hit opens a row)."""
        return self.row_conflicts + self.row_closed


class MemoryController:
    """One memory channel with ``banks`` banks and a refresh policy."""

    def __init__(
        self,
        banks: int = 16,
        timing: SimTiming = DDR4_3200,
        policy: RefreshPolicy | None = None,
        fr_fcfs: bool = True,
        mechanism=None,
    ) -> None:
        if banks < 1:
            raise ValueError("need at least one bank")
        self.timing = timing
        self.policy = policy if policy is not None else NoRefresh()
        self.fr_fcfs = fr_fcfs
        #: Optional reactive mitigation (see `repro.sim.mechanism`): called
        #: on every activation; its returned busy cycles extend the bank's
        #: occupancy after the access.
        self.mechanism = mechanism
        self.banks = [_BankState() for _ in range(banks)]
        self._blockers = [self.policy.blockers(b) for b in range(banks)]
        self.channel_free_at = 0
        self.stats = ControllerStats()

    def enqueue(self, request: MemoryRequest) -> None:
        """Add an arrived request to its bank queue."""
        self.banks[request.bank].queue.append(request)

    def serve_next(self, bank_index: int, now: int) -> MemoryRequest | None:
        """Issue the next request of ``bank_index`` (FR-FCFS), if any.

        Returns the request with ``issue``/``completion`` filled, or
        ``None`` when the queue is empty.  The caller is responsible for
        calling at/after both the bank's ``free_at`` and the request
        arrival.
        """
        bank = self.banks[bank_index]
        if not bank.queue:
            return None
        ready = [r for r in bank.queue if r.arrival <= now]
        if not ready:
            return None
        if self.fr_fcfs:
            # FR-FCFS: oldest row hit first, otherwise oldest.
            request = next(
                (r for r in ready if r.row == bank.open_row), ready[0]
            )
        else:
            request = ready[0]  # plain FCFS
        bank.queue.remove(request)

        start = max(now, bank.free_at, request.arrival)
        start = self._resolve_blockers(bank_index, start, request.row)
        if bank.open_row is None:
            latency = self.timing.closed_latency()
            self.stats.row_closed += 1
            _REQ_CLOSED.inc()
        elif bank.open_row == request.row:
            latency = self.timing.hit_latency()
            request.row_hit = True
            self.stats.row_hits += 1
            _REQ_HIT.inc()
        else:
            latency = self.timing.conflict_latency()
            self.stats.row_conflicts += 1
            _REQ_CONFLICT.inc()
        # Data-bus serialization: the burst must not overlap another burst.
        data_start = start + latency - self.timing.t_burst
        if data_start < self.channel_free_at:
            shift = self.channel_free_at - data_start
            start += shift
            start = self._resolve_blockers(bank_index, start, request.row)
        completion = start + latency

        request.issue = start
        request.completion = completion
        bank.open_row = request.row
        bank.free_at = completion
        if self.mechanism is not None and not request.row_hit:
            # A new activation: let the mitigation mechanism charge victim
            # refresh work to the bank (data delivery is unaffected).
            extra = self.mechanism.on_activate(request.bank, request.row, start)
            bank.free_at += extra
        self.channel_free_at = completion
        self.stats.requests += 1
        return request

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
