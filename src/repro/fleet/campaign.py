"""The fleet campaign runner: stream instances, aggregate, checkpoint.

A `FleetCampaign` walks a `FleetSpec`'s instance range in chunks,
characterizes each instance analytically (through the `OutcomeCache`
when one is configured — instance outcomes are content-addressed, so a
rerun or a resumed run recomputes nothing it already has on disk), folds
the per-interval flip rates into a `FleetAggregator`, and periodically
persists aggregator state + resume cursor through a `CheckpointStore`.

Each chunk's cache lookups run on the calling thread and only the misses
go to the thread pool: a hit is a short, GIL-bound read, so handing it to
a pool thread costs more than answering it.

Interrupt semantics (the CLI contract): a `KeyboardInterrupt` during
the campaign cancels outstanding work without waiting for the thread
pool, flushes a checkpoint at the last completed chunk boundary, and
re-raises — the CLI maps it to exit 130, and the next run resumes from
that checkpoint.  A cooperative stop (`stop_event`) checkpoints the same
way and returns an interrupted result instead of raising (the serving
tier uses this to drain gracefully).

Chunks are folded in index order, so the aggregator always holds an
exact prefix ``[offset, next_index)`` of the range — which is what makes
a checkpoint cursor sufficient to resume bit-identically.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.chip.cells import CellPopulation
from repro.core.analytic import OutcomeSummary, SubarrayRole, disturb_outcome
from repro.core.cache import OutcomeCache
from repro.fleet.aggregate import CheckpointStore, FleetAggregator
from repro.fleet.scenario import FleetSpec, ModuleInstance

#: Checkpoint payload layout version (see `CheckpointStore`).
CHECKPOINT_FORMAT = 1

#: Instances characterized per scheduling chunk.  Checkpoints happen on
#: chunk boundaries, so the effective checkpoint cadence is
#: ``checkpoint_every`` rounded up to a multiple of the chunk size.
DEFAULT_CHUNK = 32

_MODULES = obs.counter(
    "fleet_campaign_modules_total",
    "Module instances folded into fleet campaigns, by outcome source.",
    labelnames=("source",),
)
_PROGRESS = obs.gauge(
    "fleet_campaign_progress",
    "Completed fraction of the most recent fleet campaign range.",
)
_CHECKPOINTS = obs.counter(
    "fleet_campaign_checkpoints_total",
    "Checkpoint files written by fleet campaigns.",
)


def characterize_instance(instance: ModuleInstance, horizon: float):
    """Characterize one sampled instance analytically; returns the
    `OutcomeSummary` of its aggressor subarray."""
    population = CellPopulation(
        key=instance.population_key,
        profile=instance.profile,
        rows=instance.rows,
        columns=instance.columns,
    )
    outcome = disturb_outcome(
        population,
        instance.config,
        timing=instance.timing,
        role=SubarrayRole.AGGRESSOR,
        aggressor_local_row=instance.aggressor_local_row,
    )
    return outcome.summarize(horizon)


@dataclass
class FleetResult:
    """What a campaign run produced (possibly a checkpointed prefix)."""

    spec: FleetSpec
    aggregator: FleetAggregator
    modules_done: int
    resumed_from: int | None
    interrupted: bool
    wall_s: float
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def complete(self) -> bool:
        return self.modules_done >= self.spec.modules

    def snapshot(self) -> dict:
        """Percentile snapshot plus campaign metadata (JSON-able)."""
        out = self.aggregator.snapshot()
        out["modules_total"] = self.spec.modules
        out["modules_done"] = self.modules_done
        out["complete"] = self.complete
        out["interrupted"] = self.interrupted
        out["resumed_from"] = self.resumed_from
        out["scenario"] = self.spec.scenario
        out["seed"] = self.spec.seed
        out["offset"] = self.spec.offset
        out["channels"] = self.spec.channels
        out["ranks"] = self.spec.ranks
        out["wall_s"] = self.wall_s
        out["cache_hits"] = self.cache_hits
        out["cache_misses"] = self.cache_misses
        return out


@dataclass
class FleetCampaign:
    """Resumable streaming campaign over one `FleetSpec` range.

    Attributes:
        spec: the sampled population and reporting intervals.
        cache: optional `OutcomeCache`; makes reruns and resumption
            cache hits.
        checkpoint_dir: optional checkpoint directory; None disables
            checkpointing (and resumption).
        checkpoint_every: instances between checkpoints.
        workers: thread-pool width; 0 characterizes inline.
        chunk: instances per scheduling chunk.
        stop_event: cooperative stop flag — when set, the campaign
            checkpoints and returns an interrupted result.
    """

    spec: FleetSpec
    cache: OutcomeCache | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 500
    workers: int = 0
    chunk: int = DEFAULT_CHUNK
    stop_event: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        self._lock = threading.Lock()
        self._aggregator = FleetAggregator(self.spec.intervals)
        self._next_index = self.spec.offset

    # ------------------------------------------------------------------
    # Live introspection (safe from other threads, e.g. the job manager)
    # ------------------------------------------------------------------
    @property
    def modules_done(self) -> int:
        with self._lock:
            return self._next_index - self.spec.offset

    def live_snapshot(self) -> dict:
        """Consistent snapshot of the in-flight aggregate."""
        with self._lock:
            snap = self._aggregator.snapshot()
            snap["modules_done"] = self._next_index - self.spec.offset
        snap["modules_total"] = self.spec.modules
        return snap

    def live_state(self) -> dict:
        """Exact aggregator state (for shard merging) plus the cursor."""
        with self._lock:
            return {
                "aggregator": self._aggregator.state(),
                "next_index": self._next_index,
            }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _lookup(
        self, instance: ModuleInstance
    ) -> tuple[str | None, OutcomeSummary | None]:
        """One instance's cache key and cached summary (``None`` on a miss);
        ``(None, None)`` without a cache."""
        if self.cache is None:
            return None, None
        key = instance.cache_key()
        return key, self.cache.get(key, min_horizon=self.spec.horizon)

    def _characterize(self, instance: ModuleInstance, key: str | None) -> OutcomeSummary:
        """Compute one missed instance and store it under ``key``."""
        summary = characterize_instance(instance, self.spec.horizon)
        if key is not None:
            self.cache.put(key, summary)
        return summary

    def _rates(self, summary: OutcomeSummary) -> list[float]:
        """One instance's per-interval flip rates."""
        # Topology dilution: an attacker interleaved over channels*ranks
        # devices exposes each column for 1/dilution of every interval.
        dilution = self.spec.topology_dilution
        return [
            summary.flip_count(interval / dilution) / summary.cells
            for interval in self.spec.intervals
        ]

    def _checkpoint(self, store: CheckpointStore) -> None:
        with self._lock:
            payload = {
                "format": CHECKPOINT_FORMAT,
                "spec_digest": self.spec.digest(),
                "next_index": self._next_index,
                "aggregator": self._aggregator.state(),
            }
            next_index = self._next_index
        store.save(payload, next_index)
        _CHECKPOINTS.inc()

    def _try_resume(self, store: CheckpointStore) -> int | None:
        checkpoint = store.latest()
        if not checkpoint:
            return None
        if checkpoint.get("format") != CHECKPOINT_FORMAT:
            return None
        if checkpoint.get("spec_digest") != self.spec.digest():
            return None
        next_index = int(checkpoint["next_index"])
        if not self.spec.offset <= next_index <= self.spec.offset + self.spec.modules:
            return None
        aggregator = FleetAggregator.from_state(checkpoint["aggregator"])
        if aggregator.modules != next_index - self.spec.offset:
            return None
        with self._lock:
            self._aggregator = aggregator
            self._next_index = next_index
        return next_index

    def run(self) -> FleetResult:
        """Run (or resume) the campaign to completion, stop, or Ctrl-C."""
        started = time.monotonic()
        store = CheckpointStore(self.checkpoint_dir) if self.checkpoint_dir else None
        resumed_from = self._try_resume(store) if store else None
        end = self.spec.offset + self.spec.modules
        hits = misses = 0
        since_checkpoint = 0
        interrupted = False

        executor = (
            ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="fleet-worker"
            )
            if self.workers > 0
            else None
        )
        with obs.span(
            "fleet.campaign",
            modules=self.spec.modules,
            offset=self.spec.offset,
            scenario=self.spec.scenario,
            seed=self.spec.seed,
            resumed_from=resumed_from,
        ):
            try:
                while self._next_index < end:
                    if self.stop_event.is_set():
                        interrupted = True
                        break
                    lo = self._next_index
                    hi = min(lo + self.chunk, end)
                    instances = [self.spec.instance(i) for i in range(lo, hi)]
                    found = [self._lookup(inst) for inst in instances]
                    summaries = [summary for _, summary in found]
                    missed = [i for i, summary in enumerate(summaries) if summary is None]
                    compute = map if executor is None else executor.map
                    # map() preserves submission order; result order is what
                    # keeps the aggregate an exact index prefix.
                    computed = compute(
                        self._characterize,
                        [instances[i] for i in missed],
                        [found[i][0] for i in missed],
                    )
                    for i, summary in zip(missed, computed):
                        summaries[i] = summary
                    rates = [self._rates(summary) for summary in summaries]
                    with self._lock:
                        for instance_rates in rates:
                            self._aggregator.add(instance_rates)
                        self._next_index = hi
                    chunk_hits = len(instances) - len(missed)
                    hits += chunk_hits
                    misses += len(missed)
                    _MODULES.labels(source="cache").inc(chunk_hits)
                    _MODULES.labels(source="computed").inc(len(missed))
                    _PROGRESS.set((hi - self.spec.offset) / self.spec.modules)
                    since_checkpoint += hi - lo
                    if store and since_checkpoint >= self.checkpoint_every:
                        self._checkpoint(store)
                        since_checkpoint = 0
            except KeyboardInterrupt:
                # Ctrl-C: do not wait for the pool — cancel what has not
                # started, flush the prefix we have, and let the caller
                # turn this into exit 130.
                if executor is not None:
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = None
                if store:
                    self._checkpoint(store)
                raise
            finally:
                if executor is not None:
                    executor.shutdown(wait=True)
            if store and (interrupted or since_checkpoint > 0):
                self._checkpoint(store)

        with self._lock:
            aggregator = self._aggregator
            modules_done = self._next_index - self.spec.offset
        return FleetResult(
            spec=self.spec,
            aggregator=aggregator,
            modules_done=modules_done,
            resumed_from=resumed_from,
            interrupted=interrupted,
            wall_s=time.monotonic() - started,
            cache_hits=hits,
            cache_misses=misses,
        )
