"""Bounded-memory streaming aggregation of fleet risk, with checkpoints.

`FleetAggregator` reduces per-module flip rates into fleet-level
percentiles using a fixed log-spaced histogram per tREFC interval —
O(intervals x bins) memory however many million modules stream through,
never a list of records.

Why a fixed-bin histogram and not a t-digest: the state is a vector of
*integer* counts, so aggregation is exactly commutative and associative.
Any interleaving of record arrival, any shard split, and any
resume-from-checkpoint produces bit-identical state, which is what lets
the CI campaign smoke assert SIGKILL+resume == uninterrupted run down to
the last JSON byte.  The price is quantization: a reported percentile is
the geometric midpoint of its bin, within half a bin width (~0.3%
relative at the default resolution) of the exact order statistic — the
hypothesis property suite pins this tolerance against ``np.percentile``.

`CheckpointStore` persists aggregator state + resume cursor as
CRC-framed JSON records through `repro._util.durable`, the write path the
outcome cache uses.  A checkpoint that fails its check (torn, edited, or
from before the frame) is quarantined to ``.bad``, so a campaign resumes
from the newest intact checkpoint, or from the start if none is left.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro._util.durable import RecordStore

#: Bump when the checkpoint/state layout changes; mismatched checkpoints
#: are ignored (the campaign restarts from scratch rather than misread).
FLEET_STATE_FORMAT = 1

#: Default histogram resolution: 4096 log-spaced bins over 9 decades
#: gives a relative bin width of (1e9)**(1/4096) - 1 ~ 0.5%.
DEFAULT_BINS = 4096
DEFAULT_RATE_FLOOR = 1e-9
DEFAULT_RATE_CEIL = 1.0

#: Percentiles reported in snapshots.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


class FleetAggregator:
    """Streaming per-interval flip-rate percentiles over a module fleet.

    One module contributes one flip rate (flips / cells, in [0, 1]) per
    tREFC interval via `add`.  Rates of exactly zero go to a dedicated
    zero bucket (the module is not vulnerable at that interval); positive
    rates below the floor clamp into the first bin, rates above the ceil
    into the last.

    Args:
        intervals: strictly increasing tREFC bins (seconds).
        bins: number of log-spaced histogram bins.
        rate_floor / rate_ceil: histogram range for positive rates.
    """

    def __init__(
        self,
        intervals: tuple[float, ...],
        bins: int = DEFAULT_BINS,
        rate_floor: float = DEFAULT_RATE_FLOOR,
        rate_ceil: float = DEFAULT_RATE_CEIL,
    ) -> None:
        if not intervals or any(t <= 0 for t in intervals):
            raise ValueError("intervals must be positive")
        if list(intervals) != sorted(set(intervals)):
            raise ValueError("intervals must be strictly increasing")
        if bins < 2:
            raise ValueError("bins must be at least 2")
        if not 0 < rate_floor < rate_ceil:
            raise ValueError("need 0 < rate_floor < rate_ceil")
        self.intervals = tuple(float(t) for t in intervals)
        self.bins = int(bins)
        self.rate_floor = float(rate_floor)
        self.rate_ceil = float(rate_ceil)
        self._log_floor = math.log(self.rate_floor)
        self._step = (math.log(self.rate_ceil) - self._log_floor) / self.bins
        self.modules = 0
        self._zeros = np.zeros(len(self.intervals), dtype=np.int64)
        self._counts = np.zeros((len(self.intervals), self.bins), dtype=np.int64)

    # ------------------------------------------------------------------
    # Ingest and merge
    # ------------------------------------------------------------------
    def add(self, rates: list[float] | tuple[float, ...] | np.ndarray) -> None:
        """Fold one module's per-interval flip rates into the histogram."""
        if len(rates) != len(self.intervals):
            raise ValueError("one rate per interval required")
        for i, rate in enumerate(rates):
            rate = float(rate)
            if rate < 0 or not math.isfinite(rate):
                raise ValueError(f"flip rate must be finite and >= 0, got {rate}")
            if rate == 0.0:
                self._zeros[i] += 1
            else:
                self._counts[i, self._bin_index(rate)] += 1
        self.modules += 1

    def _bin_index(self, rate: float) -> int:
        raw = int((math.log(rate) - self._log_floor) / self._step)
        return min(max(raw, 0), self.bins - 1)

    def _bin_value(self, index: int) -> float:
        """Geometric midpoint of bin ``index`` (its representative rate)."""
        return math.exp(self._log_floor + (index + 0.5) * self._step)

    def merge(self, other: "FleetAggregator") -> None:
        """Fold another aggregator's counts into this one (exact: integer
        addition, so merge order never changes the result)."""
        if (
            other.intervals != self.intervals
            or other.bins != self.bins
            or other.rate_floor != self.rate_floor
            or other.rate_ceil != self.rate_ceil
        ):
            raise ValueError("cannot merge aggregators with different layouts")
        self.modules += other.modules
        self._zeros += other._zeros
        self._counts += other._counts

    # ------------------------------------------------------------------
    # Percentiles
    # ------------------------------------------------------------------
    def _value_at_rank(self, interval_index: int, rank: int, cum: np.ndarray) -> float:
        zeros = int(self._zeros[interval_index])
        if rank < zeros:
            return 0.0
        return self._bin_value(int(np.searchsorted(cum, rank - zeros, side="right")))

    def percentile(self, interval_index: int, q: float) -> float:
        """The q-th percentile flip rate at one interval, interpolated
        between bin representatives the way ``np.percentile`` (linear
        method) interpolates between order statistics."""
        if self.modules == 0:
            raise ValueError("no modules aggregated yet")
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        cum = np.cumsum(self._counts[interval_index])
        position = (q / 100.0) * (self.modules - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        value_lower = self._value_at_rank(interval_index, lower, cum)
        if upper == lower:
            return value_lower
        value_upper = self._value_at_rank(interval_index, upper, cum)
        return value_lower + (position - lower) * (value_upper - value_lower)

    def vulnerable_modules(self, interval_index: int) -> int:
        """Modules with a nonzero flip rate at one interval."""
        return self.modules - int(self._zeros[interval_index])

    def snapshot(self) -> dict:
        """JSON-able percentile snapshot (deterministic for a given state)."""
        out: dict = {"modules": self.modules, "intervals": []}
        for i, interval in enumerate(self.intervals):
            entry: dict = {"interval_s": interval}
            if self.modules:
                vulnerable = self.vulnerable_modules(i)
                entry["vulnerable_modules"] = vulnerable
                entry["vulnerable_fraction"] = vulnerable / self.modules
                for q in REPORTED_PERCENTILES:
                    entry[f"p{q:g}_flip_rate"] = self.percentile(i, q)
            out["intervals"].append(entry)
        return out

    # ------------------------------------------------------------------
    # Serialized state
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Exact JSON-able state (sparse counts: most bins are empty)."""
        sparse = []
        for i in range(len(self.intervals)):
            nonzero = np.nonzero(self._counts[i])[0]
            sparse.append([[int(b), int(self._counts[i, b])] for b in nonzero])
        return {
            "format": FLEET_STATE_FORMAT,
            "intervals": list(self.intervals),
            "bins": self.bins,
            "rate_floor": self.rate_floor,
            "rate_ceil": self.rate_ceil,
            "modules": self.modules,
            "zeros": [int(z) for z in self._zeros],
            "counts": sparse,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FleetAggregator":
        """Rebuild an aggregator from `state` output (exact round trip)."""
        if state.get("format") != FLEET_STATE_FORMAT:
            raise ValueError(f"unsupported fleet state format: {state.get('format')!r}")
        agg = cls(
            intervals=tuple(state["intervals"]),
            bins=state["bins"],
            rate_floor=state["rate_floor"],
            rate_ceil=state["rate_ceil"],
        )
        zeros = state["zeros"]
        counts = state["counts"]
        if len(zeros) != len(agg.intervals) or len(counts) != len(agg.intervals):
            raise ValueError("fleet state does not match its interval list")
        agg.modules = int(state["modules"])
        for i, pairs in enumerate(counts):
            agg._zeros[i] = int(zeros[i])
            for bin_index, count in pairs:
                agg._counts[i, int(bin_index)] = int(count)
        return agg


class CheckpointStore(RecordStore):
    """Checkpoints of one resumable campaign: `RecordStore` records
    ``checkpoint-<next_index 12 digits>.json``."""

    prefix = "checkpoint"

    def save(self, payload: dict, next_index: int) -> Path:
        """Durably persist ``payload`` as the checkpoint at cursor
        ``next_index``; returns its path."""
        return super().save(payload, next_index)
