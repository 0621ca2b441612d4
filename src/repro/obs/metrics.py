"""Metrics primitives: counters, gauges, histograms, and their registry.

Design goals, in order:

1. **Zero cost when off.**  Every mutator checks ``repro.obs.state.enabled``
   first; a disabled increment is one module-attribute read and a branch.
2. **Lock-free hot path when on.**  Counters and histograms write to
   *thread-local shard cells*; no lock is taken on ``inc``/``observe``.
   Shard cells are merged only on scrape (:meth:`MetricsRegistry.collect`),
   which is rare and may take locks freely.
3. **Serializable.**  :meth:`MetricsRegistry.snapshot` produces a
   plain-dict image of every series, the source of the JSON exporters.

Metric families follow the Prometheus data model: a family has a name, a
help string, a type, and label names; ``family.labels(kind="ACT")`` returns
the child series for one label-value combination.  Children are cached, so
hot call sites should pre-bind them at module import time::

    _CMDS = obs.counter("bender_commands_total", "...", labelnames=("kind",))
    _ACT = _CMDS.labels(kind="ACT")          # bind once
    ...
    _ACT.inc()                               # hot path: no dict lookup
"""

from __future__ import annotations

import bisect
import threading

from repro.obs import state as _state

#: Default histogram bucket upper bounds (seconds-flavoured, matching the
#: Prometheus client defaults); ``inf`` is implicit.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name {name!r} must not start with a digit")


class _Shards:
    """A set of per-thread accumulator cells.

    Each cell is a plain mutable list (``[value]`` for scalars,
    ``[bucket_counts..., sum, count]`` for histograms); the owning thread
    mutates it without locks.  The shard list itself is only appended to
    under ``_lock`` (cell creation is rare), and readers merge whatever
    values are present — a concurrent increment lands in this scrape or the
    next, never nowhere.
    """

    __slots__ = ("_local", "_cells", "_lock", "_width")

    def __init__(self, width: int) -> None:
        self._local = threading.local()
        self._cells: list[list[float]] = []
        self._lock = threading.Lock()
        self._width = width

    def cell(self) -> list[float]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = [0.0] * self._width
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def merged(self) -> list[float]:
        totals = [0.0] * self._width
        with self._lock:
            cells = list(self._cells)
        for cell in cells:
            for i in range(self._width):
                totals[i] += cell[i]
        return totals

    def reset(self) -> None:
        with self._lock:
            for cell in self._cells:
                for i in range(self._width):
                    cell[i] = 0.0


class Counter:
    """A monotonically increasing value (one labeled child series)."""

    kind = "counter"

    def __init__(self) -> None:
        self._shards = _Shards(1)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (no-op while observability is disabled)."""
        if not _state.enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        self._shards.cell()[0] += amount

    @property
    def value(self) -> float:
        """Current total, merged over every thread's shard."""
        return self._shards.merged()[0]


class Gauge:
    """A value that can go up and down (one labeled child series).

    Gauges record *observations* (a rate, a queue depth), so they do not
    shard: ``set`` is a plain attribute store (atomic in CPython) and
    ``inc``/``dec`` take a small lock — gauges are never on a hot path.
    """

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not _state.enabled:
            return
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _state.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (one labeled child series).

    The cell layout is ``[count_b0, ..., count_bN, count_inf, sum, count]``;
    bucket counts are stored per-bucket (not cumulative) in the shards and
    cumulated at scrape time.
    """

    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.buckets = tuple(float(b) for b in buckets)
        self._shards = _Shards(len(self.buckets) + 3)

    def observe(self, value: float) -> None:
        """Record one observation (no-op while disabled)."""
        if not _state.enabled:
            return
        cell = self._shards.cell()
        cell[bisect.bisect_left(self.buckets, value)] += 1.0
        cell[-2] += value
        cell[-1] += 1.0

    def _merged(self) -> list[float]:
        return self._shards.merged()

    @property
    def count(self) -> float:
        return self._merged()[-1]

    @property
    def sum(self) -> float:
        return self._merged()[-2]

    def cumulative_buckets(self) -> list[tuple[float, float]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``inf``."""
        merged = self._merged()
        out = []
        running = 0.0
        for bound, count in zip(
            (*self.buckets, float("inf")), merged[: len(self.buckets) + 1]
        ):
            running += count
            out.append((bound, running))
        return out


class MetricFamily:
    """One named metric with zero or more labeled child series."""

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        if kind not in _VALID_TYPES:
            raise ValueError(f"unknown metric type {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            self.labels()  # materialize the single unlabeled series

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets)

    def labels(self, **labelvalues: object):
        """The child series for one label-value combination (cached)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        """Every ``(label_values, child)`` pair, creation-ordered."""
        with self._lock:
            return list(self._children.items())

    # Convenience pass-throughs for unlabeled families.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value


class MetricsRegistry:
    """Process-wide directory of metric families.

    ``counter``/``gauge``/``histogram`` are idempotent get-or-create calls:
    asking for an existing name with a compatible signature returns the
    existing family, so instrumented modules can be imported in any order
    (and re-imported by worker processes) without double registration.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, name, help, kind, labelnames, buckets=DEFAULT_BUCKETS
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}"
                    )
                return family
            family = MetricFamily(name, help, kind, tuple(labelnames), buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help, "counter", labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._get_or_create(name, help, "histogram", labelnames, buckets)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Zero every series in place (pre-bound children stay valid)."""
        for family in self.families():
            for _, child in family.series():
                if isinstance(child, Gauge):
                    child._value = 0.0
                else:
                    child._shards.reset()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able image of every family and series."""
        metrics = []
        for family in self.families():
            samples = []
            for labelvalues, child in family.series():
                labels = dict(zip(family.labelnames, labelvalues))
                if isinstance(child, Histogram):
                    samples.append({
                        "labels": labels,
                        "buckets": [
                            [bound, count]
                            for bound, count in child.cumulative_buckets()
                        ],
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics.append({
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "buckets": (
                    list(family._buckets)
                    if family.kind == "histogram" else None
                ),
                "samples": samples,
            })
        return {"metrics": metrics}
