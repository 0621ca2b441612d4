"""The benchmark's own span recorder and its self-time arithmetic.

The traced pass wraps calls into `repro`'s public functions from the
benchmark's code (`Patches`), so no `repro` source changes and
`repro.obs` is left as the program ships it.  Each wrapper records a
span: a name, the layer it belongs to, start, duration and parent.
Spans stay in memory until the pass ends.

Two views of the spans:

* **self time** — a span's duration minus the union of its child
  spans.  Children run by pool threads overlap, hence the union.  Summed
  over a layer it is thread-busy time, which exceeds wall time when the
  layer runs in parallel.
* **wall share** — each instant of the traced wall time is split evenly
  among the innermost spans active at that instant.  The shares of all
  layers plus the benchmark's root add up to the covered wall time,
  which is what the 5 % share-sum check verifies.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

#: Layers of the program, named after its modules, plus the benchmark.
LAYERS = (
    "serve",
    "core.engine",
    "core.cache",
    "chip.cells",
    "core.analytic",
    "fleet",
    "sim",
    "bench",
)

_CURRENT: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """In-memory span store for one traced pass in one process."""

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or os.urandom(16).hex()
        self.records: list[dict] = []
        #: Parent of spans opened on a thread with no active span (pool
        #: threads that do not copy the submitter's context).
        self.fallback_parent: str | None = None
        #: name -> [calls, seconds] of functions too hot for a span each.
        self.sums: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid() & 0xFFFFFFFF:08x}"

    def open(
        self,
        name: str,
        layer: str,
        parent_id: str | None = None,
        trace_id: str | None = None,
        **attributes,
    ):
        """Start a span; returns ``(record, token)`` for `close`."""
        current = _CURRENT.get()
        if parent_id is None:
            if current is not None:
                parent_id = current["span_id"]
                trace_id = trace_id or current["trace_id"]
            else:
                parent_id = self.fallback_parent
        record = {
            "name": name,
            "layer": layer,
            "trace_id": trace_id or self.trace_id,
            "span_id": f"{self._prefix}{next(self._ids):08x}",
            "parent_id": parent_id,
            "start_unix": time.time(),
            "duration_s": 0.0,
            "pid": os.getpid(),
            "attributes": attributes,
            "_t0": time.perf_counter(),
        }
        return record, _CURRENT.set(record)

    def close(self, record: dict, token) -> None:
        record["duration_s"] = time.perf_counter() - record.pop("_t0")
        _CURRENT.reset(token)
        self.records.append(record)

    def named(self, name: str) -> list[dict]:
        return [record for record in self.records if record["name"] == name]


class Patches:
    """Install wrappers on module or class attributes; `restore` undoes
    them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def timed(recorder: Recorder, name: str, layer: str, after=None, fallback=False):
    """Wrapper factory for `Patches.wrap`: time each call as a span.

    ``after(record, result, args, kwargs)`` may annotate the finished
    span.  With ``fallback`` the span becomes the parent of spans that
    pool threads open while it runs.
    """

    def make(original):
        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            record, token = recorder.open(name, layer)
            if fallback:
                saved, recorder.fallback_parent = recorder.fallback_parent, record["span_id"]
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                if fallback:
                    recorder.fallback_parent = saved
                recorder.close(record, token)
            if after is not None:
                after(record, result, args, kwargs)
            return result

        return wrapper

    return make


def accumulated(recorder: Recorder, name: str):
    """Wrapper factory: add each call's duration to ``recorder.sums[name]``
    (for single-threaded callers too hot for a span per call)."""

    def make(original):
        perf_counter = time.perf_counter
        total = recorder.sums.setdefault(name, [0, 0.0])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += perf_counter() - start

        return wrapper

    return make


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------
def _end(record: dict) -> float:
    return record["start_unix"] + record["duration_s"]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(records: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its children (clipped to
    the span)."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    by_id = {record["span_id"]: record for record in records}
    for record in records:
        parent = by_id.get(record["parent_id"])
        if parent is None:
            continue
        start = max(record["start_unix"], parent["start_unix"])
        end = min(_end(record), _end(parent))
        if end > start:
            children[parent["span_id"]].append((start, end))
    return {
        span_id: max(0.0, record["duration_s"] - union_length(children[span_id]))
        for span_id, record in by_id.items()
    }


def wall_attribution(
    records: list[dict], window: tuple[float, float]
) -> dict[str, float]:
    """Seconds of ``window`` attributed to each layer.

    At every instant the active innermost spans (those with no active
    child) share the instant evenly.  Time when no span is active is
    attributed to ``"(untraced)"``.
    """
    lo, hi = window
    by_id = {record["span_id"]: record for record in records}
    # At equal times ends come before starts, a parent starts before and
    # ends after a child it shares the instant with.
    events = []
    for record in records:
        duration = record["duration_s"]
        events.append((record["start_unix"], 1, -duration, record["span_id"]))
        events.append((_end(record), 0, duration, record["span_id"]))
    events.sort()
    active: set[str] = set()
    active_children: dict[str, int] = defaultdict(int)
    leaves: set[str] = set()
    totals: dict[str, float] = defaultdict(float)
    previous = lo
    for moment, kind, _, span_id in events:
        segment_end = min(max(moment, lo), hi)
        if segment_end > previous:
            span = segment_end - previous
            if leaves:
                share = span / len(leaves)
                for leaf in leaves:
                    totals[by_id[leaf]["layer"]] += share
            else:
                totals["(untraced)"] += span
            previous = segment_end
        parent = by_id[span_id]["parent_id"]
        if kind == 1:
            active.add(span_id)
            if active_children[span_id] == 0:
                leaves.add(span_id)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    if hi > previous:
        totals["(untraced)"] += hi - previous
    return dict(totals)


def layer_table(records: list[dict], window: tuple[float, float]) -> dict:
    """Per layer: self time (thread-busy seconds), wall share and span
    count over ``window``; plus the share sum the 5 % check reads."""
    selfs = self_times(records)
    lo, hi = window
    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for record in records:
        if record["start_unix"] >= lo and _end(record) <= hi:
            busy[record["layer"]] += selfs[record["span_id"]]
            counts[record["layer"]] += 1
    wall = hi - lo
    attributed = wall_attribution(records, window)
    shares = {layer: seconds / wall for layer, seconds in attributed.items()}
    rows = {
        layer: {
            "self_s": busy.get(layer, 0.0),
            "share": shares.get(layer, 0.0),
            "spans": counts.get(layer, 0),
        }
        for layer in LAYERS
    }
    traced_share = sum(share for layer, share in shares.items() if layer in LAYERS)
    return {"wall_s": wall, "layers": rows, "share_sum": traced_share}


def render_layer_table(table: dict) -> str:
    lines = [f"{'layer':<14} {'self_s':>9} {'share':>7} {'spans':>7}"]
    for layer, row in table["layers"].items():
        lines.append(
            f"{layer:<14} {row['self_s']:9.3f} {row['share'] * 100:6.1f}% "
            f"{row['spans']:7d}"
        )
    lines.append(
        f"{'sum':<14} {'':>9} {table['share_sum'] * 100:6.1f}% "
        f"(traced wall {table['wall_s']:.3f} s)"
    )
    return "\n".join(lines)


def write_spans(records: list[dict], path: Path) -> None:
    """Raw span records, one JSON object a line (`repro obs trace` reads
    this shape)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")

