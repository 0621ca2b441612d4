"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
the corresponding experiment on the simulated silicon, prints the same
rows/series the paper plots, and writes the report under
``benchmarks/results/``.  EXPERIMENTS.md records paper-vs-measured numbers
produced by these benches.

Scale: by default each module is simulated as one bank of 4 subarrays x
512 rows x 1024 columns (cell counts scale results linearly; ratios and
orderings are the reproduction targets).  Set ``REPRO_BENCH_FULL=1`` for
the paper-matching 8 x 1024 x 2048 geometry (slower, more memory).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from repro.chip import BankGeometry, SimulatedModule, ddr4_modules, get_module
from repro.chip.cells import CellPopulation
from repro.chip.module import ModuleSpec
from repro.core import (
    CampaignScale,
    CharacterizationEngine,
    OutcomeCache,
    RunTrace,
)

RESULTS_DIR = Path(__file__).parent / "results"

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Named blocks of ``BENCH_engine.json`` and the bench that owns each.
#: Every writer must go through :func:`merge_bench_block` so one bench
#: refreshing its own numbers can never clobber another bench's block
#: (the failure mode that once erased the committed ``serve`` block).
BENCH_BLOCKS = ("kernels", "serve", "obs", "fleet_risk", "memsys")


def merge_bench_block(
    block: str | None,
    result: dict,
    repo_root: Path | None = None,
    results_dir: Path | None = None,
) -> str:
    """Merge one writer's result into ``BENCH_engine.json`` and persist it.

    ``block`` names the sub-dictionary the caller owns (one of
    :data:`BENCH_BLOCKS`); ``None`` means the caller owns the engine-level
    top of the file, in which case every named block present in the
    existing file is carried over untouched.  Both the repo-root copy and
    the ``benchmarks/results/`` copy are rewritten identically.  Returns
    the serialized payload (callers may print it).
    """
    if block is not None and block not in BENCH_BLOCKS:
        raise ValueError(f"unknown bench block {block!r}; add it to BENCH_BLOCKS")
    repo_root = repo_root or REPO_ROOT
    results_dir = results_dir or RESULTS_DIR
    bench_path = repo_root / "BENCH_engine.json"
    if bench_path.exists():
        data = json.loads(bench_path.read_text())
    else:
        data = {"bench": "engine"}
    if block is None:
        preserved = {name: data[name] for name in BENCH_BLOCKS if name in data}
        data = {**result, **preserved}
    else:
        data[block] = result
    payload = json.dumps(data, indent=2) + "\n"
    bench_path.write_text(payload)
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_engine.json").write_text(payload)
    return payload

if os.environ.get("REPRO_BENCH_FULL"):
    BENCH_GEOMETRY = BankGeometry(subarrays=8, rows_per_subarray=1024,
                                  columns=2048)
else:
    BENCH_GEOMETRY = BankGeometry(subarrays=4, rows_per_subarray=512,
                                  columns=1024)

BENCH_SCALE = CampaignScale(BENCH_GEOMETRY)

MANUFACTURERS = ("SK Hynix", "Micron", "Samsung")

#: Engine opt-in for the figure benches: ``REPRO_BENCH_WORKERS=N`` runs
#: campaigns on N worker threads, ``REPRO_BENCH_CACHE=DIR`` adds a
#: persistent outcome cache shared across benches and runs, and
#: ``REPRO_BENCH_TRACE=FILE`` streams per-unit run telemetry as JSONL
#: (with a summary printed at interpreter exit).  All default off;
#: results are bit-identical either way.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None
BENCH_TRACE_PATH = os.environ.get("REPRO_BENCH_TRACE") or None

#: Process-wide cache instance so every bench in one run shares outcomes.
_BENCH_CACHE: OutcomeCache | None = None

#: Process-wide trace so every bench in one run appends to one JSONL file.
_BENCH_TRACE: RunTrace | None = None


def bench_trace() -> RunTrace | None:
    """The shared run trace, or ``None`` when ``REPRO_BENCH_TRACE`` unset."""
    global _BENCH_TRACE
    if _BENCH_TRACE is None and BENCH_TRACE_PATH:
        _BENCH_TRACE = RunTrace(BENCH_TRACE_PATH)
        atexit.register(_finish_trace, _BENCH_TRACE)
    return _BENCH_TRACE


def _finish_trace(trace: RunTrace) -> None:
    trace.close()
    if trace.records:
        print(f"\n[{BENCH_TRACE_PATH}]", file=sys.stderr)
        print(trace.summary_table(), file=sys.stderr)


def bench_cache() -> OutcomeCache | None:
    """The shared engine cache, or ``None`` when neither knob is set.

    An in-memory cache is still worthwhile with ``REPRO_BENCH_WORKERS``
    alone unset — benches that repeat a condition skip recomputation — so
    a cache is created whenever either knob is enabled.
    """
    global _BENCH_CACHE
    if _BENCH_CACHE is None and (BENCH_CACHE_DIR or BENCH_WORKERS):
        _BENCH_CACHE = OutcomeCache(BENCH_CACHE_DIR)
    return _BENCH_CACHE


def bench_engine(scale: CampaignScale | None = None) -> CharacterizationEngine:
    """A characterization engine configured from the bench env knobs."""
    return CharacterizationEngine(
        scale=scale or BENCH_SCALE,
        workers=BENCH_WORKERS,
        cache=bench_cache(),
        trace=bench_trace(),
    )


def emit(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/results/."""
    print()
    print(f"===== {name} =====")
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def iter_populations(
    serials: list[str] | None = None,
    geometry: BankGeometry | None = None,
) -> Iterator[tuple[ModuleSpec, int, CellPopulation]]:
    """Yield (spec, subarray index, population) module by module.

    Modules are instantiated one at a time and dropped after iteration, so
    all-module sweeps stay within a bounded memory footprint.
    """
    geometry = geometry or BENCH_GEOMETRY
    specs = (
        [get_module(serial) for serial in serials]
        if serials is not None
        else ddr4_modules()
    )
    for spec in specs:
        module = SimulatedModule(spec, geometry=geometry)
        bank = module.bank()
        for subarray in range(geometry.subarrays):
            yield spec, subarray, bank.population(subarray)


def run_once(benchmark, fn):
    """Run a heavyweight experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
