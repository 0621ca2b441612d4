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

import json
import os
from collections.abc import Iterator
from pathlib import Path

from repro.chip import BankGeometry, SimulatedModule, ddr4_modules, get_module
from repro.chip.cells import CellPopulation
from repro.chip.module import ModuleSpec
from repro.core import CampaignScale

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
