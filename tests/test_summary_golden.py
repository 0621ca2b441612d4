"""Golden pin of the outcome-summary build in `repro.core.analytic`.

Every `OutcomeSummary` is promised bit-identical across rewrites of the
build: the engine, the outcome cache and the fleet aggregator all assume
it.  These digests were recorded before the whole-array rewrite of
`SubarrayOutcome._build_summary` (when it still merged row intervals with
a lexsort and a per-row loop) and hash every array's dtype, shape and
bytes plus the scalar fields, so any drift in any field fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chip.catalog import get_module
from repro.chip.cells import CellPopulation
from repro.core.analytic import OutcomeSummary, retention_outcome
from repro.core.campaign import QUICK_SCALE
from repro.core.config import WORST_CASE
from repro.core.engine import execute_unit, plan_units
from repro.fleet.campaign import characterize_instance
from repro.fleet.scenario import FleetSpec

ARRAY_FIELDS = (
    "cd_cell_starts",
    "cd_cell_ends",
    "cd_row_starts",
    "cd_row_ends",
    "ret_cell_times",
    "ret_row_times",
)

ENGINE_DIGEST = "eddc34008924703d8288eba1be648dc62c0dc8516d9b135a01217fd9d4f696e2"
RETENTION_DIGEST = "0d8a2b06e41dfa7979f8d99a839444770d93c220372eb282049a189ace9550a2"
FLEET_DIGEST = "30537490a923cfe97767e57197774ab11a6a3bdc0ccfef93bfaa9850cf9575cd"


def summaries_digest(summaries: list[OutcomeSummary]) -> str:
    """sha256 over the scalar fields and every array of each summary."""
    digest = hashlib.sha256()
    for summary in summaries:
        scalars = (summary.rows, summary.cells, summary.horizon, summary.time_to_first)
        digest.update(repr(scalars).encode())
        for name in ARRAY_FIELDS:
            array = getattr(summary, name)
            digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def engine_summaries() -> list[OutcomeSummary]:
    units = plan_units(("S0", "M8", "H0", "HBM0"), WORST_CASE, QUICK_SCALE)
    return [execute_unit(unit) for unit in units]


def retention_summaries() -> list[OutcomeSummary]:
    population = CellPopulation(
        key=("golden", 0, 0, 0),
        profile=get_module("S0").profile,
        rows=256,
        columns=512,
    )
    return [retention_outcome(population, temperature_c=85.0).summarize()]


def fleet_summaries() -> list[OutcomeSummary]:
    spec = FleetSpec(modules=2, seed=11, scenario="mixed")
    return [
        characterize_instance(spec.instance(index), spec.horizon)
        for index in range(spec.modules)
    ]


@pytest.mark.parametrize(
    ("build", "expected"),
    [
        (engine_summaries, ENGINE_DIGEST),
        (retention_summaries, RETENTION_DIGEST),
        (fleet_summaries, FLEET_DIGEST),
    ],
    ids=["engine", "retention", "fleet"],
)
def test_summary_digest_is_pinned(build, expected):
    assert summaries_digest(build()) == expected
