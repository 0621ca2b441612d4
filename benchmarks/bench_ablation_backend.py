"""Ablation: does the Fig. 23 conclusion survive command-level fidelity?

Re-runs the RAIDR weak-fraction sweep on the command-level backend
(explicit ACT/PRE/RD/WR scheduling with tRRD/tFAW/tWTR/tWR constraints,
the ``"command"`` mode of `repro.sim.memsys.MemorySystem`) alongside the
simple three-latency backend; both run in the same memsys event loop.
The refresh-interference trend — the substance of Takeaway 12 — must be
backend-independent.
"""

import numpy as np

from _common import emit, run_once
from repro.analysis import table
from repro.sim import DDR4_3200, NoRefresh, raidr_policy, simulate_mix
from repro.workloads import make_mix

WEAK_FRACTIONS = (1e-4, 1e-2, 0.2, 1.0)
ROWS_PER_BANK = 65536


def run_ablation():
    mixes = [make_mix(i, length=700, ) for i in range(5)]
    results = {}
    for backend in ("simple", "command"):
        baselines = [
            simulate_mix(mix, NoRefresh(), backend=backend) for mix in mixes
        ]
        speedups = {}
        for fraction in WEAK_FRACTIONS:
            policy = raidr_policy(DDR4_3200, ROWS_PER_BANK, fraction)
            speedups[fraction] = float(np.mean([
                simulate_mix(mix, policy, backend=backend).weighted_speedup(b)
                for mix, b in zip(mixes, baselines)
            ]))
        results[backend] = speedups
    return results


def render(results) -> str:
    rows = [
        [
            f"{fraction:.4f}",
            f"{results['simple'][fraction]:.4f}",
            f"{results['command'][fraction]:.4f}",
        ]
        for fraction in WEAK_FRACTIONS
    ]
    return (
        "RAIDR (bitmap) speedup vs No Refresh, two controller backends\n\n"
        + table(["weak fraction", "simple backend", "command-level backend"],
                rows)
        + "\n\nThe ColumnDisturb-driven degradation trend is fidelity-"
        "independent; command-level constraints shift absolute IPCs only."
    )


def test_ablation_backend(benchmark):
    results = run_once(benchmark, run_ablation)
    emit("ablation_backend", render(results))
    for backend, speedups in results.items():
        series = [speedups[f] for f in WEAK_FRACTIONS]
        assert all(a >= b - 0.02 for a, b in zip(series, series[1:])), backend
        assert series[0] > series[-1], backend
