#!/usr/bin/env python3
"""Is your module safe inside its refresh window? (Obs 3 + §6 implications.)

For each die generation in the catalog:
1. search for the worst-case access pattern,
2. quantify the bits at risk within the nominal 64 ms refresh window,
3. project how the time-to-first-bitflip floor shrinks with future
   technology scaling, and
4. show what refresh period — or PRVR budget — would restore safety.

Run:  python examples/refresh_window_attack.py
"""

from __future__ import annotations

from repro.analysis import seconds, table
from repro.chip import BankGeometry, SimulatedModule, ddr4_modules
from repro.core import (
    CampaignScale,
    find_worst_case,
    project_scaling,
    refresh_window_risk,
)
from repro.refresh import columndisturb_safe_period, compare_mitigations

GEOMETRY = BankGeometry(subarrays=4, rows_per_subarray=256, columns=512)
SCALE = CampaignScale(GEOMETRY)


def main() -> None:
    seen = set()
    rows = []
    for spec in ddr4_modules():
        die = (spec.manufacturer, spec.die_label)
        if die in seen:
            continue
        seen.add(die)
        risk = refresh_window_risk(spec.serial, SCALE, window=0.064)
        rows.append([
            f"{spec.manufacturer} {spec.die_label}",
            seconds(spec.profile.first_flip_floor(85.0)),
            "YES" if risk.at_risk else "no",
            risk.vulnerable_cells,
            risk.vulnerable_rows,
            seconds(columndisturb_safe_period(spec)),
        ])
    print("Sub-refresh-window ColumnDisturb risk at 85C, worst-case "
          "aggressor:\n")
    print(table(
        ["die", "CD floor", "at risk in 64ms?", "cells", "rows",
         "safe period"],
        rows,
    ))

    # Worst-case pattern search on the most vulnerable die.
    vulnerable = SimulatedModule(
        [m for m in ddr4_modules() if m.serial == "M8"][0], geometry=GEOMETRY
    )
    result = find_worst_case(vulnerable.bank().population(1), vulnerable.timing)
    print(f"\nWorst-case search on Micron 16Gb-F: aggressor pattern "
          f"0x{result.config.aggressor_pattern:02X}, tAggOn "
          f"{seconds(result.config.t_agg_on)} -> first bitflip in "
          f"{seconds(result.time_to_first)}")

    # Technology projection for the Samsung A-die.
    samsung = [m for m in ddr4_modules() if m.serial == "S0"][0]
    print("\nScaling projection (Samsung 16Gb-A, Obs 2 trend):")
    projections = project_scaling(
        samsung, scale_factors=(1.0, 2.0, 4.0, 8.0, 16.0)
    )
    print(table(
        ["node scale", "CD floor", "inside 64ms window?"],
        [[f"{s:.0f}x", seconds(floor), "YES" if inside else "no"]
         for s, floor, inside in projections],
    ))

    print("\nMitigation costs for a projected 8x-scaled Micron F-die "
          "(§6.1):")
    estimates = compare_mitigations(
        [m for m in ddr4_modules() if m.serial == "M8"][0],
        projected_scale=8.0,
    )
    print(table(
        ["mitigation", "throughput loss", "refresh energy rate", "protects?"],
        [[e.name, f"{e.throughput_loss:.1%}", f"{e.refresh_energy_rate:.3f}",
          "yes" if e.protects_columndisturb else "NO"]
         for e in estimates],
    ))


if __name__ == "__main__":
    main()
