"""Module datasheets: one-stop characterization reports.

`module_datasheet` runs the full analysis pipeline for one catalog module —
worst-case characterization, refresh-window risk, weak-row classification,
mitigation costs, technology projection — and renders a markdown document a
platform team could act on.  Available from the CLI as
``python -m repro datasheet SERIAL``.
"""

from __future__ import annotations

from repro._util.units import format_seconds
from repro.analysis.render import percent, seconds, table
from repro.analysis.stats import DistributionSummary
from repro.chip import BankGeometry, SimulatedModule, get_module
from repro.core import (
    Campaign,
    CampaignScale,
    WORST_CASE,
    refresh_window_risk,
)
from repro.core.risk import project_scaling
from repro.refresh import (
    classify_rows,
    columndisturb_safe_period,
    compare_mitigations,
)

_DATASHEET_GEOMETRY = BankGeometry(subarrays=4, rows_per_subarray=256,
                                   columns=512)


def module_datasheet(
    serial: str,
    geometry: BankGeometry = _DATASHEET_GEOMETRY,
    strong_interval: float = 1.024,
) -> str:
    """Build the markdown datasheet for one module (see module docs)."""
    spec = get_module(serial)
    module = SimulatedModule(spec, geometry=geometry)
    profile = spec.profile

    # --- headline -----------------------------------------------------
    lines = [
        f"# ColumnDisturb datasheet — {serial}",
        "",
        f"* Manufacturer: {spec.manufacturer}",
        f"* Die: {spec.die_label} ({spec.organization}, {spec.interface}, "
        f"{spec.chips} chips)",
        f"* Coupling die scale: {profile.die_scale:.2f}",
        f"* Time-to-first-bitflip floor @85C: "
        f"{format_seconds(profile.first_flip_floor(85.0))}",
        "",
    ]

    # --- characterization ----------------------------------------------
    scale = CampaignScale(geometry)
    campaign = Campaign(scale=scale)
    records = campaign.characterize_module(
        serial, WORST_CASE, intervals=(0.512, 16.0)
    )
    summary = DistributionSummary.from_values(
        [record.time_to_first for record in records]
    )
    lines += ["## Worst-case characterization (85C, all-0 aggressor)", ""]
    lines.append(table(
        ["subarray", "time to 1st bitflip", "CD flips @512ms",
         "CD rows @512ms", "CD fraction @16s"],
        [
            [
                record.subarray, seconds(record.time_to_first),
                record.cd_flips[0.512], record.cd_rows[0.512],
                percent(record.cd_fraction(16.0)),
            ]
            for record in records
        ],
    ))
    if summary.count:
        lines.append(
            f"\nAcross subarrays: min {seconds(summary.minimum)}, "
            f"median {seconds(summary.median)}."
        )
    else:
        lines.append("\nNo bitflip within the 512 ms search window.")
    lines.append("")

    # --- refresh-window risk --------------------------------------------
    risk = refresh_window_risk(serial, scale, window=0.064)
    lines += ["## Refresh-window risk (64 ms, nominal conditions)", ""]
    if risk.at_risk:
        lines.append(
            f"**AT RISK**: {risk.vulnerable_cells} cells in "
            f"{risk.vulnerable_rows} rows flip within the refresh window "
            f"(fastest: {seconds(risk.time_to_first)}; victims "
            f"{risk.closest_victim_rows}-{risk.farthest_victim_rows} rows "
            f"from the aggressor)."
        )
    else:
        lines.append(
            "Not at risk today: the ColumnDisturb floor "
            f"({format_seconds(profile.first_flip_floor(85.0))}) exceeds "
            "the 64 ms window."
        )
    lines.append("")

    # --- retention-aware refresh impact ---------------------------------
    classification = classify_rows(
        module, strong_interval=strong_interval, temperature_c=65.0
    )
    lines += [
        f"## Weak-row classification (65C, strong interval = "
        f"{strong_interval * 1000:.0f} ms)",
        "",
        f"* retention-weak rows: {classification.retention_weak} / "
        f"{classification.total_rows} "
        f"({percent(classification.retention_weak_fraction, 4)})",
        f"* with ColumnDisturb:  {classification.columndisturb_weak} / "
        f"{classification.total_rows} "
        f"({percent(classification.columndisturb_weak_fraction)})",
        "",
    ]

    # --- mitigations ------------------------------------------------------
    lines += ["## Mitigation options (§6.1 models)", ""]
    lines.append(table(
        ["mitigation", "throughput loss", "refresh energy rate", "protects?"],
        [
            [
                estimate.name, percent(estimate.throughput_loss, 1),
                f"{estimate.refresh_energy_rate:.3f}",
                "yes" if estimate.protects_columndisturb else "NO",
            ]
            for estimate in compare_mitigations(spec)
        ],
    ))
    lines.append(
        f"\nColumnDisturb-safe refresh period (safety 2x): "
        f"{format_seconds(columndisturb_safe_period(spec))}"
    )
    lines.append("")

    # --- scaling projection -----------------------------------------------
    lines += ["## Technology-scaling projection (Obs 2 trend)", ""]
    lines.append(table(
        ["node scale", "floor", "inside 64 ms window?"],
        [
            [f"{scale:.0f}x", format_seconds(floor), "YES" if inside else "no"]
            for scale, floor, inside in project_scaling(spec)
        ],
    ))
    return "\n".join(lines) + "\n"
