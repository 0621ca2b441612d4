"""Device-level disturbance physics.

This package is the substitution for the paper's real silicon (DESIGN.md §1):
an intrinsic-leakage retention channel plus a bitline-coupling ColumnDisturb
channel, both with lognormal cell-to-cell variation, Arrhenius temperature
scaling, and a separate RowHammer/RowPress neighbour-row model.
"""

from repro.physics.constants import (
    GND,
    Q_CRIT,
    T_REFERENCE_C,
    TEMPERATURES_C,
    V_CELL_CHARGED,
    V_PRECHARGE,
    VDD,
)
from repro.physics.coupling import (
    flip_mask,
    mean_coupling_multiplier,
    retention_coupling_multiplier,
    time_to_first_flip,
    times_to_flip,
    total_leakage_rates,
)
from repro.physics.profile import DisturbanceProfile
from repro.physics.rowhammer import (
    ANTI_DIRECTION_FACTOR,
    effective_hammer_count,
    neighbour_flip_mask,
)
from repro.physics.voltage import (
    VoltagePhase,
    average_column_voltage,
    duty_cycled_waveform,
    idle_waveform,
    single_aggressor_waveform,
    two_aggressor_waveform,
    waveform_period,
)

__all__ = [
    "GND",
    "Q_CRIT",
    "T_REFERENCE_C",
    "TEMPERATURES_C",
    "V_CELL_CHARGED",
    "V_PRECHARGE",
    "VDD",
    "flip_mask",
    "mean_coupling_multiplier",
    "retention_coupling_multiplier",
    "time_to_first_flip",
    "times_to_flip",
    "total_leakage_rates",
    "DisturbanceProfile",
    "ANTI_DIRECTION_FACTOR",
    "effective_hammer_count",
    "neighbour_flip_mask",
    "VoltagePhase",
    "average_column_voltage",
    "duty_cycled_waveform",
    "idle_waveform",
    "single_aggressor_waveform",
    "two_aggressor_waveform",
    "waveform_period",
]
