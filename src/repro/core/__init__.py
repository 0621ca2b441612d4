"""ColumnDisturb characterization core: the paper's methodology (§3.2).

Metrics, filtering, the bisection time-to-first-bitflip search, subarray and
row-mapping reverse engineering, retention profiling, and campaign drivers.
"""

from repro.chip.cells import VRT_TRIALS
from repro.core.analytic import (
    DEFAULT_SUMMARY_HORIZON,
    GUARDBAND_ROWS,
    OutcomeSummary,
    SubarrayOutcome,
    SubarrayRole,
    WeakTail,
    aggressor_column_multipliers,
    disturb_outcome,
    disturb_summaries,
    disturb_summary,
    disturb_summary_and_tail,
    neighbour_column_multipliers,
    retention_outcome,
    retention_time_arrays,
    tail_summary,
)
from repro.core.bisection import BisectionResult, search_minimum_time
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    OutcomeCache,
    content_key,
    outcome_cache_key,
    population_cache_key,
)
from repro.core.campaign import (
    QUICK_SCALE,
    REDUCED_SCALE,
    STANDARD_SCALE,
    Campaign,
    CampaignScale,
    SubarrayRecord,
)
from repro.core.cd_profiler import WeakRowProfile, profile_weak_rows
from repro.core.config import (
    AGGRESSOR_LOCATIONS,
    REFRESH_INTERVALS_LONG,
    REFRESH_INTERVALS_SHORT,
    SEARCH_INTERVAL,
    WORST_CASE,
    DisturbConfig,
)
from repro.core.engine import (
    DEFAULT_ENGINE_HORIZON,
    CharacterizationEngine,
    FailurePolicy,
    UnitExecutionError,
    WorkUnit,
    execute_unit,
    plan_units,
    record_from_summary,
)
from repro.core.remap import find_physical_neighbours, recover_physical_order
from repro.core.retention_profiler import profile_retention, retention_failure_mask
from repro.core.risk import (
    RefreshWindowRisk,
    WorstCaseSearchResult,
    find_worst_case,
    project_scaling,
    refresh_window_risk,
)
from repro.core.spatial import SpatialProfile, three_subarray_profile
from repro.core.store import load_records, save_records
from repro.core.subarrays import (
    boundaries_from_clusters,
    reverse_engineer_subarrays,
    rows_share_subarray,
)

__all__ = [
    "DEFAULT_SUMMARY_HORIZON",
    "GUARDBAND_ROWS",
    "VRT_TRIALS",
    "OutcomeSummary",
    "SubarrayOutcome",
    "SubarrayRole",
    "WeakTail",
    "CACHE_FORMAT_VERSION",
    "OutcomeCache",
    "content_key",
    "outcome_cache_key",
    "population_cache_key",
    "DEFAULT_ENGINE_HORIZON",
    "CharacterizationEngine",
    "WorkUnit",
    "execute_unit",
    "plan_units",
    "record_from_summary",
    "FailurePolicy",
    "UnitExecutionError",
    "aggressor_column_multipliers",
    "disturb_outcome",
    "disturb_summaries",
    "disturb_summary",
    "disturb_summary_and_tail",
    "tail_summary",
    "neighbour_column_multipliers",
    "retention_outcome",
    "retention_time_arrays",
    "BisectionResult",
    "search_minimum_time",
    "QUICK_SCALE",
    "REDUCED_SCALE",
    "STANDARD_SCALE",
    "Campaign",
    "CampaignScale",
    "SubarrayRecord",
    "AGGRESSOR_LOCATIONS",
    "REFRESH_INTERVALS_LONG",
    "REFRESH_INTERVALS_SHORT",
    "SEARCH_INTERVAL",
    "WORST_CASE",
    "DisturbConfig",
    "find_physical_neighbours",
    "recover_physical_order",
    "profile_retention",
    "retention_failure_mask",
    "SpatialProfile",
    "three_subarray_profile",
    "boundaries_from_clusters",
    "reverse_engineer_subarrays",
    "rows_share_subarray",
    "RefreshWindowRisk",
    "WorstCaseSearchResult",
    "find_worst_case",
    "project_scaling",
    "refresh_window_risk",
    "load_records",
    "save_records",
    "WeakRowProfile",
    "profile_weak_rows",
]
