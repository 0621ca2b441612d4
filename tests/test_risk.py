"""Refresh-window risk analysis."""

import pytest

from repro.chip import DDR4, BankGeometry, get_module
from repro.chip.cells import CellPopulation
from repro.core import (
    CampaignScale,
    find_worst_case,
    project_scaling,
    refresh_window_risk,
)

SCALE = CampaignScale(BankGeometry(subarrays=4, rows_per_subarray=256, columns=512))


class TestRefreshWindowRisk:
    def test_vulnerable_module_flagged(self):
        """Obs 3: the Micron F-die flips inside the 64 ms window."""
        risk = refresh_window_risk("M8", SCALE, window=0.064)
        assert risk.at_risk
        assert risk.vulnerable_cells >= risk.vulnerable_rows > 0
        assert risk.time_to_first < 0.064
        assert risk.closest_victim_rows is not None
        # Sub-window victims sit far from the aggressor (paper: 374-446
        # rows away) — well outside any RowHammer guardband.
        assert risk.farthest_victim_rows > 8

    def test_resilient_module_clear(self):
        """An old Hynix die at low temperature stays inside the window."""
        risk = refresh_window_risk("H0", SCALE, window=0.064, temperature_c=45.0)
        assert not risk.at_risk
        assert risk.vulnerable_cells == 0
        assert risk.closest_victim_rows is None

    def test_longer_window_more_risk(self):
        short = refresh_window_risk("S4", SCALE, window=0.064)
        long = refresh_window_risk("S4", SCALE, window=0.512)
        assert long.vulnerable_cells >= short.vulnerable_cells


class TestWorstCaseSearch:
    def test_finds_all_zero_long_press(self):
        """The search must rediscover the paper's worst case: all-0
        aggressor with a long tAggOn."""
        population = CellPopulation(
            key=("risk", "S0", 1), profile=get_module("S0").profile,
            rows=256, columns=512,
        )
        result = find_worst_case(population, DDR4)
        assert result.config.aggressor_pattern == 0x00
        assert result.config.t_agg_on >= 7.8e-6
        # Ranking is sorted and the all-1 press is the weakest condition.
        times = [time for *_, time in result.ranking]
        assert times == sorted(times)
        worst_pattern = result.ranking[-1][1]
        assert worst_pattern == 0xFF


class TestScalingProjection:
    def test_floors_shrink_with_scaling(self):
        projections = project_scaling(get_module("S0"))
        floors = [floor for _, floor, _ in projections]
        assert floors == sorted(floors, reverse=True)

    def test_eventually_inside_window(self):
        projections = project_scaling(
            get_module("S0"), scale_factors=(1.0, 10.0, 50.0)
        )
        assert not projections[0][2]  # today: outside the 64 ms window
        assert projections[-1][2]  # sufficiently scaled: inside

    def test_rejects_backward_scaling(self):
        with pytest.raises(ValueError):
            project_scaling(get_module("S0"), scale_factors=(0.5,))
