"""Campaign drivers and result records."""

import pytest

from repro.chip import BankGeometry
from repro.core import Campaign, CampaignScale, WORST_CASE

SCALE = CampaignScale(BankGeometry(subarrays=4, rows_per_subarray=64, columns=128))


@pytest.fixture
def campaign():
    return Campaign(scale=SCALE)


def test_one_record_per_subarray(campaign):
    records = campaign.characterize_module("S0", WORST_CASE, intervals=(16.0,))
    assert len(records) == 4
    assert {r.subarray for r in records} == {0, 1, 2, 3}


def test_record_fields(campaign):
    record = campaign.characterize_module("M8", WORST_CASE, intervals=(16.0,))[0]
    assert record.serial == "M8"
    assert record.manufacturer == "Micron"
    assert record.die_label == "16Gb-F"
    assert record.cells == 64 * 128
    assert record.cd_flips[16.0] >= record.cd_rows[16.0]
    assert 0.0 <= record.cd_fraction(16.0) <= 1.0
    assert record.ret_fraction(16.0) <= record.cd_fraction(16.0)


def test_subarray_limit():
    scale = CampaignScale(SCALE.geometry, subarrays=2)
    records = Campaign(scale=scale).characterize_module(
        "S0", WORST_CASE, intervals=()
    )
    assert len(records) == 2


def test_multiple_chips_and_banks():
    scale = CampaignScale(SCALE.geometry, chips=2, banks=2)
    records = Campaign(scale=scale).characterize_module(
        "S0", WORST_CASE, intervals=()
    )
    assert len(records) == 2 * 2 * 4
    assert {(r.chip, r.bank) for r in records} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }


def test_characterize_modules_concatenates(campaign):
    records = campaign.characterize_modules(("S0", "H0"), WORST_CASE)
    assert {r.serial for r in records} == {"S0", "H0"}
    assert len(records) == 8


def test_records_deterministic(campaign):
    a = campaign.characterize_module("S4", WORST_CASE, intervals=(1.0,))
    b = Campaign(scale=SCALE).characterize_module(
        "S4", WORST_CASE, intervals=(1.0,)
    )
    assert [r.cd_flips for r in a] == [r.cd_flips for r in b]
    assert [r.time_to_first for r in a] == [r.time_to_first for r in b]


def test_hbm2_module_campaign(campaign):
    """The HBM2 stack runs through the same campaign machinery (Fig. 12)."""
    records = campaign.characterize_module("HBM0", WORST_CASE,
                                           intervals=(1.0, 4.0))
    assert len(records) == 4
    assert all(r.manufacturer == "Samsung" for r in records)
    total_cd = sum(r.cd_flips[4.0] for r in records)
    total_ret = sum(r.ret_flips[4.0] for r in records)
    assert total_cd > total_ret > 0
