"""Golden pin of outcome cache keys: every stored entry stays addressable.

A disk entry is found by its key alone, so a key that moves strands every
entry written under the old one.  These digests were recorded while
`outcome_cache_key` still hashed ``dataclasses.astuple`` of the profile and
the config.  They cover the engine's work units of every catalog module
under three conditions, and the instances of a small fleet campaign.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.chip import CATALOG
from repro.core import QUICK_SCALE, WORST_CASE, plan_units
from repro.fleet import FleetSpec
from repro.fleet.scenario import scenario_config

CONFIGS = {
    "worst-case": WORST_CASE,
    "at-45.25C": WORST_CASE.at_temperature(45.25),
    "two-aggressor": scenario_config("two-aggressor", 85.0),
}

UNIT_KEY_DIGESTS = {
    "worst-case": "5c50a9ff595122e2a4b018d74725dc1f999fff636a6734656467cd30d658984c",
    "at-45.25C": "7aef538c933284d12cc66a8a04d059925f716b527aef776b4232ae6821d2321e",
    "two-aggressor": "5a46ec37aab4fff5b30002901059d5183912d03d85da4807b1be223a5fc50eb6",
}
FLEET_KEY_DIGEST = "e48f0f22cd5f2ffd44fb38fbbc5a5b4703008c9e51f3889246d928ade619239a"


def keys_digest(keys) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_unit_keys_are_pinned(name):
    units = plan_units(tuple(sorted(CATALOG)), CONFIGS[name], QUICK_SCALE)
    assert len({unit.serial for unit in units}) == len(CATALOG) == 29
    assert keys_digest(unit.cache_key() for unit in units) == UNIT_KEY_DIGESTS[name]


def test_fleet_instance_keys_are_pinned():
    spec = FleetSpec(modules=8, seed=3)
    keys = [instance.cache_key() for instance in spec.instances()]
    assert len(set(keys)) == 8
    assert keys_digest(keys) == FLEET_KEY_DIGEST


def shallow(value) -> tuple:
    return tuple(getattr(value, field.name) for field in dataclasses.fields(value))


def test_hashed_fields_equal_astuple():
    """Keys hash each dataclass's field values as they stand, which is
    ``dataclasses.astuple`` only while every hashed dataclass is flat."""
    for serial, spec in CATALOG.items():
        assert shallow(spec.profile) == dataclasses.astuple(spec.profile), serial
    for name, config in CONFIGS.items():
        assert shallow(config) == dataclasses.astuple(config), name
