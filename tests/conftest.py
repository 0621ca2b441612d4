"""Shared fixtures: small, fast geometries, representative modules, span
capture and CPU confinement."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.chip import BankGeometry, SimulatedModule, get_module


@pytest.fixture
def spans():
    """Observability on for one test; returns a lookup of the finished
    spans with a given name, oldest first."""
    obs.enable()
    obs.reset()
    yield lambda name: [s for s in obs.finished_spans() if s["name"] == name]
    obs.disable()
    obs.reset()


@pytest.fixture
def confine(monkeypatch):
    """``confine(cpus)`` gives this process an affinity mask of ``cpus``
    CPUs for one test, as ``taskset`` or a cpuset-limited container would."""

    def apply(cpus: int) -> None:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )

    return apply


@pytest.fixture
def tiny_geometry() -> BankGeometry:
    """4 subarrays x 32 rows x 64 columns — fast unit-test silicon."""
    return BankGeometry(subarrays=4, rows_per_subarray=32, columns=64)


@pytest.fixture
def small_geometry() -> BankGeometry:
    """4 subarrays x 64 rows x 256 columns — integration-test silicon."""
    return BankGeometry(subarrays=4, rows_per_subarray=64, columns=256)


@pytest.fixture
def s0_module(small_geometry) -> SimulatedModule:
    """Samsung 16Gb A-die (the paper's representative module)."""
    return SimulatedModule(get_module("S0"), geometry=small_geometry)


@pytest.fixture
def m8_module(small_geometry) -> SimulatedModule:
    """Micron 16Gb F-die (the most ColumnDisturb-vulnerable module)."""
    return SimulatedModule(get_module("M8"), geometry=small_geometry)


@pytest.fixture
def h0_module(small_geometry) -> SimulatedModule:
    """SK Hynix 8Gb A-die (the least vulnerable die generation)."""
    return SimulatedModule(get_module("H0"), geometry=small_geometry)
