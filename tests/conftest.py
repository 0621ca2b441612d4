"""Shared fixtures: small, fast geometries, representative modules, span
capture and CPU confinement; and the NumPy build in the report header."""

from __future__ import annotations

import os

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from repro import obs
from repro.chip import BankGeometry, SimulatedModule, get_module


def pytest_report_header(config):
    """The NumPy version and SIMD kernels the run uses: the golden digests
    hash raw float bytes, and NumPy picks its ``exp``/``log``/``expm1``
    kernels at run time, so a golden failure in a CI log names its
    bit-identity domain."""
    features = _multiarray_umath.__cpu_features__
    found = [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]
    baseline = " ".join(_multiarray_umath.__cpu_baseline__) or "none"
    return (
        f"numpy {np.__version__}: SIMD baseline {baseline}; "
        f"dispatched {' '.join(found) or 'none'}"
    )


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
