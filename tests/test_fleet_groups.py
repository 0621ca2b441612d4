"""Fleet instances characterized in block-sized groups.

A `FleetCampaign` hands its pool groups of missed instances, each drawn
into one stacked pair of arrays and evaluated in one pass
(`characterize_instances`).  A group must give every instance exactly the
summary it gives alone, field for field, whatever the scenario,
temperature, geometry, module interface and die profile of its members;
and a campaign's aggregate must not depend on how its misses were grouped:
not on the worker count, the chunk size, or where a resumed run picked up.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip.cells import CellPopulation
from repro.core.analytic import OutcomeSummary, SubarrayRole, disturb_outcome
from repro.fleet import FleetCampaign, FleetSpec
from repro.fleet import campaign as campaign_module
from repro.fleet.campaign import characterize_instance, characterize_instances
from repro.fleet.scenario import SCENARIO_NAMES
from repro.physics.profile import stack_size

#: A group of many tiny instances, odd shapes of several per group, the
#: default geometry (four per group), and 256 x 256 (a group of one).
SHAPES = ((18, 8), (19, 259), (64, 256), (23, 1001), (256, 256))
TEMPERATURES = (-40.0, 45.0, 85.0, 150.0)
#: DDR4 only, the HBM2 stack only, and both.
SERIALS = (("S0", "M8"), ("HBM0",), ("HBM0", "S4", "H1"))
#: Profiles no catalog die has: anti-cells (charge then depends on the
#: cell), no row or subarray variation, no coupling cap.
VARIANTS = (
    {},
    {"anti_cell_fraction": 0.3},
    {"row_sigma": 0.0},
    {"subarray_sigma": 0.0},
    {"kappa_cap": math.inf},
)


def assert_equal_summaries(actual: OutcomeSummary, expected: OutcomeSummary) -> None:
    """Field by field: type, and for arrays dtype, shape and bytes."""
    for field in dataclasses.fields(OutcomeSummary):
        want = getattr(expected, field.name)
        got = getattr(actual, field.name)
        assert type(got) is type(want), field.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


@st.composite
def groups(draw) -> tuple[list, float]:
    """A full or partial group of instances of one spec, some with varied
    profiles, and the spec's horizon."""
    rows, columns = draw(st.sampled_from(SHAPES))
    full = stack_size(rows, columns)
    size = draw(st.one_of(st.just(full), st.integers(1, full)))
    die_sigma = draw(st.sampled_from((0.0, 0.35)))
    spec = FleetSpec(
        modules=size,
        seed=draw(st.integers(0, 2**16)),
        offset=draw(st.integers(0, 10**6)),
        serials=draw(st.sampled_from(SERIALS)),
        scenario=draw(st.sampled_from(SCENARIO_NAMES)),
        temperature_c=draw(st.sampled_from(TEMPERATURES)),
        rows=rows,
        columns=columns,
        sigma_retention_die=die_sigma,
        sigma_kappa_die=die_sigma,
    )
    variants = random.Random(draw(st.integers(0, 2**16)))
    instances = []
    for index in range(spec.offset, spec.offset + size):
        instance = spec.instance(index)
        profile = dataclasses.replace(instance.profile, **variants.choice(VARIANTS))
        instances.append(dataclasses.replace(instance, profile=profile))
    return instances, spec.horizon


@given(groups())
@settings(max_examples=30, deadline=None)
def test_group_equals_each_instance_alone(group):
    instances, horizon = group
    grouped = characterize_instances(instances, horizon)
    assert len(grouped) == len(instances)
    for instance, summary in zip(instances, grouped):
        assert_equal_summaries(summary, characterize_instance(instance, horizon))


@given(groups())
@settings(max_examples=10, deadline=None)
def test_group_equals_the_per_cell_outcome(group):
    """Against the whole-array per-cell path, which cuts its events from
    full-size flip-time arrays instead of walking blocks."""
    instances, horizon = group
    for instance, summary in zip(instances, characterize_instances(instances, horizon)):
        population = CellPopulation(
            key=instance.population_key,
            profile=instance.profile,
            rows=instance.rows,
            columns=instance.columns,
        )
        outcome = disturb_outcome(
            population,
            instance.config,
            instance.timing,
            SubarrayRole.AGGRESSOR,
            instance.aggressor_local_row,
        )
        assert_equal_summaries(summary, outcome.summarize(horizon))


# ---------------------------------------------------------------------------
# Campaigns: the aggregate does not depend on the grouping
# ---------------------------------------------------------------------------

#: Many instances per group (32 x 64: 32 fill a block) and four per group.
CAMPAIGN_SPECS = (
    FleetSpec(modules=37, seed=9, scenario="mixed", rows=32, columns=64),
    FleetSpec(modules=37, seed=9, scenario="mixed", offset=1000),
)


def _state(campaign: FleetCampaign) -> str:
    return json.dumps(campaign.live_state(), sort_keys=True)


def _singles_state(spec: FleetSpec) -> str:
    """The aggregate of one instance at a time, in index order."""
    campaign = FleetCampaign(spec=spec, chunk=1)
    campaign.run()
    return _state(campaign)


def test_aggregate_is_independent_of_workers_and_chunk():
    for spec in CAMPAIGN_SPECS:
        reference = _singles_state(spec)
        for workers in range(4):
            for chunk in (1, 3, 32):
                campaign = FleetCampaign(spec=spec, workers=workers, chunk=chunk)
                result = campaign.run()
                assert result.complete
                assert _state(campaign) == reference, (spec.rows, workers, chunk)


class _StopAfterChunks(threading.Event):
    """A stop event that trips after N chunk checks."""

    def __init__(self, chunks: int) -> None:
        super().__init__()
        self._remaining = chunks

    def is_set(self) -> bool:
        self._remaining -= 1
        return self._remaining < 0


def test_resumed_run_equals_an_uninterrupted_one(tmp_path):
    for number, spec in enumerate(CAMPAIGN_SPECS):
        reference = _singles_state(spec)
        for workers, chunk, stop_after in ((0, 7, 2), (2, 5, 3), (3, 32, 1)):
            directory = str(tmp_path / f"{number}-{workers}-{chunk}")
            first = FleetCampaign(
                spec=spec,
                checkpoint_dir=directory,
                checkpoint_every=1,
                workers=workers,
                chunk=chunk,
                stop_event=_StopAfterChunks(stop_after),
            )
            stopped = first.run()
            assert stopped.interrupted
            assert 0 < stopped.modules_done < spec.modules
            second = FleetCampaign(
                spec=spec, checkpoint_dir=directory, workers=workers, chunk=chunk
            )
            resumed = second.run()
            assert resumed.resumed_from == spec.offset + stopped.modules_done
            assert resumed.complete
            assert _state(second) == reference


def test_misses_go_to_the_pool_in_block_sized_groups(monkeypatch):
    """Four 64 x 256 instances fill a block; a chunk of tiny instances is
    still split over the pool's threads, and no group spans a chunk."""
    sizes: list[int] = []
    characterize = campaign_module.characterize_instances

    def recording(instances, horizon):
        sizes.append(len(instances))
        return characterize(instances, horizon)

    monkeypatch.setattr(campaign_module, "characterize_instances", recording)
    FleetCampaign(spec=FleetSpec(modules=37, seed=2), workers=2, chunk=32).run()
    assert sizes == [4] * 8 + [2, 3]
    sizes.clear()
    FleetCampaign(spec=CAMPAIGN_SPECS[0], workers=2, chunk=32).run()
    assert sizes == [16, 16, 2, 3]
    sizes.clear()
    FleetCampaign(spec=CAMPAIGN_SPECS[0], workers=0, chunk=32).run()
    assert sizes == [32, 5]
