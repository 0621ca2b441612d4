"""Fleet sampling and campaigns: determinism, resume identity, Ctrl-C.

Three contracts anchor this file:

* instance ``i`` is a pure function of ``(seed, i)`` — never of chunking,
  sharding, worker count, or which other indices were sampled;
* any interrupted campaign resumed from any of its checkpoints produces
  aggregator state bit-identical to a never-interrupted run;
* SIGINT to a real ``repro fleet-risk`` subprocess flushes a checkpoint
  and exits 130 (the CLI contract the serving tier and CI rely on).
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.chip.timing import T_AGG_ON_DEFAULT
from repro.fleet import FleetCampaign, FleetSpec
from repro.fleet.aggregate import CheckpointStore
from repro.fleet.campaign import characterize_instance
from repro.fleet.scenario import MIXED_POOL, scenario_config

#: Small geometry so every campaign in this file runs in milliseconds.
SPEC_KWARGS = dict(modules=48, seed=3, rows=32, columns=64, intervals=(1.0, 16.0))


def _state_json(campaign: FleetCampaign) -> str:
    return json.dumps(campaign.live_state(), sort_keys=True)


class _StopAfterChunks(threading.Event):
    """A stop event that trips deterministically after N chunk checks."""

    def __init__(self, chunks: int) -> None:
        super().__init__()
        self._remaining = chunks

    def is_set(self) -> bool:
        self._remaining -= 1
        return self._remaining < 0


# ---------------------------------------------------------------------------
# Sampling determinism
# ---------------------------------------------------------------------------


def test_instance_is_pure_function_of_seed_and_index():
    spec = FleetSpec(**SPEC_KWARGS)
    again = FleetSpec(**SPEC_KWARGS)
    assert spec.instance(7) == again.instance(7)
    assert spec.instance(7) != spec.instance(8)


def test_instance_independent_of_offset_and_module_count():
    spec = FleetSpec(**SPEC_KWARGS)
    shifted = FleetSpec(**{**SPEC_KWARGS, "modules": 200, "offset": 40})
    assert spec.instance(41) == shifted.instance(41)


def test_seed_changes_the_sampled_fleet():
    spec = FleetSpec(**SPEC_KWARGS)
    reseeded = FleetSpec(**{**SPEC_KWARGS, "seed": 4})
    assert spec.instance(0) != reseeded.instance(0)
    assert spec.digest() != reseeded.digest()


def test_scenario_axes_are_distinct_configs():
    base = scenario_config("worst-case", 85.0)
    two = scenario_config("two-aggressor", 85.0)
    press = scenario_config("press", 85.0)
    assert two.second_aggressor_pattern == 0x00
    assert two.second_aggressor_pattern != base.second_aggressor_pattern
    assert press.t_agg_on == pytest.approx(8 * T_AGG_ON_DEFAULT)
    assert press.t_agg_on > base.t_agg_on


def test_mixed_scenario_samples_the_whole_pool():
    spec = FleetSpec(**{**SPEC_KWARGS, "modules": 96, "scenario": "mixed"})
    sampled = {instance.scenario for instance in spec.instances()}
    assert sampled == set(MIXED_POOL)


def test_per_die_variation_perturbs_profiles_and_keeps_invariants():
    spec = FleetSpec(**SPEC_KWARGS)
    frozen = FleetSpec(
        **{**SPEC_KWARGS, "sigma_retention_die": 0.0, "sigma_kappa_die": 0.0}
    )
    varied = [spec.instance(i) for i in range(16)]
    retentions = {inst.profile.median_retention for inst in varied}
    assert len(retentions) > 1, "lognormal variation must move retention"
    for instance in varied:
        assert instance.profile.kappa_cap > instance.profile.median_kappa
    for instance in (frozen.instance(i) for i in range(16)):
        assert instance.retention_mult == 1.0
        assert instance.kappa_mult == 1.0


def test_instances_have_distinct_cache_keys():
    spec = FleetSpec(**SPEC_KWARGS)
    keys = {spec.instance(i).cache_key() for i in range(32)}
    assert len(keys) == 32


@pytest.mark.parametrize(
    "kwargs",
    [
        {"modules": 0},
        {"offset": -1},
        {"scenario": "rowclone"},
        {"serials": ("NOPE",)},
        {"intervals": (4.0, 1.0)},
        {"intervals": ()},
        {"rows": 4},
        {"columns": 2},
        {"sigma_retention_die": -0.1},
        {"temperature_c": 400.0},
    ],
)
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        FleetSpec(**{**SPEC_KWARGS, **kwargs})


# ---------------------------------------------------------------------------
# Campaign identity: workers, shards, checkpoints
# ---------------------------------------------------------------------------


def test_thread_pool_width_never_changes_the_aggregate():
    spec = FleetSpec(**SPEC_KWARGS)
    serial = FleetCampaign(spec=spec, chunk=7)
    threaded = FleetCampaign(spec=spec, workers=3, chunk=5)
    assert serial.run().complete and threaded.run().complete
    assert _state_json(serial) == _state_json(threaded)


def test_offset_shards_merge_to_the_unsharded_state():
    spec = FleetSpec(**SPEC_KWARGS)
    whole = FleetCampaign(spec=spec)
    whole.run()
    low = FleetCampaign(spec=FleetSpec(**{**SPEC_KWARGS, "modules": 17}))
    high = FleetCampaign(
        spec=FleetSpec(**{**SPEC_KWARGS, "modules": 31, "offset": 17})
    )
    low.run()
    high.run()
    merged = low._aggregator
    merged.merge(high._aggregator)
    assert json.dumps(merged.state(), sort_keys=True) == json.dumps(
        whole._aggregator.state(), sort_keys=True
    )


def test_interrupted_campaign_resumes_bit_identically(tmp_path):
    spec = FleetSpec(**SPEC_KWARGS)
    baseline = FleetCampaign(spec=spec)
    baseline.run()

    stopped = FleetCampaign(
        spec=spec,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=8,
        chunk=8,
        stop_event=_StopAfterChunks(2),
    )
    partial = stopped.run()
    assert partial.interrupted and not partial.complete
    assert partial.modules_done == 16

    resumed = FleetCampaign(
        spec=spec, checkpoint_dir=str(tmp_path), checkpoint_every=8, chunk=8
    )
    result = resumed.run()
    assert result.complete
    assert result.resumed_from == spec.offset + 16
    assert _state_json(resumed) == _state_json(baseline)


def test_two_resumptions_from_different_checkpoints_converge(tmp_path):
    """Regression: resuming from checkpoint A and from later checkpoint B
    must reach the same final bytes — the cursor is sufficient state."""
    spec = FleetSpec(**SPEC_KWARGS)
    live = tmp_path / "live"
    early = tmp_path / "early"
    late = tmp_path / "late"

    FleetCampaign(
        spec=spec,
        checkpoint_dir=str(live),
        checkpoint_every=8,
        chunk=8,
        stop_event=_StopAfterChunks(1),
    ).run()
    shutil.copytree(live, early)
    FleetCampaign(
        spec=spec,
        checkpoint_dir=str(live),
        checkpoint_every=8,
        chunk=8,
        stop_event=_StopAfterChunks(2),
    ).run()
    shutil.copytree(live, late)

    from_early = FleetCampaign(spec=spec, checkpoint_dir=str(early), chunk=8)
    from_late = FleetCampaign(spec=spec, checkpoint_dir=str(late), chunk=8)
    result_early = from_early.run()
    result_late = from_late.run()
    assert result_early.resumed_from == spec.offset + 8
    assert result_late.resumed_from and result_late.resumed_from > spec.offset + 8
    assert _state_json(from_early) == _state_json(from_late)


def test_resume_ignores_a_checkpoint_from_a_different_spec(tmp_path):
    spec = FleetSpec(**SPEC_KWARGS)
    FleetCampaign(spec=spec, checkpoint_dir=str(tmp_path), checkpoint_every=8).run()
    reseeded = FleetSpec(**{**SPEC_KWARGS, "seed": 99})
    result = FleetCampaign(
        spec=reseeded, checkpoint_dir=str(tmp_path), checkpoint_every=8
    ).run()
    assert result.resumed_from is None


@pytest.mark.parametrize("damage", ("state-format", "missing-zeros"))
def test_resume_restarts_from_a_checkpoint_it_cannot_rebuild(tmp_path, damage):
    """A checkpoint with the current format and spec digest whose
    aggregator state this build cannot rebuild is not resumable: the
    campaign restarts, as for a format or spec mismatch, and ends where an
    uninterrupted run does."""
    spec = FleetSpec(**{**SPEC_KWARGS, "modules": 16, "seed": 6})
    baseline = FleetCampaign(spec=spec).run()
    FleetCampaign(spec=spec, checkpoint_dir=str(tmp_path), checkpoint_every=8).run()
    store = CheckpointStore(tmp_path)
    payload = store.latest()
    if damage == "state-format":
        payload["aggregator"]["format"] = 2
    else:
        del payload["aggregator"]["zeros"]
    store.save(payload, payload["next_index"])

    result = FleetCampaign(
        spec=spec, checkpoint_dir=str(tmp_path), checkpoint_every=8
    ).run()
    assert result.complete
    assert result.resumed_from is None
    restarted, uninterrupted = result.snapshot(), baseline.snapshot()
    del restarted["wall_s"], uninterrupted["wall_s"]
    assert restarted == uninterrupted


def test_checkpoint_store_skips_corrupt_newest(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    store.save({"cursor": 1}, 1)
    store.save({"cursor": 2}, 2)
    newest = sorted(tmp_path.glob("checkpoint-*.json"))[-1]
    newest.write_text("{ truncated mid-wri")
    assert store.latest() == {"cursor": 1}


def test_checkpoint_store_never_prunes_the_record_it_wrote(tmp_path):
    (tmp_path / "checkpoint-000000000200.json").write_text("{ truncated mid-wri")
    store = CheckpointStore(tmp_path, keep=1)
    path = store.save({"cursor": 100}, 100)
    assert sorted(tmp_path.iterdir()) == [path]
    assert store.latest() == {"cursor": 100}


def test_reused_checkpoint_dir_keeps_the_new_runs_checkpoints(tmp_path):
    earlier = FleetSpec(**{**SPEC_KWARGS, "modules": 64})
    FleetCampaign(spec=earlier, checkpoint_dir=str(tmp_path), checkpoint_every=32).run()
    assert len(list(tmp_path.glob("checkpoint-*.json"))) == 2
    spec = FleetSpec(**{**SPEC_KWARGS, "modules": 16, "seed": 6})
    FleetCampaign(spec=spec, checkpoint_dir=str(tmp_path), checkpoint_every=4).run()
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint-000000000016.json"]
    rerun = FleetCampaign(spec=spec, checkpoint_dir=str(tmp_path), checkpoint_every=4)
    result = rerun.run()
    assert result.resumed_from == spec.offset + 16
    assert result.cache_misses == 0


def _raise_one_count(path: Path) -> None:
    """Add one module to a histogram bin of a checkpoint file, in place."""
    data = path.read_bytes()
    pair = re.compile(rb"\[(\d+), ?(\d+)\]").search(data, data.index(b'"counts"'))
    raised = b"[%s,%d]" % (pair[1], int(pair[2]) + 1)
    path.write_bytes(data[: pair.start()] + raised + data[pair.end() :])


UNTRUSTED_CHECKPOINTS = {
    "raised count": _raise_one_count,
    "[1]": lambda path: path.write_text("[1]"),
    "[]": lambda path: path.write_text("[]"),
}


@pytest.mark.parametrize("older", [True, False], ids=["older-valid", "none-left"])
@pytest.mark.parametrize("corruption", list(UNTRUSTED_CHECKPOINTS))
def test_untrusted_newest_checkpoint_is_quarantined(tmp_path, corruption, older):
    """The campaign resumes from the older valid checkpoint, or from the
    start if none is left, and ends where an uninterrupted run does."""
    spec = FleetSpec(**SPEC_KWARGS)
    baseline = FleetCampaign(spec=spec)
    expected = baseline.run().snapshot()
    FleetCampaign(
        spec=spec,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=8,
        chunk=8,
        stop_event=_StopAfterChunks(2 if older else 1),
    ).run()
    newest = sorted(tmp_path.glob("checkpoint-*.json"))[-1]
    UNTRUSTED_CHECKPOINTS[corruption](newest)

    resumed = FleetCampaign(spec=spec, checkpoint_dir=str(tmp_path), chunk=8)
    result = resumed.run()
    assert result.resumed_from == (spec.offset + 8 if older else None)
    assert newest.with_suffix(".bad").exists()
    assert _state_json(resumed) == _state_json(baseline)
    assert result.snapshot()["intervals"] == expected["intervals"]


def test_cache_makes_reruns_hits_without_changing_state(tmp_path):
    from repro.core import OutcomeCache

    spec = FleetSpec(**SPEC_KWARGS)
    cold = FleetCampaign(spec=spec, cache=OutcomeCache(str(tmp_path)))
    warm = FleetCampaign(spec=spec, cache=OutcomeCache(str(tmp_path)))
    first = cold.run()
    second = warm.run()
    assert first.cache_misses == spec.modules and first.cache_hits == 0
    assert second.cache_hits == spec.modules and second.cache_misses == 0
    assert _state_json(cold) == _state_json(warm)


@pytest.mark.parametrize("chunk", [5, 7])
@pytest.mark.parametrize("workers", [0, 2, 3])
def test_partly_cached_range_matches_cache_free_run(tmp_path, workers, chunk):
    from repro.core import OutcomeCache

    spec = FleetSpec(**SPEC_KWARGS)
    reference = FleetCampaign(spec=spec)
    reference.run()
    seeded = tmp_path / "seeded"
    cached = random.Random(f"half-{workers}-{chunk}").sample(
        range(spec.offset, spec.offset + spec.modules), spec.modules // 2
    )
    seeder = OutcomeCache(str(seeded))
    for index in cached:
        instance = spec.instance(index)
        seeder.put(instance.cache_key(), characterize_instance(instance, spec.horizon))

    cache = OutcomeCache(str(seeded))
    campaign = FleetCampaign(spec=spec, cache=cache, workers=workers, chunk=chunk)
    result = campaign.run()
    assert _state_json(campaign) == _state_json(reference)
    assert result.cache_hits == len(cached)
    assert result.cache_misses == spec.modules - len(cached)
    assert cache.stats["disk_hits"] == len(cached)
    assert cache.stats["disk_entries"] == spec.modules


def test_all_hit_pass_submits_no_pool_task(tmp_path, monkeypatch):
    from repro.core import OutcomeCache
    from repro.fleet import campaign as campaign_module

    spec = FleetSpec(**SPEC_KWARGS)
    cold = FleetCampaign(spec=spec, cache=OutcomeCache(str(tmp_path)), workers=2)
    cold.run()

    calls = {"characterize": 0, "submit": 0}
    characterize = campaign_module.characterize_instance
    submit = ThreadPoolExecutor.submit

    def counting_characterize(*args, **kwargs):
        calls["characterize"] += 1
        return characterize(*args, **kwargs)

    def counting_submit(self, *args, **kwargs):
        calls["submit"] += 1
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(campaign_module, "characterize_instance", counting_characterize)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    warm = FleetCampaign(spec=spec, cache=OutcomeCache(str(tmp_path)), workers=2)
    result = warm.run()
    assert calls == {"characterize": 0, "submit": 0}
    assert result.cache_hits == spec.modules and result.cache_misses == 0
    assert _state_json(warm) == _state_json(cold)


# ---------------------------------------------------------------------------
# The CLI Ctrl-C contract, against a real subprocess
# ---------------------------------------------------------------------------


def test_cli_sigint_flushes_checkpoint_and_exits_130(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    checkpoint_dir = tmp_path / "checkpoints"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "fleet-risk",
            "--modules",
            "200000",
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--checkpoint-every",
            "64",
            "--rows",
            "32",
            "--columns",
            "64",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 120.0
    try:
        while not list(checkpoint_dir.glob("checkpoint-*.json")):
            assert process.poll() is None, "campaign died before checkpointing"
            assert time.monotonic() < deadline, "no checkpoint within 120 s"
            time.sleep(0.02)
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode == 130, stderr
    assert "interrupted" in stderr
    assert "checkpoint flushed" in stderr
    newest = sorted(checkpoint_dir.glob("checkpoint-*.json"))[-1]
    payload = CheckpointStore(checkpoint_dir).load(newest)
    assert payload is not None
    assert not list(checkpoint_dir.glob("*.bad"))
    assert payload["next_index"] >= 64
    assert payload["aggregator"]["modules"] == payload["next_index"]
