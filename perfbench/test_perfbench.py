"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402


def span(span_id, parent_id, start, end, layer="bench", name=None):
    return {
        "name": name or span_id,
        "layer": layer,
        "trace_id": "t" * 32,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_unix": float(start),
        "duration_s": float(end - start),
    }


# ---------------------------------------------------------------------------
# Self time and wall share with overlapping pool-thread children
# ---------------------------------------------------------------------------
def pool_trace():
    """A call [0, 10] whose two pool threads run units [1, 5] and [3, 8];
    the first unit has a child [2, 4]."""
    return [
        span("root", None, 0, 10, "bench"),
        span("unit-a", "root", 1, 5, "core.engine"),
        span("unit-b", "root", 3, 8, "core.engine"),
        span("cells", "unit-a", 2, 4, "chip.cells"),
    ]


def test_union_of_overlapping_children():
    assert tracer.union_length([(1, 5), (3, 8)]) == 7
    assert tracer.union_length([(3, 8), (1, 5), (9, 10)]) == 8
    assert tracer.union_length([]) == 0


def test_self_time_subtracts_union_not_sum_of_overlapping_children():
    selfs = tracer.self_times(pool_trace())
    # Children cover [1, 8]: 7 s of the root's 10, although they sum to 9.
    assert selfs["root"] == pytest.approx(3.0)
    assert selfs["unit-a"] == pytest.approx(2.0)
    assert selfs["unit-b"] == pytest.approx(5.0)
    assert selfs["cells"] == pytest.approx(2.0)


def test_wall_share_splits_instants_among_innermost_spans():
    shares = tracer.wall_attribution(pool_trace(), (0.0, 10.0))
    # [0,1] root; [1,2] a; [2,3] cells; [3,4] cells|b; [4,5] a|b; [5,8] b;
    # [8,10] root.
    assert shares["bench"] == pytest.approx(3.0)
    assert shares["core.engine"] == pytest.approx(1 + 0.5 + 0.5 + 0.5 + 3)
    assert shares["chip.cells"] == pytest.approx(1.5)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_wall_share_counts_untraced_gaps():
    records = [span("a", None, 1, 4, "sim")]
    shares = tracer.wall_attribution(records, (0.0, 5.0))
    assert shares == {"(untraced)": pytest.approx(2.0), "sim": pytest.approx(3.0)}


def test_layer_table_busy_time_exceeds_wall_under_parallelism():
    table = tracer.layer_table(pool_trace(), (0.0, 10.0))
    assert table["layers"]["core.engine"]["self_s"] == pytest.approx(7.0)
    assert table["layers"]["core.engine"]["spans"] == 2
    assert table["share_sum"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The 5 % share-sum check
# ---------------------------------------------------------------------------
def test_share_sum_check_tolerance():
    assert harness.share_sum_ok(1.0)
    assert harness.share_sum_ok(0.951)
    assert harness.share_sum_ok(1.049)
    assert not harness.share_sum_ok(0.94)
    assert not harness.share_sum_ok(1.06)


def test_share_sum_fails_when_spans_miss_part_of_the_wall():
    records = [span("root", None, 0, 9, "bench")]
    table = tracer.layer_table(records, (0.0, 10.0))
    assert table["share_sum"] == pytest.approx(0.9)
    assert not harness.share_sum_ok(table["share_sum"])


# ---------------------------------------------------------------------------
# Percentiles and the tail rule
# ---------------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    values = [1.0, 2.0, 3.0, 4.0]
    assert harness.percentile(values, 50) == pytest.approx(2.5)
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 100) == 4.0
    assert harness.percentile(list(range(101)), 99) == pytest.approx(99.0)


@pytest.mark.parametrize(
    "count, expected",
    [(10000, 99.9), (1000, 99.0), (999, 98.0), (500, 98.0), (200, 95.0),
     (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------
def test_refused_request_counts_as_failed_once():
    tally = harness.Tally()
    tally.attempt(10)
    tally.fail(3, "request 3: http 429")
    tally.fail(3, "request 3 also failed its check")
    assert tally.failed == 1
    assert tally.failed_share == pytest.approx(0.1)


def test_failed_request_misses_every_latency_bound():
    ok = [0.010] * 989
    summary = harness.latency_summary(ok, failed=11)
    assert summary["n"] == 1000
    assert summary["tail_q"] == 99.0
    # Eleven failures lie beyond the p99 rank: the tail is missed.
    assert math.isinf(summary["tail_ms"])
    assert summary["p50_ms"] == pytest.approx(10.0)
    assert harness.latency_summary(ok, failed=0)["tail_ms"] == pytest.approx(10.0)


def test_result_line_has_exactly_four_keys():
    line = json.loads(
        harness.emit(True, 5, 1, {"ops_per_s": (2.5, "1/s"), "op_p50_ms": (math.inf, "ms")})
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["ops_per_s"] == {"value": 2.5, "unit": "1/s"}
    assert line["metrics"]["op_p50_ms"]["value"] is None


# ---------------------------------------------------------------------------
# Repeats and host-speed normalization
# ---------------------------------------------------------------------------
def test_best_of_repeats_sums_each_inputs_fastest_repeat():
    rate, best_median = harness.best_of_repeats(
        ["a", "b", "a", "b"], [2.0, 4.0, 1.0, 5.0], [10, 20, 10, 20]
    )
    assert rate == pytest.approx(30 / (1.0 + 4.0))
    assert best_median == pytest.approx(2.5)


def test_repeat_order_runs_every_input_once_per_pass():
    import random

    order = harness.repeat_order(random.Random(1), 5, 3)
    assert len(order) == 15
    assert all(sorted(order[i : i + 5]) == list(range(5)) for i in (0, 5, 10))


def test_host_normalized_scales_by_the_probes_around_each_op():
    reference = harness.PROBE_REFERENCE_S
    probes = [reference, 2 * reference, reference]
    assert harness.host_normalized([1.0, 3.0], probes) == pytest.approx(
        [1.0 / 1.5, 3.0 / 1.5]
    )


def test_op_count_depends_on_run_length_only():
    assert harness.op_count(20, 0.6, multiple=8) == 16
    assert harness.op_count(20, 2.0, multiple=20) == 40
    assert harness.op_count(0.1, 2.0, multiple=20) == 20


# ---------------------------------------------------------------------------
# BENCHMARK.json and the catalog agree
# ---------------------------------------------------------------------------
def test_benchmark_json_lists_the_catalog():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        catalog.END_TO_END
    )
    assert [m["name"] for m in spec["per_layer"]] == list(catalog.PER_LAYER)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better) in catalog.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == ["serve", "campaign", "fleet", "memsys"]
