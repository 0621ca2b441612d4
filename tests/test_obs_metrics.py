"""Metrics registry: counters, gauges, histograms, labels, and thread
safety of the sharded hot path."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_disabled_counter_does_not_move():
    reg = MetricsRegistry()
    counter = reg.counter("c_total", "help")
    counter.inc()
    counter.inc(10)
    assert counter.value == 0.0


def test_enabled_counter_accumulates():
    reg = MetricsRegistry()
    counter = reg.counter("c_total", "help")
    obs.enable()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    counter = reg.counter("c_total")
    obs.enable()
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("same_total", "first registration wins", ("x",))
    b = reg.counter("same_total", "ignored on re-registration", ("x",))
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("same_total", labelnames=("x",))  # same name, other type
    with pytest.raises(ValueError):
        reg.counter("same_total")  # same name, other labelnames


def test_labeled_children_are_independent_and_cached():
    reg = MetricsRegistry()
    fam = reg.counter("req_total", "", ("kind",))
    obs.enable()
    fam.labels(kind="a").inc(2)
    fam.labels(kind="b").inc(5)
    assert fam.labels(kind="a") is fam.labels(kind="a")
    assert fam.labels(kind="a").value == 2
    assert fam.labels(kind="b").value == 5


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("g")
    obs.enable()
    g.set(10)
    g.inc(5)
    g.labels().dec(2)
    assert g.value == 13


def test_histogram_buckets_and_sum():
    reg = MetricsRegistry()
    h = reg.histogram("h_seconds", buckets=(1.0, 10.0)).labels()
    obs.enable()
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    cumulative = dict(h.cumulative_buckets())
    assert cumulative[1.0] == 1
    assert cumulative[10.0] == 2
    assert cumulative[float("inf")] == 3
    assert h.sum == pytest.approx(55.5)
    assert h.count == 3


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_reset_keeps_prebound_children_valid():
    reg = MetricsRegistry()
    child = reg.counter("c_total", "", ("k",)).labels(k="x")
    obs.enable()
    child.inc(7)
    reg.reset()
    assert child.value == 0
    child.inc(2)
    assert child.value == 2


def _hammer_counter(counter, n):
    for _ in range(n):
        counter.inc()


def test_one_counter_from_eight_threads():
    """The concurrency acceptance: 8 threads all bump one counter; the
    merged total is exact."""
    obs.enable()
    counter = obs.counter("concurrency_total")
    per_thread = 10_000

    threads = [
        threading.Thread(target=_hammer_counter, args=(counter, per_thread))
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert counter.value == 8 * per_thread


def test_snapshot_is_json_clean():
    import json

    reg = MetricsRegistry()
    obs.enable()
    reg.counter("c_total", "with label", ("k",)).labels(k="v").inc()
    reg.histogram("h_seconds").observe(0.2)
    encoded = json.dumps(reg.snapshot())
    decoded = json.loads(encoded)
    assert {f["name"] for f in decoded["metrics"]} == {"c_total", "h_seconds"}
