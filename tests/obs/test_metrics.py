"""Unit tests for the metrics registry (repro.obs.metrics).

The property-based half lives in ``test_metrics_properties.py``; this file
pins the exact exposition formats and the API's failure modes.
"""

import json

import pytest

from repro.obs.metrics import (
    REGISTRY,
    CardinalityError,
    MetricError,
    MetricsRegistry,
)


@pytest.fixture
def reg():
    return MetricsRegistry(enabled=True)


# -- counters / gauges -------------------------------------------------------

def test_counter_increments_and_reads_back(reg):
    c = reg.counter("repro_test_total", "help")
    assert c.value == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_negative_increment(reg):
    c = reg.counter("repro_test_total")
    with pytest.raises(MetricError):
        c.inc(-1)
    assert c.value == 0.0


def test_gauge_moves_both_ways(reg):
    g = reg.gauge("repro_test_level")
    g.set(4)
    g.inc()
    g.dec(2.0)
    assert g.value == 3.0


def test_labelled_series_are_independent(reg):
    c = reg.counter("repro_test_total", labels=("engine",))
    c.labels(engine="event").inc(2)
    c.labels(engine="batch").inc(5)
    assert c.labels(engine="event").value == 2
    assert c.labels(engine="batch").value == 5


def test_wrong_label_set_rejected(reg):
    c = reg.counter("repro_test_total", labels=("engine",))
    with pytest.raises(MetricError):
        c.labels(motor="event")
    with pytest.raises(MetricError):
        c.labels()  # label-less shorthand invalid on a labelled metric
    with pytest.raises(MetricError):
        c.labels(engine="event", extra="x")


# -- registration ------------------------------------------------------------

def test_registration_is_idempotent(reg):
    a = reg.counter("repro_test_total", "help")
    b = reg.counter("repro_test_total", "different help ignored")
    assert a is b


def test_type_clash_rejected(reg):
    reg.counter("repro_test_total")
    with pytest.raises(MetricError):
        reg.gauge("repro_test_total")


def test_label_clash_rejected(reg):
    reg.counter("repro_test_total", labels=("engine",))
    with pytest.raises(MetricError):
        reg.counter("repro_test_total", labels=("scheme",))


def test_invalid_names_rejected(reg):
    with pytest.raises(MetricError):
        reg.counter("0starts_with_digit")
    with pytest.raises(MetricError):
        reg.counter("has space")
    with pytest.raises(MetricError):
        reg.counter("repro_ok_total", labels=("0bad",))


def test_histogram_bucket_validation(reg):
    with pytest.raises(MetricError):
        reg.histogram("repro_h_seconds", buckets=())
    with pytest.raises(MetricError):
        reg.histogram("repro_h_seconds", buckets=(1.0, 1.0, 2.0))
    with pytest.raises(MetricError):
        reg.histogram("repro_h_seconds", buckets=(2.0, 1.0))


def test_cardinality_cap_is_a_typed_error():
    reg = MetricsRegistry(enabled=True, max_label_sets=2)
    c = reg.counter("repro_test_total", labels=("k",))
    c.labels(k="a").inc()
    c.labels(k="b").inc()
    with pytest.raises(CardinalityError):
        c.labels(k="c")
    # existing series still usable after the rejection
    c.labels(k="a").inc()
    assert c.labels(k="a").value == 2


# -- lifecycle ---------------------------------------------------------------

def test_enable_disable_reset(reg):
    assert reg.enabled
    reg.disable()
    assert not reg.enabled
    reg.enable()
    reg.counter("repro_test_total").inc()
    reg.reset()
    assert reg.get("repro_test_total") is None
    assert reg.expose_text() == ""


def test_global_registry_disabled_by_default():
    # The zero-overhead contract: instrumented sites all gate on this flag,
    # and the process-wide default must start off.
    assert isinstance(REGISTRY, MetricsRegistry)
    assert REGISTRY.enabled is False


# -- exposition --------------------------------------------------------------

def test_expose_text_counter_and_gauge(reg):
    reg.counter("repro_runs_total", "Total runs").inc(3)
    reg.gauge("repro_groups", "Installed groups", labels=("level",)) \
        .labels(level="l2").set(4)
    text = reg.expose_text()
    assert "# HELP repro_runs_total Total runs\n" in text
    assert "# TYPE repro_runs_total counter\n" in text
    assert "repro_runs_total 3\n" in text
    assert "# TYPE repro_groups gauge\n" in text
    assert 'repro_groups{level="l2"} 4\n' in text
    assert text.endswith("\n")


def test_expose_text_histogram_cumulative(reg):
    h = reg.histogram("repro_run_seconds", "Run wall clock",
                      buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    text = reg.expose_text()
    assert 'repro_run_seconds_bucket{le="0.1"} 1\n' in text
    assert 'repro_run_seconds_bucket{le="1.0"} 3\n' in text
    assert 'repro_run_seconds_bucket{le="10.0"} 4\n' in text
    assert 'repro_run_seconds_bucket{le="+Inf"} 5\n' in text
    assert "repro_run_seconds_sum 56.05\n" in text
    assert "repro_run_seconds_count 5\n" in text


def test_expose_text_escapes_label_values(reg):
    c = reg.counter("repro_test_total", labels=("name",))
    c.labels(name='quo"te\\back\nline').inc()
    text = reg.expose_text()
    assert 'name="quo\\"te\\\\back\\nline"' in text


def test_boundary_value_lands_in_its_bucket(reg):
    # le semantics: an observation exactly on a boundary counts in that
    # bucket (v <= le), which is what bisect_left gives us.
    h = reg.histogram("repro_h_seconds", buckets=(1.0, 2.0))
    h.observe(1.0)
    text = reg.expose_text()
    assert 'repro_h_seconds_bucket{le="1.0"} 1\n' in text


def test_dump_json_round_trips(reg):
    reg.counter("repro_runs_total", "Total runs", labels=("engine",)) \
        .labels(engine="event").inc(2)
    reg.histogram("repro_run_seconds", buckets=(1.0,)).observe(0.5)
    dump = json.loads(json.dumps(reg.dump_json()))  # JSON-serialisable
    runs = dump["repro_runs_total"]
    assert runs["type"] == "counter"
    assert runs["series"] == [{"labels": {"engine": "event"}, "value": 2.0}]
    hist = dump["repro_run_seconds"]
    assert hist["series"][0]["count"] == 1
    assert hist["series"][0]["buckets"] == {"1.0": 1}


def test_instrumented_run_populates_expected_metrics():
    # End to end: a real (tiny) simulation under an enabled registry must
    # hit the engine/controller/hierarchy hook sites.
    from repro.config import TINY
    from repro.sim.experiment import run_scheme
    from repro.sim.workload import Workload
    from repro.workloads import MIXES

    REGISTRY.reset()
    REGISTRY.enable()
    try:
        run_scheme("morphcache", Workload.from_mix(MIXES[0]),
                   TINY.with_(epochs=3), seed=7)
    finally:
        REGISTRY.disable()
        text = REGISTRY.expose_text()
        REGISTRY.reset()
    assert 'repro_sim_runs_total{engine="batch"} 1' in text  # the default
    assert "repro_sim_epochs_total 4" in text  # 3 measured + 1 warmup
    assert "repro_topology_changes_total" in text
    assert "repro_batch_epochs_total" in text
