"""Unit tests for the telemetry metrics registry and its wire format."""

import json
import math

import pytest

from repro.errors import ConfigError
from repro.telemetry import metrics
from repro.telemetry.metrics import (
    DEFAULT,
    MetricsRegistry,
    merged_snapshot,
    prometheus_text,
    validate_snapshot,
)


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestInstruments:
    def test_counter_accumulates_per_label_set(self, registry):
        c = registry.counter("reqs_total", "requests")
        c.inc(backend="fast")
        c.inc(2, backend="fast")
        c.inc(backend="cycle")
        assert c.value(backend="fast") == 3
        assert c.value(backend="cycle") == 1
        assert c.value(backend="compiled") == 0

    def test_label_order_is_canonical(self, registry):
        c = registry.counter("c")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.value(a=1, b=2) == 2

    def test_gauge_overwrites(self, registry):
        g = registry.gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value() == 2
        assert g.value(lane="other") is None

    def test_get_or_create_returns_the_same_instrument(self, registry):
        assert registry.counter("c") is registry.counter("c")
        assert registry.get("c") is registry.counter("c")
        assert registry.get("missing") is None

    def test_kind_conflict_raises(self, registry):
        registry.counter("c")
        with pytest.raises(ConfigError, match="already registered"):
            registry.gauge("c")

    def test_disabled_registry_drops_everything(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("c")
        h = registry.histogram("h")
        c.inc(5)
        h.observe(1.0)
        assert c.value() == 0
        assert h.summary()["count"] == 0

    def test_reset_clears_instruments(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert registry.get("c") is None


class TestHistogram:
    def test_exact_percentiles_from_raw_samples(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for v in [0.01 * i for i in range(1, 101)]:
            h.observe(v)
        assert h.percentile(50) == pytest.approx(0.50)
        assert h.percentile(99) == pytest.approx(0.99)
        s = h.summary()
        assert s["count"] == 100
        assert s["max"] == pytest.approx(1.0)
        assert s["sum"] == pytest.approx(sum(0.01 * i
                                             for i in range(1, 101)))

    def test_empty_series_summary(self, registry):
        h = registry.histogram("lat")
        assert h.summary() == {"count": 0, "sum": 0.0, "p50": None,
                               "p99": None, "max": None}
        assert h.percentile(50) is None

    def test_bucket_counts_are_per_bucket_not_cumulative(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        (state,) = h.series().values()
        assert state.bucket_counts == [1, 1, 1]  # last bucket is +Inf

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ConfigError, match="sorted"):
            registry.histogram("bad", buckets=(2.0, 1.0))

    def test_sample_cap_degrades_gracefully(self, registry):
        h = registry.histogram("lat", sample_cap=10)
        for i in range(25):
            h.observe(float(i))
        (state,) = h.series().values()
        assert len(state.samples) == 10
        assert state.samples_dropped == 15
        assert state.count == 25

    def test_labelled_series_are_independent(self, registry):
        h = registry.histogram("lat")
        h.observe(1.0, path="cached")
        h.observe(9.0, path="computed")
        assert h.summary(path="cached")["max"] == 1.0
        assert h.summary(path="computed")["max"] == 9.0


class TestSnapshot:
    def test_snapshot_validates_and_serializes(self, registry):
        registry.counter("c", "help text").inc(3, kind="x")
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(0.02)
        snapshot = validate_snapshot(registry.snapshot())
        # must cross a strict (allow_nan=False) JSON wire untouched
        json.dumps(snapshot, allow_nan=False)
        assert snapshot["metrics"]["c"]["series"] == [
            {"labels": {"kind": "x"}, "value": 3}]

    def test_histogram_inf_bound_renders_as_plus_inf(self, registry):
        registry.histogram("h", buckets=(1.0,)).observe(5.0)
        entry = registry.snapshot()["metrics"]["h"]["series"][0]
        assert entry["buckets"] == [[1.0, 0], ["+Inf", 1]]
        assert math.inf not in [b for b, _n in entry["buckets"]]

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(TypeError, match="expected dict"):
            validate_snapshot([])
        with pytest.raises(TypeError, match="version"):
            validate_snapshot({"version": 999, "metrics": {}})
        with pytest.raises(TypeError, match="labels"):
            validate_snapshot({"version": 1, "metrics": {
                "m": {"type": "counter", "help": "", "unit": None,
                      "series": [{"value": 1}]}}})

    def test_merged_snapshot_later_registry_wins(self, registry):
        other = MetricsRegistry(enabled=True)
        registry.counter("shared").inc(1)
        other.counter("shared").inc(10)
        other.counter("only_b").inc(2)
        merged = validate_snapshot(merged_snapshot(registry, other))
        assert merged["metrics"]["shared"]["series"][0]["value"] == 10
        assert "only_b" in merged["metrics"]

    def test_collectors_run_at_snapshot_time(self, registry):
        registry.collect(
            lambda reg: reg.gauge("live").set(7))
        assert registry.snapshot()["metrics"]["live"]["series"][0][
            "value"] == 7


class TestPrometheus:
    def test_text_format_counters_and_gauges(self, registry):
        registry.counter("reqs_total", "Requests").inc(3, be="fast")
        registry.gauge("depth").set(2)
        text = prometheus_text(registry.snapshot())
        assert "# HELP reqs_total Requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{be="fast"} 3' in text
        assert "depth 2" in text

    def test_histogram_buckets_are_cumulative_with_inf(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        text = registry.to_prometheus()
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="2.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_label_values_are_escaped(self, registry):
        registry.counter("c").inc(1, msg='a"b\nc')
        assert 'msg="a\\"b\\nc"' in registry.to_prometheus()


class TestTracking:
    def test_tracked_object_summed_at_snapshot(self, registry):
        class FakeCache(dict):
            hits = 4
            misses = 1

        cache = FakeCache(one=1)
        registry.track("program_cache", cache)
        snap = registry.snapshot()["metrics"]
        assert snap["repro_program_cache_hits_total"]["series"][0][
            "value"] == 4
        assert snap["repro_program_cache_entries"]["series"][0][
            "value"] == 1

    def test_dead_objects_are_swept(self, registry):
        class FakeCache(dict):
            hits = 4
            misses = 1

        registry.track("program_cache", FakeCache())
        # the tracked object is garbage by snapshot time
        registry.snapshot()
        assert registry._tracked == []

    def test_unknown_track_spec_rejected(self, registry):
        with pytest.raises(ConfigError, match="unknown track spec"):
            registry.track("nope", object())


class TestProcessSwitch:
    def test_enable_disable_flip_the_module_flag(self):
        assert metrics.ENABLED is False
        metrics.enable()
        assert metrics.ENABLED is True and DEFAULT.enabled is True
        DEFAULT.counter("c").inc()
        metrics.disable()
        assert metrics.ENABLED is False
        # state survives disable() for late snapshots
        assert DEFAULT.counter("c").value() == 1

    def test_enable_installs_program_cache_tracking(self):
        metrics.enable()
        snap = DEFAULT.snapshot()["metrics"]
        assert "repro_program_cache_hits_total" in snap

    def test_engine_totals_land_in_the_snapshot_without_a_flag(self):
        """One cycle dispatch: engine totals beside its FPU utilization."""
        from repro import api
        from repro.workloads import random_csr, random_dense_vector

        metrics.enable()
        api.run("csrmv", backend="cycle", variant="issr",
                matrix=random_csr(8, 64, 64, seed=3),
                x=random_dense_vector(64, seed=4))
        snap = validate_snapshot(DEFAULT.snapshot())["metrics"]

        def value(name):
            (entry,) = snap[name]["series"]
            return entry["value"]

        assert value("repro_engine_runs_total") >= 1
        assert value("repro_engine_steps_total") > 0
        assert value("repro_kernel_runs_total") == 1
        assert value("repro_fpu_utilization") > 0
