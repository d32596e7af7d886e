"""Tests for repro.obs.metrics: registry, snapshots, deltas, merging."""

from __future__ import annotations

import pickle

import pytest

from repro.obs import MetricsRegistry, MetricsSnapshot, TimerSnapshot, metrics


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounters:
    def test_inc_defaults_to_one(self, registry):
        registry.inc("a")
        registry.inc("a")
        assert registry.counter("a") == 2

    def test_inc_by_n(self, registry):
        registry.inc("flood.messages", 120)
        registry.inc("flood.messages", 3)
        assert registry.counter("flood.messages") == 123

    def test_unknown_counter_reads_zero(self, registry):
        assert registry.counter("never") == 0

    def test_iter_yields_sorted_counters(self, registry):
        registry.inc("b")
        registry.inc("a", 2)
        assert list(registry) == [("a", 2), ("b", 1)]


class TestGaugesAndTimers:
    def test_gauge_keeps_latest(self, registry):
        registry.gauge("pmap.workers", 2)
        registry.gauge("pmap.workers", 4)
        assert registry.snapshot().gauges["pmap.workers"] == 4.0

    def test_observe_accumulates_stats(self, registry):
        registry.observe("t", 0.5)
        registry.observe("t", 1.5)
        registry.observe("t", 1.0)
        t = registry.snapshot().timers["t"]
        assert t.count == 3
        assert t.total_s == pytest.approx(3.0)
        assert t.min_s == pytest.approx(0.5)
        assert t.max_s == pytest.approx(1.5)
        assert t.mean_s == pytest.approx(1.0)

    def test_timer_context_manager_records_once(self, registry):
        with registry.timer("block"):
            pass
        t = registry.snapshot().timers["block"]
        assert t.count == 1
        assert t.total_s >= 0.0

    def test_empty_timer_mean_is_zero(self):
        t = TimerSnapshot(count=0, total_s=0.0, min_s=0.0, max_s=0.0)
        assert t.mean_s == 0.0


class TestSnapshotDeltaMerge:
    def test_snapshot_is_a_copy(self, registry):
        registry.inc("a")
        snap = registry.snapshot()
        registry.inc("a")
        assert snap.counter("a") == 1
        assert registry.counter("a") == 2

    def test_delta_since_reports_only_changes(self, registry):
        registry.inc("a")
        registry.inc("b", 5)
        before = registry.snapshot()
        registry.inc("a", 3)
        registry.observe("t", 0.25)
        delta = registry.delta_since(before)
        assert delta.counters == {"a": 3}
        assert delta.timers["t"].count == 1
        assert delta.timers["t"].total_s == pytest.approx(0.25)

    def test_merge_reconstructs_totals(self):
        # Simulates pmap: two workers each measure a per-task delta;
        # the coordinator's merged registry equals a serial run.
        serial = MetricsRegistry()
        coordinator = MetricsRegistry()
        for worker_obs in ([("x", 2), ("y", 1)], [("x", 4)]):
            worker = MetricsRegistry()
            before = worker.snapshot()
            for name, n in worker_obs:
                worker.inc(name, n)
                serial.inc(name, n)
                worker.observe("task", 0.5)
                serial.observe("task", 0.5)
            coordinator.merge(worker.delta_since(before))
        assert dict(coordinator) == dict(serial)
        merged_t = coordinator.snapshot().timers["task"]
        serial_t = serial.snapshot().timers["task"]
        assert merged_t.count == serial_t.count
        assert merged_t.total_s == pytest.approx(serial_t.total_s)

    def test_snapshot_is_picklable(self, registry):
        registry.inc("a", 7)
        registry.observe("t", 1.0)
        registry.gauge("g", 3.0)
        snap = pickle.loads(pickle.dumps(registry.snapshot()))
        assert isinstance(snap, MetricsSnapshot)
        assert snap.counter("a") == 7
        assert snap.timers["t"].count == 1

    def test_reset_clears_everything(self, registry):
        registry.inc("a")
        registry.gauge("g", 1.0)
        registry.observe("t", 1.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap.counters == {} and snap.gauges == {} and snap.timers == {}


class TestProcessLocalRegistry:
    def test_metrics_returns_singleton(self):
        assert metrics() is metrics()

    def test_registry_refuses_pickling(self, registry):
        # A pickled copy in a worker would swallow every count it makes;
        # workers ship snapshot deltas instead.
        for candidate in (registry, metrics()):
            with pytest.raises(TypeError, match="counter deltas"):
                pickle.dumps(candidate)

    def test_as_dict_shape(self, registry):
        registry.inc("c", 2)
        registry.gauge("g", 1.5)
        registry.observe("t", 0.5)
        doc = registry.snapshot().as_dict()
        assert doc["counters"] == {"c": 2}
        assert doc["gauges"] == {"g": 1.5}
        assert doc["timers"]["t"]["count"] == 1
        assert doc["timers"]["t"]["mean_s"] == pytest.approx(0.5)


class TestHistograms:
    def test_empty_histogram(self, registry):
        import math

        hist = registry.histogram("never")
        assert hist.count == 0
        assert math.isnan(hist.quantile(0.5))
        assert hist.mean == 0.0

    def test_observe_and_quantiles(self, registry):
        for ms in (1, 2, 3, 4, 100):
            registry.observe_hist("lat", ms / 1000.0)
        hist = registry.histogram("lat")
        assert hist.count == 5
        assert hist.mean == pytest.approx(0.022)
        assert hist.min_v == pytest.approx(0.001)
        assert hist.max_v == pytest.approx(0.1)
        # Bucket-boundary estimates carry ~1.4x resolution.
        assert 0.002 <= hist.quantile(0.5) <= 0.0045
        assert 0.05 <= hist.quantile(0.99) <= 0.1

    def test_quantile_bounds_validated(self, registry):
        registry.observe_hist("lat", 0.5)
        with pytest.raises(ValueError, match="quantile"):
            registry.histogram("lat").quantile(1.5)

    def test_degenerate_distribution_is_exact(self, registry):
        for _ in range(10):
            registry.observe_hist("lat", 0.25)
        hist = registry.histogram("lat")
        # All mass in one bucket: clamping to [min, max] recovers the
        # exact value at every quantile.
        assert hist.quantile(0.0) == pytest.approx(0.25)
        assert hist.quantile(0.5) == pytest.approx(0.25)
        assert hist.quantile(1.0) == pytest.approx(0.25)

    def test_merge_matches_serial(self):
        serial = MetricsRegistry()
        coordinator = MetricsRegistry()
        values = [0.001 * (i + 1) for i in range(30)]
        for shard in range(3):
            worker = MetricsRegistry()
            before = worker.snapshot()
            for v in values[shard * 10 : (shard + 1) * 10]:
                worker.observe_hist("lat", v)
                serial.observe_hist("lat", v)
            coordinator.merge(worker.delta_since(before))
        merged = coordinator.histogram("lat")
        expected = serial.histogram("lat")
        assert merged.buckets == expected.buckets
        assert merged.count == expected.count
        assert merged.min_v == expected.min_v
        assert merged.max_v == expected.max_v
        # Totals accumulate in different association orders.
        assert merged.total == pytest.approx(expected.total)

    def test_delta_subtracts_buckets(self, registry):
        registry.observe_hist("lat", 0.01)
        before = registry.snapshot()
        registry.observe_hist("lat", 0.02)
        delta = registry.delta_since(before)
        assert delta.histograms["lat"].count == 1
        assert sum(delta.histograms["lat"].buckets) == 1

    def test_unchanged_histogram_not_in_delta(self, registry):
        registry.observe_hist("lat", 0.01)
        before = registry.snapshot()
        assert "lat" not in registry.delta_since(before).histograms

    def test_snapshot_roundtrip_and_as_dict(self, registry):
        registry.observe_hist("lat", 0.004)
        snap = pickle.loads(pickle.dumps(registry.snapshot()))
        assert snap.histogram("lat").count == 1
        doc = snap.as_dict()
        assert doc["histograms"]["lat"]["count"] == 1
        assert doc["histograms"]["lat"]["p99"] >= doc["histograms"]["lat"]["p50"]

    def test_reset_clears_histograms(self, registry):
        registry.observe_hist("lat", 0.1)
        registry.reset()
        assert registry.histogram("lat").count == 0
