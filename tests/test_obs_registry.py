"""repro.obs.registry: metrics primitives, the registry, and percentile()."""

import gc
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    percentile,
)


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0
        assert percentile([5.0], 0) == 5.0
        assert percentile([5.0], 100) == 5.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_nearest_rank_small_even_windows(self):
        # The regression the ceil() formula fixes: round() uses banker's
        # rounding (round(2.5) == 2), which shifted the nearest-rank index
        # down on half-way boundaries.  p50 of [1..4] sits exactly on one:
        # ceil(0.5 * 4) = rank 2 -> value 2 (the old code happened to agree
        # here via its -1 shift, but disagreed one level up).
        assert percentile([1, 2, 3, 4], 50) == 2.0
        assert percentile([1, 2, 3, 4], 100) == 4.0
        assert percentile([1, 2], 50) == 1
        assert percentile([1, 2], 99) == 2
        # p25 of [1..10]: ceil(2.5) = 3 -> value 3.  round(2.5) - 1 = 1
        # -> value 1: two full ranks off.
        assert percentile(list(range(1, 11)), 25) == 3
        # p50 of [1..5] must be the median, not the second-smallest
        # (round(2.5) - 1 = 1 gave 2).
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_p99_close_to_max_on_small_windows(self):
        assert percentile(list(range(1, 101)), 99) == 99
        assert percentile(list(range(1, 9)), 99) == 8

    def test_order_independent(self):
        assert percentile([4, 1, 3, 2], 50) == 2.0


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("x", {}) == "x"

    def test_labels_sorted(self):
        assert (
            metric_key("cache.lookups", {"tier": "memory", "outcome": "hit"})
            == "cache.lookups{outcome=hit,tier=memory}"
        )


class TestCounter:
    def test_inc(self):
        c = Counter("n")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert c.snapshot() == 4

    def test_threaded_increments_do_not_lose_updates(self):
        c = Counter("n")

        def spin():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestGauge:
    def test_set(self):
        g = Gauge("depth")
        assert g.value == 0.0
        g.set(7)
        assert g.value == 7

    def test_probe_wins_over_set(self):
        g = Gauge("depth")
        g.set(1)
        g.set_probe(lambda: 42)
        assert g.value == 42.0

    def test_probe_failure_degrades_to_last_set(self):
        g = Gauge("depth")
        g.set(3)

        def boom():
            raise RuntimeError("probe died")

        g.set_probe(boom)
        assert g.value == 3


class TestHistogram:
    def test_snapshot_shape(self):
        h = Histogram("lat", window=8)
        for v in [1, 2, 3, 4, 5]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == 15.0
        assert snap["min"] == 1.0
        assert snap["max"] == 5.0
        assert snap["window_count"] == 5
        assert snap["p50"] == 3.0
        assert snap["p90"] == 5.0
        assert snap["p99"] == 5.0

    def test_window_bounds_percentiles_but_not_totals(self):
        h = Histogram("lat", window=4)
        for v in range(1, 11):  # 1..10; window keeps 7..10
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 10
        assert snap["sum"] == 55.0
        assert snap["window_count"] == 4
        assert snap["p50"] == 8.0
        assert snap["min"] == 1.0 and snap["max"] == 10.0

    def test_observe_many_matches_one_observe_per_value(self):
        values = [0.3, 0.1, 7.0, 0.2, 1e-9, 2.5]
        one, batched = Histogram("lat", window=4), Histogram("lat", window=4)
        for v in values:
            one.observe(v)
        batched.observe_many(values[:2])
        batched.observe_many([])
        batched.observe_many(values[2:])
        assert batched.snapshot() == one.snapshot()

    def test_empty_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        assert snap["p50"] == 0.0

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            Histogram("lat", window=0)

    def test_empty_window_percentile_default_is_distinguishable(self):
        # Regression (feedback-directed dispatch): the calibrated cost
        # model reads windowed medians as rate denominators, so "no data"
        # must be distinguishable from a measured 0.0 sample.
        h = Histogram("lat")
        assert h.percentile(50) == 0.0  # stats endpoints keep answering
        assert h.percentile(50, default=None) is None
        assert h.percentile(99, default=-1.0) == -1.0
        assert h.median() is None  # median defaults to None, not 0.0
        assert h.median(default=7.0) == 7.0
        h.observe(0.0)
        assert h.median() == 0.0  # a genuine zero is a zero, not "no data"
        assert percentile([], 50, default=None) is None

    def test_empty_window_snapshot_still_reports_zeros(self):
        snap = Histogram("lat").snapshot()
        assert snap["p50"] == 0.0 and snap["p90"] == 0.0 and snap["p99"] == 0.0


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("a", x="1") is r.counter("a", x="1")
        assert r.counter("a", x="1") is not r.counter("a", x="2")
        assert len(r) == 2

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ValueError, match="counter"):
            r.gauge("a")
        with pytest.raises(ValueError, match="counter"):
            r.histogram("a")

    def test_snapshot_sections(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h").observe(4.0)
        snap = r.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["scopes"] == {}

    def test_collectors_run_before_metrics_are_read(self):
        # A collector may flush buffered observations into the registry's
        # own metrics; the same snapshot must already see them.
        r = MetricsRegistry()
        pending = [1.0, 2.0]

        def flush():
            r.histogram("h").observe_many(pending)
            pending.clear()
            return {}

        r.register_collector("buffered", flush)
        assert r.snapshot()["histograms"]["h"]["count"] == 2

    def test_collector_scope_and_suffixing(self):
        r = MetricsRegistry()
        first = r.register_collector("serve", lambda: {"requests": 1})
        second = r.register_collector("serve", lambda: {"requests": 2})
        assert first == "serve"
        assert second == "serve#2"
        scopes = r.snapshot()["scopes"]
        assert scopes["serve"] == {"requests": 1}
        assert scopes["serve#2"] == {"requests": 2}

    def test_bound_method_collector_is_weak(self):
        class Owner:
            def snap(self):
                return {"alive": True}

        r = MetricsRegistry()
        owner = Owner()
        r.register_collector("owner", owner.snap)
        assert r.snapshot()["scopes"] == {"owner": {"alive": True}}
        del owner
        gc.collect()
        assert r.snapshot()["scopes"] == {}

    def test_collector_error_is_contained(self):
        r = MetricsRegistry()

        def boom():
            raise RuntimeError("collector died")

        r.register_collector("bad", boom)
        scopes = r.snapshot()["scopes"]
        assert "RuntimeError" in scopes["bad"]["error"]

    def test_reset_drops_metrics_keeps_collectors(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.register_collector("s", lambda: {"x": 1})
        r.reset()
        assert len(r) == 0
        assert r.snapshot()["scopes"] == {"s": {"x": 1}}

    def test_unregister_collector(self):
        r = MetricsRegistry()
        scope = r.register_collector("s", lambda: {})
        r.unregister_collector(scope)
        assert r.snapshot()["scopes"] == {}

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()
        assert isinstance(get_registry(), MetricsRegistry)
