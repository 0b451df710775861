"""Unit tests for the statistics registry (repro.common.stats)."""

from repro.common.stats import StatsRegistry


class TestCounters:
    def test_default_zero(self):
        stats = StatsRegistry()
        assert stats.get("never") == 0.0

    def test_add_default_one(self):
        stats = StatsRegistry()
        stats.add("x")
        stats.add("x")
        assert stats.get("x") == 2.0

    def test_add_amount(self):
        stats = StatsRegistry()
        stats.add("x", 2.5)
        assert stats.get("x") == 2.5

    def test_custom_default(self):
        stats = StatsRegistry()
        assert stats.get("missing", -1.0) == -1.0


class TestObservations:
    def test_mean(self):
        stats = StatsRegistry()
        for value in (1, 2, 3):
            stats.observe("lat", value)
        assert stats.mean("lat") == 2.0

    def test_mean_default(self):
        stats = StatsRegistry()
        assert stats.mean("none", default=7.0) == 7.0

    def test_total_and_count(self):
        stats = StatsRegistry()
        stats.observe("lat", 10)
        stats.observe("lat", 30)
        assert stats.total("lat") == 40
        assert stats.count("lat") == 2

    def test_maximum(self):
        stats = StatsRegistry()
        stats.observe("lat", 5)
        stats.observe("lat", 2)
        assert stats.maximum("lat") == 5

    def test_maximum_default(self):
        stats = StatsRegistry()
        assert stats.maximum("none", default=-3) == -3


class TestLifecycle:
    def test_reset_keeps_the_live_dicts(self):
        """Record sites hold the live dicts across the warm-up/measure
        reset; ``reset`` must clear them in place, never rebind them."""
        stats = StatsRegistry()
        live = (stats._counters, stats._sums, stats._counts, stats._maxima)
        stats.add("x", 5.0)
        stats.observe("lat", 100.0)
        stats.reset()
        current = (stats._counters, stats._sums, stats._counts, stats._maxima)
        assert all(before is after for before, after in zip(live, current))
        live[0]["x"] += 1.0
        assert stats.get("x") == 1.0

    def test_reset_clears_everything(self):
        stats = StatsRegistry()
        stats.add("c")
        stats.observe("o", 1)
        stats.reset()
        assert stats.get("c") == 0.0
        assert stats.count("o") == 0

    def test_names_sorted(self):
        stats = StatsRegistry()
        stats.add("b")
        stats.add("a")
        stats.observe("c", 1)
        assert list(stats.names()) == ["a", "b", "c"]

    def test_snapshot_is_copy(self):
        stats = StatsRegistry()
        stats.add("x")
        snap = stats.snapshot()
        stats.add("x")
        assert snap["x"] == 1.0

    def test_merged_with(self):
        a = StatsRegistry()
        b = StatsRegistry()
        a.add("x", 1)
        b.add("x", 2)
        a.observe("o", 10)
        b.observe("o", 20)
        merged = a.merged_with(b)
        assert merged.get("x") == 3
        assert merged.mean("o") == 15
        assert merged.maximum("o") == 20

    def test_as_dict_contains_derived(self):
        stats = StatsRegistry()
        stats.add("plain", 4)
        stats.observe("obs", 2)
        stats.observe("obs", 4)
        d = stats.as_dict()
        assert d["plain"] == 4
        assert d["obs/mean"] == 3
        assert d["obs/total"] == 6
        assert d["obs/count"] == 2
