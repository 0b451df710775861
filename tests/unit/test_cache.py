"""Unit tests for the set-associative cache (repro.cache.cache)."""

from repro.common.config import CacheConfig
from repro.cache.cache import SetAssociativeCache


def make_cache(size=4096, ways=4, line=64):
    return SetAssociativeCache(CacheConfig("test", size, ways, 1, line))


class TestBasics:
    def test_empty_misses(self):
        cache = make_cache()
        assert not cache.lookup(0)

    def test_fill_then_hit(self):
        cache = make_cache()
        cache.fill(5)
        assert cache.lookup(5)

    def test_contains_is_non_destructive(self):
        cache = make_cache(size=256, ways=2)  # 2 sets
        cache.fill(0)
        cache.fill(2)  # same set as 0
        cache.contains(0)  # must NOT refresh LRU
        cache.fill(4)  # evicts LRU = 0
        assert not cache.lookup(0)

    def test_occupancy(self):
        cache = make_cache()
        for line in range(10):
            cache.fill(line)
        assert cache.occupancy == 10


class TestEviction:
    def test_lru_order(self):
        cache = make_cache(size=256, ways=2)  # 2 sets, 2 ways
        cache.fill(0)
        cache.fill(2)
        cache.lookup(0)  # 0 becomes MRU
        victim = cache.fill(4)  # same set: evicts 2
        assert victim.line_number == 2

    def test_victim_reconstruction(self):
        cache = make_cache(size=256, ways=1)  # direct-mapped, 4 sets... 256/64=4 lines
        cache.fill(1)
        victim = cache.fill(1 + cache.num_sets)
        assert victim.line_number == 1

    def test_no_victim_when_space(self):
        cache = make_cache()
        assert cache.fill(3) is None

    def test_refill_same_line_no_victim(self):
        cache = make_cache(size=256, ways=1)
        cache.fill(1)
        assert cache.fill(1) is None


class TestDirty:
    def test_write_marks_dirty(self):
        cache = make_cache(size=256, ways=1)
        cache.fill(1)
        cache.lookup(1, is_write=True)
        victim = cache.fill(1 + cache.num_sets)
        assert victim.dirty

    def test_clean_eviction(self):
        cache = make_cache(size=256, ways=1)
        cache.fill(1)
        victim = cache.fill(1 + cache.num_sets)
        assert not victim.dirty

    def test_fill_dirty(self):
        cache = make_cache(size=256, ways=1)
        cache.fill(1, dirty=True)
        victim = cache.fill(1 + cache.num_sets)
        assert victim.dirty

    def test_fill_existing_upgrades_dirty(self):
        cache = make_cache(size=256, ways=1)
        cache.fill(1)
        cache.fill(1, dirty=True)
        victim = cache.fill(1 + cache.num_sets)
        assert victim.dirty


class TestResidentLines:
    def test_resident_lines_roundtrip(self):
        cache = make_cache()
        lines = {3, 77, 1024, 5555}
        for line in lines:
            cache.fill(line)
        assert set(cache.resident_lines()) == lines
