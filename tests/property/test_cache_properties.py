"""Property-based tests for the set-associative cache."""

from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.cache.cache import SetAssociativeCache

lines = st.integers(min_value=0, max_value=2**20)
ops = st.lists(
    st.tuples(st.sampled_from(["fill", "lookup", "write"]), lines),
    max_size=200,
)


def make_cache():
    return SetAssociativeCache(CacheConfig("prop", 2048, 2, 1))


def run(cache, op_list):
    for kind, line in op_list:
        if kind == "fill":
            cache.fill(line)
        elif kind == "lookup":
            cache.lookup(line)
        else:
            cache.lookup(line, is_write=True)


class TestCacheInvariants:
    @given(op_list=ops)
    @settings(max_examples=150, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, op_list):
        cache = make_cache()
        run(cache, op_list)
        capacity = cache.num_sets * cache.ways
        assert cache.occupancy <= capacity

    @given(op_list=ops)
    @settings(max_examples=150, deadline=None)
    def test_set_occupancy_bounded_by_ways(self, op_list):
        cache = make_cache()
        run(cache, op_list)
        per_set = {}
        for line in cache.resident_lines():
            per_set.setdefault(line % cache.num_sets, []).append(line)
        for members in per_set.values():
            assert len(members) <= cache.ways

    @given(op_list=ops, probe=lines)
    @settings(max_examples=150, deadline=None)
    def test_fill_makes_resident(self, op_list, probe):
        cache = make_cache()
        run(cache, op_list)
        cache.fill(probe)
        assert cache.contains(probe)

    @given(op_list=ops)
    @settings(max_examples=100, deadline=None)
    def test_resident_lines_unique(self, op_list):
        cache = make_cache()
        run(cache, op_list)
        resident = cache.resident_lines()
        assert len(resident) == len(set(resident))

    @given(op_list=ops)
    @settings(max_examples=100, deadline=None)
    def test_victims_come_from_same_set(self, op_list):
        cache = make_cache()
        for kind, line in op_list:
            if kind == "fill":
                victim = cache.fill(line)
                if victim is not None:
                    assert victim.line_number % cache.num_sets == line % cache.num_sets
            elif kind == "lookup":
                cache.lookup(line)
