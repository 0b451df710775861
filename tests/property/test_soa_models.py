"""Differential property suite: SoA kernels vs the OrderedDict oracles.

The simulator runs the struct-of-arrays models (:class:`repro.vm.tlb.SoaTlb`,
:class:`repro.cache.cache.SoaCache`) on the private levels and the
``OrderedDict`` models on the shared L3 and the L2 TLB.  These tests drive
both implementations with the same randomized op sequences and require
*identical observable behaviour at every step*: hit/miss results, returned
PPNs, victim choices (line number and dirty bit), occupancy, and resident
contents.

Configs are deliberately tiny (1–4 sets, 1–4 ways) so Hypothesis exercises
set aliasing and eviction pressure constantly, and the LRU "tie-breaking"
question — the SoA model's argmin-of-age victim vs the dict's insertion
order — is probed under every interleaving of touches.  Ages are unique by
construction (a strictly increasing counter), so the two victim rules must
agree exactly; any drift is a bug, not a tolerance.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache, SoaCache
from repro.common.config import CacheConfig, TlbConfig
from repro.vm.tlb import SoaTlb, Tlb

# -- shared strategy plumbing ----------------------------------------------

# Small universes force set aliasing: with <= 4 sets, distinct VPNs/lines
# constantly collide into the same set and evict each other.
_pids = st.integers(1, 3)
_vpns = st.integers(0, 23)
_lines = st.integers(0, 47)

tlb_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _pids, _vpns),
        st.tuples(st.just("fill"), _pids, _vpns, st.integers(0, 500)),
    ),
    max_size=200,
)

cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _lines, st.booleans()),
        st.tuples(st.just("fill"), _lines, st.booleans()),
        st.tuples(st.just("contains"), _lines),
    ),
    max_size=200,
)

tlb_geometries = st.sampled_from(
    # (entries, ways): 1x1 .. 4x4, including fully-associative single set.
    [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (8, 2), (8, 4), (16, 4)]
)

cache_geometries = st.sampled_from(
    # (sets, ways) expressed through size = sets * ways * line_bytes.
    [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (2, 4), (4, 4)]
)


def _tlb_pair(entries, ways):
    config = TlbConfig("prop", entries, ways, 1)
    return Tlb(config), SoaTlb(config)


def _cache_pair(num_sets, ways):
    config = CacheConfig("prop", num_sets * ways * 64, ways, 1)
    return SetAssociativeCache(config), SoaCache(config)


# -- TLB differencing ------------------------------------------------------


class TestSoaTlbMatchesReference:
    @given(geometry=tlb_geometries, ops=tlb_ops)
    @settings(max_examples=200, deadline=None)
    def test_step_identical(self, geometry, ops):
        """Every op returns the same result on both models, in lockstep."""
        ref, soa = _tlb_pair(*geometry)
        for op in ops:
            if op[0] == "lookup":
                _, pid, vpn = op
                assert soa.lookup(pid, vpn) == ref.lookup(pid, vpn)
            else:
                _, pid, vpn, ppn = op
                assert soa.fill(pid, vpn, ppn) == ref.fill(pid, vpn, ppn)
            assert soa.occupancy == ref.occupancy

    @given(geometry=tlb_geometries, ops=tlb_ops)
    @settings(max_examples=100, deadline=None)
    def test_final_contents_identical(self, geometry, ops):
        """After any history, both models answer every probe identically.

        Probing must not disturb the comparison, so both models see the
        probes in the same order too.
        """
        ref, soa = _tlb_pair(*geometry)
        for op in ops:
            if op[0] == "lookup":
                soa.lookup(op[1], op[2])
                ref.lookup(op[1], op[2])
            else:
                soa.fill(op[1], op[2], op[3])
                ref.fill(op[1], op[2], op[3])
        for pid in range(1, 4):
            for vpn in range(24):
                assert soa.lookup(pid, vpn) == ref.lookup(pid, vpn), (
                    f"({pid}, {vpn}) diverged after {len(ops)} ops"
                )

    @given(geometry=tlb_geometries, ops=tlb_ops)
    @settings(max_examples=100, deadline=None)
    def test_soa_age_counter_strictly_increases(self, geometry, ops):
        """The LRU argmin argument: ages never repeat, so no ties exist."""
        _, soa = _tlb_pair(*geometry)
        last = soa._age[0]
        for op in ops:
            if op[0] == "lookup":
                soa.lookup(op[1], op[2])
            else:
                soa.fill(op[1], op[2], op[3])
            assert soa._age[0] >= last
            last = soa._age[0]
        stamps = [
            age
            for set_index in range(soa.num_sets)
            for way, key in enumerate(soa._keys[set_index])
            if key is not None
            for age in [soa._ages[set_index][way]]
        ]
        assert len(stamps) == len(set(stamps)), "live LRU stamps must be unique"


# -- cache differencing ----------------------------------------------------


class TestSoaCacheMatchesReference:
    @given(geometry=cache_geometries, ops=cache_ops)
    @settings(max_examples=200, deadline=None)
    def test_step_identical(self, geometry, ops):
        """Hits, victims (line *and* dirty bit), and occupancy in lockstep."""
        ref, soa = _cache_pair(*geometry)
        for op in ops:
            if op[0] == "lookup":
                _, line, is_write = op
                assert soa.lookup(line, is_write) == ref.lookup(line, is_write)
            elif op[0] == "fill":
                _, line, dirty = op
                assert soa.fill(line, dirty) == ref.fill(line, dirty)
            else:
                assert soa.contains(op[1]) == ref.contains(op[1])
            assert soa.occupancy == ref.occupancy

    @given(geometry=cache_geometries, ops=cache_ops)
    @settings(max_examples=100, deadline=None)
    def test_final_residency_and_dirty_state_identical(self, geometry, ops):
        """After any history the two models hold the same lines, and
        evicting everything produces the same write-back set."""
        ref, soa = _cache_pair(*geometry)
        for op in ops:
            if op[0] == "lookup":
                soa.lookup(op[1], op[2])
                ref.lookup(op[1], op[2])
            elif op[0] == "fill":
                soa.fill(op[1], op[2])
                ref.fill(op[1], op[2])
            else:
                soa.contains(op[1])
                ref.contains(op[1])
        assert sorted(soa.resident_lines()) == sorted(ref.resident_lines())
        # Flush both by filling fresh conflicting lines: the victim
        # sequence (with dirty bits) must match eviction for eviction.
        for line in range(48, 48 + geometry[0] * geometry[1] + 4):
            assert soa.fill(line) == ref.fill(line)

    @given(geometry=cache_geometries, ops=cache_ops)
    @settings(max_examples=100, deadline=None)
    def test_lru_order_identical(self, geometry, ops):
        """resident_lines() is LRU-first per set on both models."""
        ref, soa = _cache_pair(*geometry)
        for op in ops:
            if op[0] == "lookup":
                soa.lookup(op[1], op[2])
                ref.lookup(op[1], op[2])
            elif op[0] == "fill":
                soa.fill(op[1], op[2])
                ref.fill(op[1], op[2])
        assert soa.resident_lines() == ref.resident_lines()
