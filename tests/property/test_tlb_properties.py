"""Property-based tests for the TLB and page-walk cache."""

from hypothesis import given, settings, strategies as st

from repro.common.config import TlbConfig
from repro.vm.tlb import Tlb
from repro.vm.walker import PageWalkCache

fills = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 200)),  # (pid, vpn)
    max_size=150,
)


class TestTlbInvariants:
    @given(fill_list=fills)
    @settings(max_examples=150, deadline=None)
    def test_occupancy_bounded(self, fill_list):
        tlb = Tlb(TlbConfig("p", 16, 4, 1))
        for pid, vpn in fill_list:
            tlb.fill(pid, vpn, vpn + 1000)
        assert tlb.occupancy <= 16

    @given(fill_list=fills)
    @settings(max_examples=150, deadline=None)
    def test_hits_return_last_fill(self, fill_list):
        tlb = Tlb(TlbConfig("p", 1024, 4, 1))  # big enough: no evictions
        last = {}
        for pid, vpn in fill_list:
            ppn = len(last)
            tlb.fill(pid, vpn, ppn)
            last[(pid, vpn)] = ppn
        for (pid, vpn), ppn in last.items():
            assert tlb.lookup(pid, vpn) == ppn

    @given(fill_list=fills)
    @settings(max_examples=100, deadline=None)
    def test_eviction_victims_were_resident(self, fill_list):
        tlb = Tlb(TlbConfig("p", 8, 2, 1))
        resident = set()
        for pid, vpn in fill_list:
            victim = tlb.fill(pid, vpn, 0)
            if victim is not None:
                assert victim in resident
                resident.discard(victim)
            resident.add((pid, vpn))


class TestPwcInvariants:
    @given(fill_list=st.lists(
        st.tuples(st.integers(1, 2), st.integers(0, 2**27), st.integers(0, 2)),
        max_size=100,
    ))
    @settings(max_examples=100, deadline=None)
    def test_deepest_hit_is_filled_level(self, fill_list):
        pwc = PageWalkCache(8)
        for pid, vpn, level in fill_list:
            pwc.fill(pid, vpn, level)
        for pid, vpn, level in fill_list[-3:]:
            hit = pwc.deepest_hit(pid, vpn)
            assert hit >= -1
