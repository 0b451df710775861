"""Unit tests for the TLB (repro.vm.tlb)."""

from repro.common.config import TlbConfig
from repro.vm.tlb import Tlb


def make_tlb(entries=8, ways=2):
    return Tlb(TlbConfig("test", entries, ways, 1))


class TestLookup:
    def test_miss_on_empty(self):
        tlb = make_tlb()
        assert tlb.lookup(1, 100) is None

    def test_fill_then_hit(self):
        tlb = make_tlb()
        tlb.fill(1, 100, 555)
        assert tlb.lookup(1, 100) == 555

    def test_pid_isolation(self):
        tlb = make_tlb()
        tlb.fill(1, 100, 555)
        assert tlb.lookup(2, 100) is None

    def test_different_vpn_misses(self):
        tlb = make_tlb()
        tlb.fill(1, 100, 555)
        assert tlb.lookup(1, 101) is None


class TestEviction:
    def test_lru_within_set(self):
        tlb = make_tlb(entries=4, ways=2)  # 2 sets
        tlb.fill(1, 0, 10)   # set 0
        tlb.fill(1, 2, 20)   # set 0
        tlb.lookup(1, 0)     # refresh vpn 0
        victim = tlb.fill(1, 4, 30)  # set 0: evicts vpn 2
        assert victim == (1, 2)
        assert tlb.lookup(1, 2) is None
        assert tlb.lookup(1, 0) == 10

    def test_no_eviction_with_space(self):
        tlb = make_tlb()
        assert tlb.fill(1, 0, 10) is None

    def test_refill_updates_value(self):
        tlb = make_tlb()
        tlb.fill(1, 0, 10)
        tlb.fill(1, 0, 99)
        assert tlb.lookup(1, 0) == 99


class TestOccupancy:
    def test_counts_entries(self):
        tlb = make_tlb()
        tlb.fill(1, 0, 1)
        tlb.fill(2, 0, 2)
        assert tlb.occupancy == 2
