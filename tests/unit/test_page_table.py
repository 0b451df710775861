"""Unit tests for the 4-level page table (repro.vm.page_table)."""

import itertools

from repro.common.addr import PAGE_SHIFT
from repro.vm.page_table import ENTRY_BYTES, PageTable


def make_table():
    counter = itertools.count(100)
    data_counter = itertools.count(10_000)
    return PageTable(
        pid=1,
        allocate_table_frame=lambda: next(counter),
        allocate_data_frame=lambda vpn: next(data_counter),
    )


class TestMapping:
    def test_first_touch_allocates(self):
        table = make_table()
        ppn = table.ensure_mapped(5)
        assert ppn == 10_000
        assert table.mapped_pages == 1

    def test_repeat_touch_is_stable(self):
        table = make_table()
        first = table.ensure_mapped(5)
        second = table.ensure_mapped(5)
        assert first == second
        assert table.mapped_pages == 1

    def test_translate_unmapped(self):
        table = make_table()
        assert table.translate(5) is None

    def test_translate_after_map(self):
        table = make_table()
        ppn = table.ensure_mapped(7)
        assert table.translate(7) == ppn

    def test_distinct_vpns_distinct_frames(self):
        table = make_table()
        a = table.ensure_mapped(1)
        b = table.ensure_mapped(2)
        assert a != b

    def test_cr3_is_root(self):
        table = make_table()
        assert table.cr3_ppn == 100


class TestTableStructure:
    def test_vpns_in_same_leaf_share_tables(self):
        table = make_table()
        table.ensure_mapped(0)
        before = len(table.table_pages())
        table.ensure_mapped(1)  # same PTE table
        assert len(table.table_pages()) == before

    def test_distant_vpns_grow_tree(self):
        table = make_table()
        table.ensure_mapped(0)
        before = len(table.table_pages())
        table.ensure_mapped(1 << 27)  # different PGD entry
        assert len(table.table_pages()) == before + 3

    def test_root_plus_three_levels_on_first_map(self):
        table = make_table()
        table.ensure_mapped(0)
        # PGD + PUD + PMD + PTE-table = 4 nodes.
        assert len(table.table_pages()) == 4


class TestEntryAddresses:
    def test_four_levels(self):
        table = make_table()
        table.ensure_mapped(3)
        addresses = table.entry_addresses(3)
        assert len(addresses) == 4

    def test_first_level_in_root(self):
        table = make_table()
        table.ensure_mapped(3)
        addresses = table.entry_addresses(3)
        assert addresses[0] >> PAGE_SHIFT == table.cr3_ppn

    def test_pte_entry_offset(self):
        table = make_table()
        table.ensure_mapped(3)
        pte_address = table.pte_entry_address(3)
        assert pte_address % ENTRY_BYTES == 0
        # VPN 3 -> PTE index 3 within its leaf table.
        assert (pte_address % 4096) // ENTRY_BYTES == 3

    def test_adjacent_vpns_adjacent_ptes(self):
        table = make_table()
        table.ensure_mapped(8)
        table.ensure_mapped(9)
        a = table.pte_entry_address(8)
        b = table.pte_entry_address(9)
        assert b - a == ENTRY_BYTES

    def test_entries_live_in_table_pages(self):
        table = make_table()
        table.ensure_mapped(42)
        pages = set(table.table_pages())
        for address in table.entry_addresses(42):
            assert (address >> PAGE_SHIFT) in pages
