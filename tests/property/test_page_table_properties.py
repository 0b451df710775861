"""Properties of :class:`repro.vm.page_table.PageTable`'s lookup shortcuts.

Every page table keeps two derived dicts over its radix tree: the flat
``vpn -> ppn`` cache that ``ensure_mapped``/``translate`` and the
engine's chunk prep read, and the per-VPN walk memo the walker reads.
Both are only correct because mappings are never removed or rewritten.
These properties replay random map/translate sequences — over VPNs on
both sides of the workloads' heap base and across PGD entries — and
require the cache to agree with the tree and a first-touch model, to
hold nothing the tree does not, and to be rebuildable from the tree
alone.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addr import LINE_SHIFT, PAGE_SHIFT, WALK_LEVELS
from repro.vm.page_table import PageTable, _level_indices
from repro.workloads.synthetic import HEAP_BASE

_HEAP_VPN = HEAP_BASE >> PAGE_SHIFT

#: VPNs straddling the heap base, low VPNs, and VPNs a PGD entry away.
_VPNS = st.one_of(
    st.integers(min_value=-20, max_value=120).map(lambda offset: _HEAP_VPN + offset),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40).map(lambda offset: (1 << 27) + offset),
)

_OPS = st.lists(
    st.tuples(st.sampled_from(["map", "translate"]), _VPNS), max_size=80
)


class _Table:
    """A page table whose frame allocators record what they hand out."""

    def __init__(self):
        self.table_frames = itertools.count(100)
        self.data_frames = itertools.count(1 << 20)
        self.first_touches = {}
        self.table = PageTable(
            pid=1,
            allocate_table_frame=lambda: next(self.table_frames),
            allocate_data_frame=self._allocate_data,
        )

    def _allocate_data(self, vpn):
        assert vpn not in self.first_touches, f"vpn {vpn:#x} allocated twice"
        ppn = next(self.data_frames)
        self.first_touches[vpn] = ppn
        return ppn

    def replay(self, ops):
        for kind, vpn in ops:
            if kind == "map":
                self.table.ensure_mapped(vpn)
            else:
                self.table.translate(vpn)
        return self.table


def _radix_lookup(table, vpn):
    """The PPN the radix tree holds for *vpn* (None when unmapped)."""
    indices = _level_indices(vpn)
    node = table.root
    for level in range(WALK_LEVELS - 1):
        node = node.children.get(indices[level])
        if node is None:
            return None
    return node.leaf_entries.get(indices[WALK_LEVELS - 1])


class TestVpnCache:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_translations_match_a_first_touch_model(self, ops):
        harness = _Table()
        table = harness.table
        for kind, vpn in ops:
            if kind == "map":
                assert table.ensure_mapped(vpn) == harness.first_touches[vpn]
            else:
                assert table.translate(vpn) == harness.first_touches.get(vpn)
        assert table.mapped_pages == len(harness.first_touches)

    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_cache_holds_only_what_the_tree_holds(self, ops):
        harness = _Table()
        table = harness.replay(ops)
        assert set(table._vpn_cache) <= set(harness.first_touches)
        for vpn, ppn in table._vpn_cache.items():
            assert _radix_lookup(table, vpn) == ppn
        for vpn, ppn in harness.first_touches.items():
            assert _radix_lookup(table, vpn) == ppn

    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS, probe=_VPNS)
    def test_translating_an_unmapped_vpn_changes_nothing(self, ops, probe):
        harness = _Table()
        table = harness.replay(ops)
        if probe in harness.first_touches:
            return
        cache_before = dict(table._vpn_cache)
        tables_before = table.table_pages()
        assert table.translate(probe) is None
        assert table._vpn_cache == cache_before
        assert table.table_pages() == tables_before
        assert table.mapped_pages == len(harness.first_touches)

    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS)
    def test_a_cleared_cache_rebuilds_from_the_tree(self, ops):
        """The cache is a pure shortcut: emptying it loses no mapping, and
        re-touching a page allocates nothing."""
        harness = _Table()
        table = harness.replay(ops)
        table._vpn_cache.clear()
        for vpn, ppn in harness.first_touches.items():
            assert table.translate(vpn) == ppn
        table._vpn_cache.clear()
        tables_before = table.table_pages()
        for vpn, ppn in harness.first_touches.items():
            assert table.ensure_mapped(vpn) == ppn
        assert table.table_pages() == tables_before
        assert table.mapped_pages == len(harness.first_touches)


class TestWalkMemo:
    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS)
    def test_walk_lines_are_the_entry_address_lines(self, ops):
        harness = _Table()
        table = harness.replay(ops)
        for vpn in harness.first_touches:
            expected = tuple(
                address >> LINE_SHIFT for address in table.entry_addresses(vpn)
            )
            assert table.walk_lines(vpn) == expected
            assert table._walk_lines[vpn] == expected
        # Mapping more pages never invalidates a memoized walk.
        for vpn in range(_HEAP_VPN, _HEAP_VPN + 8):
            table.ensure_mapped(vpn)
        for vpn, lines in table._walk_lines.items():
            assert lines == tuple(
                address >> LINE_SHIFT for address in table.entry_addresses(vpn)
            )
