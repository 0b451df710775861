"""The engine's chunk prep kernel agrees with the scalar per-op path.

:func:`repro.sim.engine._prep_chunk` is the one per-chunk pass that
lifts a chunk's columns into everything the drain loop indexes per op.
Each column must equal what :meth:`repro.sim.cpu.Core.execute` derives
for the same op — the page table's translation, the physical line, the
L1's ``(set, tag)`` split, the op's work and its clock advance — and
pages the table has not mapped must be listed, in op order, for the
drain loop to re-resolve.  Prep must not map anything
itself.  The properties run against a warmed-up system's real page
table and cache geometry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addr import PAGE_BYTES, PAGE_SHIFT, address_of_page, line_of, page_offset
from repro.sim.engine import _prep_chunk
from repro.sim.system import build_system
from repro.workloads import workload_by_name
from repro.workloads.chunks import OpChunk

_COLUMNS = ("vpns", "lines", "l1_sets", "l1_tags", "cumw", "advs", "unmapped")


@pytest.fixture(scope="module")
def core():
    system = build_system("pageseer", workload_by_name("mcfx8"), scale=1024, seed=0)
    system.run_ops(200)
    return system.cores[0]


def _chunk_ops(mapped_vpns):
    """(vaddr, instructions) pairs over mapped pages and pages never touched."""
    mapped = st.sampled_from(mapped_vpns)
    unmapped = st.integers(min_value=1, max_value=64).map(
        lambda offset: max(mapped_vpns) + offset
    )
    vaddrs = st.tuples(
        st.one_of(mapped, mapped, unmapped),
        st.integers(min_value=0, max_value=PAGE_BYTES - 1),
    ).map(lambda pair: (pair[0] << PAGE_SHIFT) | pair[1])
    return st.lists(
        st.tuples(vaddrs, st.integers(min_value=0, max_value=30)), max_size=80
    )


def _prep(core, ops):
    chunk = OpChunk(
        [vaddr for vaddr, _ in ops],
        [index % 3 == 0 for index in range(len(ops))],
        [instructions for _, instructions in ops],
    )
    columns = _prep_chunk(
        chunk,
        core._page_table._vpn_cache,
        core._base_cpi,
        core.hierarchy.l1[core.core_id].num_sets,
    )
    assert len(columns) == len(_COLUMNS)
    return chunk, dict(zip(_COLUMNS, columns))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_columns_match_the_scalar_path(core, data):
    table = core._page_table
    ops = data.draw(_chunk_ops(sorted(table._vpn_cache)))
    chunk, columns = _prep(core, ops)
    l1 = core.hierarchy.l1[core.core_id]
    for index, vaddr in enumerate(chunk.vaddrs):
        vpn = vaddr >> PAGE_SHIFT
        assert columns["vpns"][index] == vpn
        ppn = table.translate(vpn)
        if ppn is None:
            assert columns["lines"][index] == -1
            continue
        line = line_of(address_of_page(ppn) | page_offset(vaddr))
        assert columns["lines"][index] == line
        located = (columns["l1_sets"][index], columns["l1_tags"][index])
        assert located == l1._locate(line)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unmapped_ops_are_listed_in_op_order(core, data):
    table = core._page_table
    ops = data.draw(_chunk_ops(sorted(table._vpn_cache)))
    chunk, columns = _prep(core, ops)
    expected = [
        index for index, vaddr in enumerate(chunk.vaddrs)
        if table.translate(vaddr >> PAGE_SHIFT) is None
    ]
    assert columns["unmapped"] == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_work_columns_match_the_scalar_clock(core, data):
    """``cumw`` is the exclusive prefix sum of each op's work
    (instructions before it, plus itself) and ``advs`` the clock advance
    ``Core.execute`` charges for that work."""
    ops = data.draw(_chunk_ops(sorted(core._page_table._vpn_cache)))
    chunk, columns = _prep(core, ops)
    cumw, advs = columns["cumw"], columns["advs"]
    assert len(cumw) == chunk.length + 1 and cumw[0] == 0
    for index, instructions in enumerate(chunk.instr):
        work = instructions + 1
        assert cumw[index + 1] - cumw[index] == work
        assert advs[index] == work * core._base_cpi
    for name in _COLUMNS[:4] + ("advs",):
        assert len(columns[name]) == chunk.length, name


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_prep_maps_nothing(core, data):
    table = core._page_table
    ops = data.draw(_chunk_ops(sorted(table._vpn_cache)))
    cache_before = dict(table._vpn_cache)
    mapped_before = table.mapped_pages
    _prep(core, ops)
    assert table._vpn_cache == cache_before
    assert table.mapped_pages == mapped_before


def test_empty_chunk_yields_empty_columns(core):
    _, columns = _prep(core, [])
    assert columns["cumw"] == [0]
    for name in _COLUMNS:
        if name != "cumw":
            assert columns[name] == [], name
