"""Property suite: the Hot Page Table's count-1 index.

``HotPageTable._ones`` is derived state: the table's count-1 pages in
table order, whose first key is the eviction victim whenever one exists.
Random interleavings of ``record_miss``, ``remove`` and ``advance_time``
(whose halvings bring counts down to 1 and delete the zeros) drive two
identical tables, one of which evicts through the strict reference scan.
After every step the index must equal its definition and the two tables
must agree: counters in table order, swap-threshold signals, and every
``on_event`` call, evictions included.  ``counter_max`` 1 covers the
touch that leaves a page at count 1 and moves it to the end.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.core.hpt import HotPageTable

from tests.property.test_walk_path_differential import (
    count_one_pages,
    reference_evict_coldest,
)

INTERVAL = 1000

#: A page universe a little larger than the largest table, so misses
#: both re-touch tracked pages and evict.
_pages = st.integers(0, 20)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("miss"), _pages, st.integers(0, 50)),
        st.tuples(st.just("remove"), _pages),
        st.tuples(st.just("advance"), st.integers(0, 3 * INTERVAL)),
    ),
    max_size=200,
)


def _table(entries, counter_max, events):
    hpt = HotPageTable(entries, counter_max, INTERVAL, swap_threshold=3)
    hpt.on_event = lambda kind, value: events.append((kind, value))
    return hpt


@settings(max_examples=300, deadline=None)
@given(
    steps=_steps,
    entries=st.integers(2, 16),
    counter_max=st.sampled_from([1, 3, 63]),
)
def test_index_is_the_count_one_pages_and_evictions_match_the_scan(
    steps, entries, counter_max
):
    events, reference_events = [], []
    hpt = _table(entries, counter_max, events)
    reference = _table(entries, counter_max, reference_events)
    reference._evict_coldest = functools.partial(reference_evict_coldest, reference)
    now = 0
    for step in steps:
        if step[0] == "miss":
            _, page, delta = step
            now += delta
            assert hpt.record_miss(now, page) == reference.record_miss(now, page)
        elif step[0] == "remove":
            hpt.remove(step[1])
            reference.remove(step[1])
        else:
            now += step[1]
            hpt.advance_time(now)
            reference.advance_time(now)
        assert list(hpt._ones) == count_one_pages(hpt)
        assert list(hpt._counters.items()) == list(reference._counters.items())
        assert events == reference_events
