"""Properties of :class:`repro.common.timeline.BankedTimeline`.

Banked timelines model every multi-bank resource (DRAM and NVM banks,
the PRTc ports), and ``least_loaded`` picks the bank a swap lands on.
These properties replay random traffic against a two-list reference
model — per bank, ``busy_until`` and ``total_busy`` — and require the
same grants, the same state, the same first-index tie-breaking and the
same utilization, with raw bank indices wrapped modulo the bank count
the way the device's ``line % banks`` mapping produces them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timeline import BankedTimeline
from repro.snapshot import codec

#: One step of traffic: (raw bank index, now-increment, duration).  The raw
#: index deliberately exceeds any bank count so tests exercise modulo
#: wraparound exactly like the device's ``line % banks`` mapping.
_STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=60,
)

_COUNTS = st.integers(min_value=1, max_value=9)


class _Model:
    """Per-bank ``busy_until``/``total_busy`` lists: the timeline contract."""

    def __init__(self, count):
        self.busy_until = [0] * count
        self.total_busy = [0] * count

    def reserve(self, index, now, duration):
        start = max(now, self.busy_until[index])
        self.busy_until[index] = start + duration
        self.total_busy[index] += duration
        return start, start + duration


def _replay(count, steps):
    """Run *steps* on a fresh timeline and model; return both and the clock."""
    banked, model = BankedTimeline(count), _Model(count)
    now = 0
    for raw_index, advance, duration in steps:
        now += advance
        index = raw_index % count  # device-style modulo wraparound
        assert banked.reserve(index, now, duration) == model.reserve(
            index, now, duration
        )
    return banked, model, now


def _state(banked):
    return (
        [banked[index].busy_until for index in range(len(banked))],
        [banked[index].total_busy for index in range(len(banked))],
    )


class TestBankedTimeline:
    @settings(max_examples=200, deadline=None)
    @given(count=_COUNTS, steps=_STEPS)
    def test_reserve_sequence_matches_the_model(self, count, steps):
        banked, model, _ = _replay(count, steps)
        assert _state(banked) == (model.busy_until, model.total_busy)

    @settings(max_examples=200, deadline=None)
    @given(count=_COUNTS, steps=_STEPS)
    def test_least_loaded_is_the_first_index_of_the_minimum(self, count, steps):
        banked, model, now = _replay(count, steps)
        # Probe before, at and beyond the busy horizon, and at each bank's
        # own horizon, so the all-free tie, the early exit and the
        # all-busy minimum paths are all exercised.
        for probe in {0, now, now + 100, *model.busy_until}:
            expected = min(
                range(count), key=lambda i: (max(probe, model.busy_until[i]), i)
            )
            assert banked.least_loaded(probe) == expected

    @settings(max_examples=200, deadline=None)
    @given(durations=st.lists(st.integers(min_value=1, max_value=3),
                              min_size=2, max_size=9))
    def test_least_loaded_breaks_busy_ties_toward_the_lowest_index(
        self, durations
    ):
        """Every bank busy, several sharing the earliest horizon: the
        first of them wins, not the last."""
        banked = BankedTimeline(len(durations))
        for index, duration in enumerate(durations):
            banked.reserve(index, 0, duration)
        for probe in range(max(durations) + 1):
            free_at = [max(probe, duration) for duration in durations]
            assert banked.least_loaded(probe) == free_at.index(min(free_at))

    @settings(max_examples=100, deadline=None)
    @given(count=_COUNTS, elapsed=st.integers(min_value=-5, max_value=500),
           steps=_STEPS)
    def test_utilization_is_the_mean_of_capped_bank_shares(
        self, count, elapsed, steps
    ):
        banked, model, _ = _replay(count, steps)
        if elapsed <= 0:
            expected = 0.0
        else:
            expected = sum(
                min(1.0, busy / elapsed) for busy in model.total_busy
            ) / count
        assert banked.utilization(elapsed) == expected

    @settings(max_examples=100, deadline=None)
    @given(count=_COUNTS, steps=_STEPS)
    def test_grants_on_one_bank_never_overlap(self, count, steps):
        banked = BankedTimeline(count)
        grants = {index: [] for index in range(count)}
        now = 0
        for raw_index, advance, duration in steps:
            now += advance
            index = raw_index % count
            start, end = banked.reserve(index, now, duration)
            assert start >= now and end - start == duration
            grants[index].append((start, end))
        for index, intervals in grants.items():
            for (_, previous_end), (start, _) in zip(intervals, intervals[1:]):
                assert start >= previous_end
            assert banked[index].total_busy == sum(e - s for s, e in intervals)
            assert banked[index].busy_until == (intervals[-1][1] if intervals else 0)

    @settings(max_examples=150, deadline=None)
    @given(count=st.integers(min_value=1, max_value=6),
           now=st.integers(min_value=0, max_value=200),
           duration=st.integers(min_value=1, max_value=20),
           raw_indices=st.lists(st.integers(min_value=0, max_value=1000),
                                max_size=40),
           steps=_STEPS)
    def test_repeated_bank_chains_behind_its_own_grants(
        self, count, now, duration, raw_indices, steps
    ):
        """A burst at one time: the k-th grant on a bank ends k durations
        after the later of *now* and that bank's horizon."""
        banked, model, _ = _replay(count, steps)
        horizon = list(model.busy_until)
        seen = [0] * count
        for raw in raw_indices:
            index = raw % count
            seen[index] += 1
            _, end = banked.reserve(index, now, duration)
            assert end == max(now, horizon[index]) + seen[index] * duration

    @settings(max_examples=50, deadline=None)
    @given(count=_COUNTS, steps=_STEPS, more=_STEPS)
    def test_round_trips_the_snapshot_codec(self, count, steps, more):
        """Timelines sit in every checkpointed device; a restored one keeps
        the same state and grants the same intervals afterwards."""
        banked, _, now = _replay(count, steps)
        restored = codec.loads(codec.dumps(banked))
        assert _state(restored) == _state(banked)
        for raw_index, advance, duration in more:
            now += advance
            index = raw_index % count
            assert restored.reserve(index, now, duration) == banked.reserve(
                index, now, duration
            )
        assert _state(restored) == _state(banked)
