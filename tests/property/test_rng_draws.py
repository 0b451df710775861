"""Property suite: the workload generators' one-call draws.

:meth:`DeterministicRng.sample_below` stands in for
``sample(range(n), k)`` and :meth:`DeterministicRng.flags` for a
per-line ``random() < p`` loop.  Both must return the standard library's
values and leave the generator in the standard library's state, draw for
draw, so every generated stream (and every digest pinned on one) is
unchanged.  A twin ``random.Random`` in the same state is the oracle;
a change to the standard library's ``sample`` on some Python version
shows here first.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.rng import DeterministicRng


def _twins(seed):
    rng = DeterministicRng("draws", seed)
    twin = random.Random()
    twin.setstate(rng._random.getstate())
    return rng, twin


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 200),
    k=st.integers(0, 8),
    repeats=st.integers(1, 4),
)
def test_sample_below_is_sample_of_a_range(seed, n, k, repeats):
    assume(k <= n)
    rng, twin = _twins(seed)
    for _ in range(repeats):
        assert rng.sample_below(n, k) == twin.sample(range(n), k)
    assert rng._random.getstate() == twin.getstate()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(1, 5))
def test_sample_below_fast_shape_with_few_values(seed, k):
    """n just above the set threshold makes repeats and rejections common."""
    rng, twin = _twins(seed)
    for n in (22, 23, 32, 33, 64):
        assert rng.sample_below(n, k) == twin.sample(range(n), k)
    assert rng._random.getstate() == twin.getstate()


def test_sample_below_rejects_what_sample_rejects():
    rng = DeterministicRng("draws", 0)
    with pytest.raises(ValueError):
        rng.sample_below(4, 5)
    with pytest.raises(ValueError):
        rng.sample_below(64, -1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(0, 80),
    p=st.floats(0.0, 1.0),
)
def test_flags_are_a_random_loop(seed, n, p):
    rng, twin = _twins(seed)
    assert rng.flags(n, p) == [twin.random() < p for _ in range(n)]
    assert rng._random.getstate() == twin.getstate()
