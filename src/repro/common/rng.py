"""Deterministic random-number streams.

Every source of randomness in the simulator draws from a
:class:`DeterministicRng`, which is seeded from a *name* and a global seed.
Two runs with the same configuration therefore produce bit-identical
results, and independent subsystems (e.g. two cores running the same
workload) get decorrelated streams simply by using different names.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def _seed_from_name(global_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{global_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRng:
    """A named, reproducible random stream.

    Parameters
    ----------
    name:
        Identifies the stream; streams with different names are independent.
    global_seed:
        The experiment-wide seed.
    """

    def __init__(self, name: str, global_seed: int = 0):
        self.name = name
        self.global_seed = global_seed
        self._random = random.Random(_seed_from_name(global_seed, name))

    def derive(self, suffix: str) -> "DeterministicRng":
        """Return an independent child stream named ``<name>/<suffix>``."""
        return DeterministicRng(f"{self.name}/{suffix}", self.global_seed)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""
        return self._random.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Return a uniformly-chosen element of *seq*."""
        return self._random.choice(seq)

    def shuffle(self, seq: list) -> None:
        """Shuffle *seq* in place."""
        self._random.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> list:
        """Return *k* distinct elements of *seq*."""
        return self._random.sample(seq, k)

    def sample_below(self, n: int, k: int) -> list:
        """Return ``sample(range(n), k)``, draw for draw.

        For ``k <= 5`` and ``n > 21`` the standard library tracks its
        picks in a set and redraws ``_randbelow(n)`` on a repeat, and
        ``_randbelow`` redraws ``getrandbits(n.bit_length())`` until the
        value is below *n*.  This loop makes the same ``getrandbits``
        calls and keeps the same values, without ``sample``'s population
        type check and set bookkeeping.  Other shapes defer to
        ``sample``; tests/property/test_rng_draws.py pins both against
        the standard library.
        """
        if n <= 21 or not 0 <= k <= 5:
            return self._random.sample(range(n), k)
        getrandbits = self._random.getrandbits
        bits = n.bit_length()
        picked: list = []
        for _ in range(k):
            value = getrandbits(bits)
            while value >= n or value in picked:
                value = getrandbits(bits)
            picked.append(value)
        return picked

    def flags(self, n: int, p: float) -> list:
        """Return *n* flags, each ``random() < p``, in draw order."""
        random = self._random.random
        return [random() < p for _ in range(n)]

    def expovariate(self, rate: float) -> float:
        """Return an exponentially-distributed float with the given rate."""
        return self._random.expovariate(rate)

    def zipf_index(self, n: int, skew: float = 0.99) -> int:
        """Return an index in ``[0, n)`` with a Zipf-like distribution.

        Uses the standard inverse-power approximation, which is fast and
        accurate enough for workload synthesis.
        """
        if n <= 0:
            raise ValueError("zipf_index needs a positive range")
        u = self._random.random()
        # Inverse-CDF approximation of the Zipf distribution; exact for
        # skew -> 1 shapes used by the workload generators.
        index = int(n ** (u ** (1.0 / (1.0 - skew + 1e-9)))) if skew < 1.0 else 0
        if skew >= 1.0:
            # Harmonic-series inversion for skew >= 1.
            index = min(int((n + 1) ** u) - 1, n - 1)
        return min(max(index, 0), n - 1)

    def geometric(self, p: float) -> int:
        """Return a geometric variate (number of trials until success, >= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError("geometric probability must be in (0, 1]")
        count = 1
        while self._random.random() >= p:
            count += 1
        return count

    def permutation(self, n: int) -> list:
        """Return a random permutation of ``range(n)``."""
        order = list(range(n))
        self._random.shuffle(order)
        return order

    def iter_randints(self, low: int, high: int) -> Iterator[int]:
        """Yield an endless stream of uniform integers in ``[low, high]``."""
        while True:
            yield self._random.randint(low, high)
