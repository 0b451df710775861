"""Unit tests for the baselines' shared slot map (repro.baselines.remap)."""

import random

from repro.baselines.remap import SlotMap


class TestSlotMap:
    def test_everything_starts_at_home(self):
        slots = SlotMap()
        assert slots.slot(7) == 7
        assert slots.occupant(7) == 7

    def test_exchange_moves_member_and_returns_occupant(self):
        slots = SlotMap()
        assert slots.exchange(10, 2) == 2
        assert slots.slot(10) == 2
        assert slots.occupant(2) == 10
        # The displaced occupant takes the member's old slot.
        assert slots.slot(2) == 10
        assert slots.occupant(10) == 2

    def test_swapping_back_leaves_no_entries(self):
        slots = SlotMap()
        slots.exchange(10, 2)
        assert slots.exchange(2, 2) == 10
        assert slots._slot_of == {}
        assert slots._member_in == {}

    def test_random_exchanges_keep_a_minimal_bijection(self):
        rng = random.Random(0)
        slots = SlotMap()
        fast = range(4)
        members = range(4, 16)
        for _ in range(500):
            slots.exchange(rng.choice(members), rng.choice(fast))
            for key in range(16):
                assert slots.occupant(slots.slot(key)) == key
            assert all(k != v for k, v in slots._slot_of.items())
            assert all(k != v for k, v in slots._member_in.items())
            assert sorted(slots._slot_of) == sorted(slots._member_in.values())
