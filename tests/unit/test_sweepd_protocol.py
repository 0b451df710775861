"""Framing, chaos filtering, and addressing for the sweep service."""

import pytest

from repro.common.errors import SweepdError
from repro.common.rng import DeterministicRng
from repro.faults.chaos import ChaosConfig
from repro.sweepd.protocol import (
    FrameBuffer,
    apply_chaos,
    default_address,
    encode_frame,
    parse_address,
)


class TestFraming:
    def test_round_trip_single_frame(self):
        message = {"type": "lease", "worker": "w0", "seq": 7}
        out = FrameBuffer().feed(encode_frame(message))
        assert out == [message]

    def test_reassembles_across_arbitrary_segmentation(self):
        messages = [{"type": "heartbeat", "steps": i} for i in range(5)]
        wire = b"".join(encode_frame(m) for m in messages)
        buffer = FrameBuffer()
        seen = []
        # Feed one byte at a time: worst-case TCP segmentation.
        for index in range(len(wire)):
            seen.extend(buffer.feed(wire[index:index + 1]))
        assert seen == messages

    def test_multiple_frames_in_one_read(self):
        messages = [{"a": 1}, {"b": 2}, {"c": 3}]
        wire = b"".join(encode_frame(m) for m in messages)
        assert FrameBuffer().feed(wire) == messages

    def test_oversize_claim_raises(self):
        buffer = FrameBuffer()
        with pytest.raises(SweepdError, match="stream corrupt"):
            buffer.feed(b"\xff\xff\xff\xff")

    def test_undecodable_body_raises(self):
        import struct

        body = b"\x00not json"
        with pytest.raises(SweepdError, match="undecodable"):
            FrameBuffer().feed(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_rejected(self):
        import struct

        body = b"[1, 2]"
        with pytest.raises(SweepdError, match="expected object"):
            FrameBuffer().feed(struct.pack(">I", len(body)) + body)


class TestChaos:
    def test_inactive_chaos_is_identity(self):
        frames = [{"i": i} for i in range(4)]
        rng = DeterministicRng("chaos/recv", 0)
        assert apply_chaos(frames, rng, None) == frames
        off = ChaosConfig(enabled=False, drop_rate=1.0)
        assert apply_chaos(frames, rng, off) == frames

    def test_drop_everything(self):
        chaos = ChaosConfig(enabled=True, drop_rate=1.0)
        rng = DeterministicRng("chaos/recv", 0)
        assert apply_chaos([{"i": 1}, {"i": 2}], rng, chaos) == []

    def test_duplicate_everything(self):
        chaos = ChaosConfig(enabled=True, duplicate_rate=1.0)
        rng = DeterministicRng("chaos/recv", 0)
        out = apply_chaos([{"i": 1}, {"i": 2}], rng, chaos)
        assert out == [{"i": 1}, {"i": 1}, {"i": 2}, {"i": 2}]

    def test_reorder_swaps_adjacent_pairs(self):
        chaos = ChaosConfig(enabled=True, reorder_rate=1.0)
        rng = DeterministicRng("chaos/recv", 0)
        out = apply_chaos([{"i": 1}, {"i": 2}, {"i": 3}], rng, chaos)
        assert out == [{"i": 2}, {"i": 1}, {"i": 3}]

    def test_schedule_is_deterministic_in_the_seed(self):
        chaos = ChaosConfig(
            enabled=True, drop_rate=0.3, duplicate_rate=0.3, reorder_rate=0.3
        )
        batches = [[{"i": i, "b": b} for i in range(6)] for b in range(10)]

        def mangle(seed):
            rng = DeterministicRng("chaos/recv", seed)
            return [apply_chaos(batch, rng, chaos) for batch in batches]

        assert mangle(42) == mangle(42)
        assert mangle(42) != mangle(43)

    def test_rates_validated(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            ChaosConfig(drop_rate=1.5)
        with pytest.raises(ConfigError):
            ChaosConfig(stall_seconds=-1.0)


class TestAddressing:
    def test_tcp_round_trip(self):
        assert parse_address("tcp:127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_unix_round_trip(self):
        assert parse_address("unix:/tmp/x.sock") == "/tmp/x.sock"

    def test_bad_spec_raises(self):
        with pytest.raises(SweepdError, match="bad address"):
            parse_address("nonsense")

    def test_default_address_prefers_unix(self, tmp_path):
        spec = default_address(tmp_path)
        assert spec.startswith("unix:")

    def test_default_address_falls_back_to_tcp_for_deep_roots(self, tmp_path):
        deep = tmp_path / ("x" * 120)
        assert default_address(deep) == "tcp:127.0.0.1:0"
