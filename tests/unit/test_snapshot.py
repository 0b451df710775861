"""Units for the checkpoint/restore machinery (``repro.snapshot``)."""

import json
import pickle
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CheckpointError, CheckpointInterrupt
from repro.common.stats import StatsRegistry
from repro.snapshot import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpointer,
    ReplayStream,
    SignalGuard,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
    register_codec,
)
from repro.snapshot import codec
from repro.snapshot.checkpoint import MAGIC
from repro.workloads import workload_by_name

from tests.conftest import take_ops


# -- codec: stats handles -----------------------------------------------------


class TestStatsHandleCodec:
    def test_counter_handle_rebinds_into_shared_registry(self):
        """The regression the snapshot design hinges on: a handle created
        BEFORE the checkpoint must record into the restored registry that
        every other component shares, not into a private copy."""
        registry = StatsRegistry()
        handle = registry.counter("hmc/hits")
        handle(3)
        blob = codec.dumps({"registry": registry, "handle": handle})
        restored = codec.loads(blob)
        assert restored["registry"].get("hmc/hits") == 3
        restored["handle"](2)
        assert restored["registry"].get("hmc/hits") == 5

    def test_observer_handle_rebinds_into_shared_registry(self):
        registry = StatsRegistry()
        observe = registry.observer("lat")
        observe(10.0)
        restored = codec.loads(codec.dumps({"r": registry, "o": observe}))
        restored["o"](30.0)
        assert restored["r"].mean("lat") == 20.0
        assert restored["r"].maximum("lat") == 30.0

    def test_many_handles_share_one_restored_registry(self):
        registry = StatsRegistry()
        handles = [registry.counter(f"c{i}") for i in range(10)]
        restored = codec.loads(codec.dumps((registry, handles)))
        reg, new_handles = restored
        for handle in new_handles:
            handle()
        assert all(reg.get(f"c{i}") == 1 for i in range(10))

    def test_handles_survive_reset_then_checkpoint(self):
        """reset() clears the backing dicts in place; a handle snapshot
        taken after a reset must still rebind correctly."""
        registry = StatsRegistry()
        handle = registry.counter("x")
        handle(5)
        registry.reset()
        restored = codec.loads(codec.dumps((registry, handle)))
        restored[1](7)
        assert restored[0].get("x") == 7


# -- codec: rejection and registration ---------------------------------------


class _WithSocketish:
    """Stand-in for a class holding something with no stable pickle form."""

    def __init__(self):
        self.callback = lambda: None


class _CodecRegistered:
    def __init__(self, value):
        self.value = value
        self.derived = value * 2


register_codec(
    _CodecRegistered,
    encode=lambda obj: obj.value,
    decode=lambda value: _CodecRegistered(value),
)


class TestCodecDispatch:
    def test_stray_lambda_fails_with_named_object(self):
        with pytest.raises(CheckpointError, match="lambda|<lambda>"):
            codec.dumps(_WithSocketish())

    def test_live_generator_fails_with_replaystream_hint(self):
        def gen():
            yield 1

        with pytest.raises(CheckpointError, match="ReplayStream"):
            codec.dumps(gen())

    def test_module_level_functions_pickle_by_reference(self):
        blob = codec.dumps(workload_by_name)
        assert codec.loads(blob) is workload_by_name

    def test_registered_codec_roundtrip(self):
        obj = _CodecRegistered(21)
        restored = codec.loads(codec.dumps(obj))
        assert isinstance(restored, _CodecRegistered)
        assert restored.value == 21
        assert restored.derived == 42

    def test_unpickler_rejects_disallowed_modules(self):
        payload = pickle.dumps(pickle.Unpickler)  # pickle module: not allowed
        with pytest.raises(CheckpointError, match="disallowed"):
            codec.loads(payload)

    def test_random_state_roundtrips_exactly(self):
        rng = random.Random(1234)
        rng.random()
        restored = codec.loads(codec.dumps(rng))
        assert restored.random() == rng.random()


# -- replay streams -----------------------------------------------------------


class TestReplayStream:
    def test_replays_to_identical_position(self):
        workload = workload_by_name("lbmx4")
        stream = ReplayStream(workload, core_id=1, seed=3, scale=1024)
        take_ops(stream, 257)
        assert stream.consumed == 257

        restored = codec.loads(codec.dumps(stream))
        assert restored.consumed == 257
        assert take_ops(restored, 100) == take_ops(stream, 100)

    @settings(max_examples=25, deadline=None)
    @given(
        core_id=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
        consumed=st.integers(min_value=0, max_value=400),
    )
    def test_restore_roundtrips_rng_streams_exactly(self, core_id, seed, consumed):
        """Property: for any (core, seed, position), checkpoint+restore
        lands the stream's internal RNG in the identical state — the next
        ops match op-for-op."""
        workload = workload_by_name("streamx4")
        stream = ReplayStream(workload, core_id=core_id, seed=seed, scale=1024)
        take_ops(stream, consumed)
        restored = codec.loads(codec.dumps(stream))
        assert take_ops(stream, 16) == take_ops(restored, 16)


# -- checkpoint files ---------------------------------------------------------


def _tiny_system():
    from repro.sim.system import build_system

    return build_system("pageseer", workload_by_name("lbmx4"), scale=1024, seed=0)


class TestCheckpointFiles:
    def test_roundtrip_preserves_progress(self, tmp_path):
        system = _tiny_system()
        system.run_ops(50)
        path = save_checkpoint(system, tmp_path / "a.ckpt")
        restored = load_checkpoint(path)
        assert restored.steps_total == system.steps_total
        assert [core.ops_executed for core in restored.cores] == [
            core.ops_executed for core in system.cores
        ]
        assert restored.stats.snapshot() == system.stats.snapshot()

    def test_forked_serializer_matches_in_process_bytes(self, monkeypatch):
        """The copy-on-write child pickles the bytes the caller would."""
        from repro.snapshot import checkpoint

        system = _tiny_system()
        system.run_ops(50)
        forked = checkpoint._serialize(system)
        monkeypatch.setattr(checkpoint.threading, "active_count", lambda: 2)
        assert checkpoint._serialize(system) == forked

    def test_forked_serializer_reports_unpicklable_state(self, tmp_path):
        system = _tiny_system()
        system.stray = lambda: None
        with pytest.raises(CheckpointError, match="lambda"):
            save_checkpoint(system, tmp_path / "a.ckpt")
        assert not (tmp_path / "a.ckpt").exists()

    def test_header_readable_without_unpickling(self, tmp_path):
        system = _tiny_system()
        system.run_ops(10)
        path = save_checkpoint(system, tmp_path / "a.ckpt")
        header = read_checkpoint_header(path)
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert header["scheme"] == "pageseer"
        assert header["workload"] == "lbmx4"
        assert header["steps_total"] == 40  # 10 ops x 4 cores

    def test_no_temp_file_left_behind(self, tmp_path):
        save_checkpoint(_tiny_system(), tmp_path / "a.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_bad_magic_is_a_clear_error(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_version_skew_is_a_clear_error(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(b"REPRO-CKPT v999\n{}\npayload")
        with pytest.raises(CheckpointError, match="v999"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = save_checkpoint(_tiny_system(), tmp_path / "a.ckpt")
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corruption_detected_by_checksum(self, tmp_path):
        path = save_checkpoint(_tiny_system(), tmp_path / "a.ckpt")
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_header_json_version_matches_magic(self, tmp_path):
        path = save_checkpoint(_tiny_system(), tmp_path / "a.ckpt")
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        header = json.loads(raw[len(MAGIC):].split(b"\n", 1)[0])
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION

    def test_checkpointed_checker_still_works_after_restore(self, tmp_path):
        from repro.common.config import CheckConfig
        from repro.sim.system import build_system

        system = build_system(
            "pageseer", workload_by_name("lbmx4"), scale=1024, seed=0,
            check=CheckConfig(level="full"),
        )
        system.run_ops(50)
        restored = load_checkpoint(save_checkpoint(system, tmp_path / "a.ckpt"))
        assert restored.checker is not None
        # The wrapper closure was rebuilt: accesses keep being observed.
        before = restored.checker.accesses
        restored.run_ops(10)
        assert restored.checker.accesses > before
        # And the original system was reattached too (detach is transient).
        original_before = system.checker.accesses
        system.run_ops(10)
        assert system.checker.accesses > original_before


# -- run-loop hooks -----------------------------------------------------------


class TestCheckpointer:
    def test_periodic_rolling_checkpoint(self, tmp_path):
        system = _tiny_system()
        ck = Checkpointer(tmp_path, every_ops=100)
        ck.arm(system)
        system.run_ops(100)  # 400 steps -> due at 100, 200, 300, 400
        assert len(ck.written) == 4
        assert (tmp_path / "latest.ckpt").exists()

    def test_cut_points_write_distinct_files(self, tmp_path):
        system = _tiny_system()
        ck = Checkpointer(tmp_path, cut_points=[60, 150])
        ck.arm(system)
        system.run_ops(50)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["cut_150.ckpt", "cut_60.ckpt"]
        assert read_checkpoint_header(tmp_path / "cut_60.ckpt")["steps_total"] == 60

    def test_pending_signal_writes_exactly_one_final_checkpoint(self, tmp_path):
        system = _tiny_system()
        guard = SignalGuard()
        guard.pending, guard.signum = True, signal.SIGTERM
        ck = Checkpointer(tmp_path, every_ops=100, signals=guard)
        ck.arm(system)
        with pytest.raises(CheckpointInterrupt) as info:
            system.run_ops(100)
        assert info.value.signum == signal.SIGTERM
        assert info.value.path == tmp_path / "latest.ckpt"
        assert len(ck.written) == 1
        # The interrupted run is resumable.
        restored = load_checkpoint(info.value.path)
        restored.run_ops(25)


# -- signal guard -------------------------------------------------------------


class TestSignalGuard:
    def test_first_signal_sets_flag_second_force_quits(self):
        exits = []
        guard = SignalGuard(force_exit=exits.append)
        guard._handle(signal.SIGINT, None)
        assert guard.pending and guard.signum == signal.SIGINT
        assert exits == []
        guard._handle(signal.SIGTERM, None)
        assert exits == [128 + signal.SIGTERM]

    def test_handlers_installed_and_restored(self):
        previous_int = signal.getsignal(signal.SIGINT)
        previous_term = signal.getsignal(signal.SIGTERM)
        with SignalGuard() as guard:
            assert guard.installed
            assert signal.getsignal(signal.SIGINT) == guard._handle
            assert signal.getsignal(signal.SIGTERM) == guard._handle
        assert signal.getsignal(signal.SIGINT) == previous_int
        assert signal.getsignal(signal.SIGTERM) == previous_term
