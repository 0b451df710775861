"""Units for the hardened persistence layer (``repro.persist``).

Covers the atomic write primitive, the checksummed JSON envelope (stamp
embedded on write, verified and stripped on read, legacy files pass
through), the ``.bak`` backup generation, and the deterministic
storage-fault injector that PR 10 plugs in underneath every write.
"""

import json
import os

import pytest

from repro import persist
from repro.common.errors import (
    ConfigError,
    CorruptPayloadError,
    PersistWriteError,
)
from repro.faults.storage import (
    FAULT_KINDS,
    STORAGE_FAULTS_ENV,
    STORAGE_PROFILES,
    StorageFaultConfig,
    StorageFaultInjector,
    config_from_env,
    config_to_env,
    resolve_storage_profile,
)


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts and ends with fault injection disarmed."""
    persist.install_storage_faults(None)
    yield
    persist.install_storage_faults(None)


# -- atomic_write_bytes -------------------------------------------------------


class TestAtomicWriteBytes:
    def test_writes_and_returns_path(self, tmp_path):
        path = tmp_path / "blob.bin"
        result = persist.atomic_write_bytes(path, b"hello")
        assert result == path
        assert path.read_bytes() == b"hello"

    def test_replaces_previous_content(self, tmp_path):
        path = tmp_path / "blob.bin"
        persist.atomic_write_bytes(path, b"old")
        persist.atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "blob.bin"
        persist.atomic_write_bytes(path, b"x")
        assert path.read_bytes() == b"x"

    def test_leaves_no_temp_file_behind(self, tmp_path):
        path = tmp_path / "blob.bin"
        persist.atomic_write_bytes(path, b"data")
        assert os.listdir(tmp_path) == ["blob.bin"]


# -- checksummed JSON envelopes ----------------------------------------------


class TestJsonEnvelope:
    def test_round_trip_strips_stamp(self, tmp_path):
        path = tmp_path / "doc.json"
        payload = {"alpha": 1, "beta": [1, 2, 3], "gamma": {"x": "y"}}
        persist.write_json(path, payload)
        assert persist.read_json(path) == payload

    def test_stamp_lands_on_disk(self, tmp_path):
        path = tmp_path / "doc.json"
        persist.write_json(path, {"a": 1})
        on_disk = json.loads(path.read_text())
        stamp = on_disk[persist.PERSIST_KEY]
        assert stamp["format"] == persist.PERSIST_FORMAT_VERSION
        assert stamp["sha256"] == persist.payload_checksum({"a": 1})

    def test_indented_and_compact_share_a_checksum(self, tmp_path):
        """The stamp covers the canonical encoding, not the disk bytes."""
        compact = tmp_path / "compact.json"
        pretty = tmp_path / "pretty.json"
        persist.write_json(compact, {"a": 1, "b": 2})
        persist.write_json(pretty, {"a": 1, "b": 2}, indent=2)
        stamp = lambda p: json.loads(p.read_text())[persist.PERSIST_KEY]
        assert stamp(compact)["sha256"] == stamp(pretty)["sha256"]
        assert persist.read_json(pretty) == {"a": 1, "b": 2}

    def test_non_dict_payload_is_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            persist.write_json(tmp_path / "x.json", [1, 2, 3])

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            persist.read_json(tmp_path / "absent.json")

    def test_garbage_raises_corrupt_with_parse_check(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\x00\xffnot json")
        with pytest.raises(CorruptPayloadError) as info:
            persist.read_json(path)
        assert info.value.check == "parse"

    def test_non_object_document_raises_schema_check(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CorruptPayloadError) as info:
            persist.read_json(path)
        assert info.value.check == "schema"

    def test_tampered_value_raises_checksum_check(self, tmp_path):
        path = tmp_path / "doc.json"
        persist.write_json(path, {"count": 10})
        path.write_text(path.read_text().replace('"count": 10', '"count": 99'))
        with pytest.raises(CorruptPayloadError) as info:
            persist.read_json(path)
        assert info.value.check == "checksum"
        assert info.value.hint == persist.FSCK_HINT

    def test_malformed_stamp_raises_stamp_check(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"a": 1, persist.PERSIST_KEY: "bogus"}))
        with pytest.raises(CorruptPayloadError) as info:
            persist.read_json(path)
        assert info.value.check == "stamp"

    def test_legacy_stampless_file_reads_fine(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"old": True}))
        assert persist.read_json(path) == {"old": True}

    def test_read_json_or_none_tolerates_everything(self, tmp_path):
        missing = tmp_path / "absent.json"
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_bytes(b"{{{")
        good = tmp_path / "good.json"
        persist.write_json(good, {"v": 1})
        assert persist.read_json_or_none(missing) is None
        assert persist.read_json_or_none(corrupt) is None
        assert persist.read_json_or_none(good) == {"v": 1}


class TestVerifyFile:
    def test_statuses(self, tmp_path):
        good = tmp_path / "good.json"
        persist.write_json(good, {"a": 1})
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"a": 1}))
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_bytes(b"nope")
        assert persist.verify_file(good)[0] == "ok"
        assert persist.verify_file(legacy)[0] == "legacy"
        assert persist.verify_file(corrupt)[0] == "corrupt"
        assert persist.verify_file(tmp_path / "absent.json")[0] == "missing"

    def test_tampered_stamped_file_is_corrupt(self, tmp_path):
        path = tmp_path / "doc.json"
        persist.write_json(path, {"n": 5})
        path.write_text(path.read_text().replace('"n": 5', '"n": 6'))
        status, detail = persist.verify_file(path)
        assert status == "corrupt"
        assert "checksum" in detail


class TestBackup:
    def test_backup_preserves_previous_generation(self, tmp_path):
        path = tmp_path / "manifest.json"
        persist.write_json(path, {"gen": 1}, backup=True)
        assert not persist.backup_path(path).exists()  # nothing to back up yet
        persist.write_json(path, {"gen": 2}, backup=True)
        assert persist.read_json(path) == {"gen": 2}
        assert persist.read_json(persist.backup_path(path)) == {"gen": 1}

    def test_backup_survives_primary_corruption(self, tmp_path):
        path = tmp_path / "manifest.json"
        persist.write_json(path, {"gen": 1}, backup=True)
        persist.write_json(path, {"gen": 2}, backup=True)
        path.write_bytes(b"trashed")
        assert persist.read_json_or_none(path) is None
        assert persist.read_json(persist.backup_path(path)) == {"gen": 1}


class TestVerifiedWrite:
    def test_silent_corruption_is_rewritten_until_it_reads_back(self, tmp_path):
        # Seeded schedule: torn or bit-rotted writes report success, and
        # only the read-back catches them.
        injector = StorageFaultInjector(
            StorageFaultConfig(enabled=True, torn_write_rate=0.2,
                               bitrot_rate=0.1, storage_seed=3)
        )
        persist.install_storage_faults(injector)
        for i in range(20):
            path = tmp_path / f"doc{i}.json"
            persist.write_json_verified(path, {"i": i}, site="t")
            assert persist.read_json(path, site="t") == {"i": i}
        assert injector.injected, "the schedule never corrupted a write"

    def test_persistent_corruption_raises_after_its_tries(self, tmp_path):
        persist.install_storage_faults(
            StorageFaultInjector(
                StorageFaultConfig(enabled=True, torn_write_rate=1.0)
            )
        )
        with pytest.raises(PersistWriteError, match="read back intact"):
            persist.write_json_verified(tmp_path / "doc.json", {"a": 1})


# -- storage-fault configuration ---------------------------------------------


class TestStorageFaultConfig:
    def test_rates_are_validated(self):
        with pytest.raises(ConfigError):
            StorageFaultConfig(enabled=True, enospc_rate=1.5)

    def test_active_requires_a_positive_rate(self):
        assert not StorageFaultConfig(enabled=True).active
        assert StorageFaultConfig(enabled=True, torn_write_rate=0.1).active
        assert not StorageFaultConfig(enabled=False, torn_write_rate=0.1).active

    def test_profiles_resolve_with_seed(self):
        config = resolve_storage_profile("storm", storage_seed=42)
        assert config.storage_seed == 42
        assert config.active

    def test_off_profile_resolves_to_none(self):
        assert resolve_storage_profile("off") is None

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigError):
            resolve_storage_profile("meteor")

    def test_env_round_trip(self):
        config = resolve_storage_profile("torn", storage_seed=9)
        value = config_to_env(config, "torn")
        assert value == "torn:9"
        assert config_from_env(value) == config
        assert config_from_env("") is None
        assert config_from_env("off") is None

    def test_env_bad_seed_raises(self):
        with pytest.raises(ConfigError):
            config_from_env("storm:banana")


# -- the injector -------------------------------------------------------------


def _plans(config, writes=40, site="site", nbytes=256):
    injector = StorageFaultInjector(config)
    return [injector.plan_write(site, f"f{i}", nbytes) for i in range(writes)]


class TestStorageFaultInjector:
    def test_schedule_is_deterministic(self):
        config = STORAGE_PROFILES["storm"]
        assert _plans(config) == _plans(config)

    def test_seed_changes_the_schedule(self):
        base = resolve_storage_profile("storm", storage_seed=1)
        other = resolve_storage_profile("storm", storage_seed=2)
        assert _plans(base) != _plans(other)

    def test_sites_draw_independent_streams(self):
        """Interleaving writes to another site must not perturb a site's
        schedule — two processes writing different sites stay aligned."""
        config = resolve_storage_profile("storm", storage_seed=3)
        solo = StorageFaultInjector(config)
        solo_plans = [solo.plan_write("a", f"f{i}", 128) for i in range(20)]
        mixed = StorageFaultInjector(config)
        mixed_plans = []
        for i in range(20):
            mixed.plan_write("b", f"g{i}", 128)
            mixed_plans.append(mixed.plan_write("a", f"f{i}", 128))
        assert solo_plans == mixed_plans

    def test_inactive_config_never_injects(self):
        plans = _plans(StorageFaultConfig())
        assert all(plan.kind is None for plan in plans)

    def test_counters_tally_injected_kinds(self):
        config = resolve_storage_profile("storm", storage_seed=5)
        injector = StorageFaultInjector(config)
        for i in range(200):
            injector.plan_write("s", f"f{i}", 64)
        counters = injector.counters()
        assert set(counters) == set(FAULT_KINDS)
        assert sum(counters.values()) == len(injector.injected)
        assert sum(counters.values()) > 0

    def test_torn_keeps_a_strict_prefix(self):
        config = StorageFaultConfig(enabled=True, torn_write_rate=1.0)
        injector = StorageFaultInjector(config)
        for i in range(50):
            plan = injector.plan_write("s", f"f{i}", 100)
            assert plan.kind == "torn"
            assert 0 <= plan.keep_bytes <= 90  # torn_keep_fraction_max

    def test_bitrot_flips_within_the_payload(self):
        config = StorageFaultConfig(enabled=True, bitrot_rate=1.0)
        injector = StorageFaultInjector(config)
        for i in range(50):
            plan = injector.plan_write("s", f"f{i}", 100)
            assert plan.kind == "bitrot"
            assert 0 <= plan.flip_bit < 800


# -- injection under the write path ------------------------------------------


def _arm(**rates):
    persist.install_storage_faults(
        StorageFaultInjector(StorageFaultConfig(enabled=True, **rates))
    )


class TestInjectedWrites:
    @pytest.mark.parametrize("rate_name", ["enospc_rate", "eio_rate",
                                           "fsync_fail_rate"])
    def test_hard_failures_raise_and_keep_old_content(self, tmp_path, rate_name):
        path = tmp_path / "doc.json"
        persist.write_json(path, {"gen": 1})
        _arm(**{rate_name: 1.0})
        with pytest.raises(PersistWriteError) as info:
            persist.write_json(path, {"gen": 2})
        assert info.value.hint  # every failure carries a remediation
        persist.install_storage_faults(None)
        assert persist.read_json(path) == {"gen": 1}

    def test_enospc_carries_errno_and_hint(self, tmp_path):
        _arm(enospc_rate=1.0)
        with pytest.raises(PersistWriteError) as info:
            persist.atomic_write_bytes(tmp_path / "x.bin", b"data")
        import errno
        assert info.value.errno == errno.ENOSPC
        assert "disk space" in info.value.hint

    def test_torn_write_is_silent_but_detected_on_read(self, tmp_path):
        path = tmp_path / "doc.json"
        _arm(torn_write_rate=1.0)
        persist.write_json(path, {"payload": list(range(50))})  # no error
        persist.install_storage_faults(None)
        assert path.exists()
        with pytest.raises(CorruptPayloadError):
            persist.read_json(path)
        assert persist.verify_file(path)[0] == "corrupt"

    def test_bitrot_is_silent_but_never_verifies_ok(self, tmp_path):
        path = tmp_path / "doc.json"
        _arm(bitrot_rate=1.0)
        persist.write_json(path, {"payload": list(range(50))})  # no error
        persist.install_storage_faults(None)
        # One flipped bit can at worst demote the file to "legacy" (if it
        # lands in the stamp key itself); it must never verify as "ok".
        assert persist.verify_file(path)[0] != "ok"

    def test_fault_failure_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "doc.json"
        _arm(eio_rate=1.0)
        with pytest.raises(PersistWriteError):
            persist.atomic_write_bytes(path, b"data")
        persist.install_storage_faults(None)
        assert os.listdir(tmp_path) == []


class TestEnvArming:
    def test_env_hook_arms_lazily(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORAGE_FAULTS_ENV, "enospc:11")
        persist.reset_storage_faults()
        injector = persist.active_injector()
        assert injector is not None
        assert injector.config.enospc_rate > 0
        assert injector.config.storage_seed == 11
        with pytest.raises(PersistWriteError):
            persist.write_json(tmp_path / "x.json", {"a": 1})

    def test_env_off_means_disarmed(self, monkeypatch):
        monkeypatch.setenv(STORAGE_FAULTS_ENV, "off")
        persist.reset_storage_faults()
        assert persist.active_injector() is None

    def test_install_none_suppresses_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORAGE_FAULTS_ENV, "enospc")
        persist.install_storage_faults(None)
        assert persist.active_injector() is None
        persist.write_json(tmp_path / "x.json", {"a": 1})  # no faults fire
