"""Unit tests for the shared controller machinery (repro.sim.hmc_base)."""

import pytest

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.sim.hmc_base import HmcBase, NoSwapHmc, RequestKind
from repro.vm.os_model import OsModel


def make_base(cls=NoSwapHmc):
    config = default_system_config(scale=1024, cores=1)
    stats = StatsRegistry()
    os_model = OsModel(config.memory)
    return cls(config, os_model, stats), config, stats


class TestMetadataRegion:
    def test_access_requires_reservation(self):
        hmc, _, _ = make_base()
        with pytest.raises(RuntimeError):
            hmc.metadata_access(0, 0)

    def test_reserved_pages_are_dram(self):
        hmc, config, _ = make_base()
        hmc.reserve_metadata(2)
        finish = hmc.metadata_access(0, 5)
        assert finish > 0
        # Metadata lives in the low (reserved) DRAM pages.
        assert all(
            line < config.memory.dram_pages * LINES_PER_PAGE
            for line in hmc._metadata_lines
        )

    def test_keys_wrap(self):
        hmc, _, _ = make_base()
        hmc.reserve_metadata(1)
        # Any key must map to a valid line (no IndexError).
        for key in (0, 63, 64, 10**9):
            hmc.metadata_access(0, key)

    def test_metadata_accesses_counted(self):
        hmc, _, stats = make_base()
        hmc.reserve_metadata(1)
        hmc.metadata_access(0, 0)
        assert stats.get("hmc/metadata_accesses") == 1


class TestAccountingClassification:
    @pytest.mark.parametrize(
        "home_dram,serviced,expected",
        [
            (False, "dram", "positive"),
            (False, "buffer", "positive"),
            (False, "nvm", "neutral"),
            (True, "dram", "neutral"),
            (True, "buffer", "neutral"),
            (True, "nvm", "negative"),
        ],
    )
    def test_positive_negative_neutral(self, home_dram, serviced, expected):
        hmc, config, stats = make_base()
        page = 0 if home_dram else config.memory.dram_pages
        hmc.account_service(0, 100, page, serviced, RequestKind.DEMAND)
        assert stats.get(f"hmc/{expected}_accesses") == 1

    def test_ammat_excludes_writebacks(self):
        hmc, config, stats = make_base()
        hmc.account_service(0, 100, 0, "dram", RequestKind.WRITEBACK)
        assert stats.count("hmc/ammat") == 0
        hmc.account_service(0, 100, 0, "dram", RequestKind.DEMAND)
        assert stats.count("hmc/ammat") == 1

    def test_ammat_includes_pte(self):
        hmc, _, stats = make_base()
        hmc.account_service(0, 100, 0, "dram", RequestKind.PTE)
        assert stats.count("hmc/ammat") == 1

    def test_request_kinds_counted(self):
        hmc, _, stats = make_base()
        for kind in RequestKind:
            hmc.account_service(0, 10, 0, "dram", kind)
        for kind in RequestKind:
            assert stats.get(f"hmc/requests_{kind.value}") == 1


class TestDramShareGuard:
    def test_zero_before_min_samples(self):
        hmc, _, _ = make_base()
        for _ in range(hmc.bandwidth_heuristic_min_samples - 1):
            hmc.account_service(0, 10, 0, "dram", RequestKind.DEMAND)
        assert hmc.dram_service_share == 0.0

    def test_share_after_min_samples(self):
        hmc, _, _ = make_base()
        for _ in range(hmc.bandwidth_heuristic_min_samples):
            hmc.account_service(0, 10, 0, "dram", RequestKind.DEMAND)
        assert hmc.dram_service_share == 1.0

    def test_share_fraction(self):
        hmc, config, _ = make_base()
        n = hmc.bandwidth_heuristic_min_samples
        for k in range(n):
            serviced = "dram" if k % 2 == 0 else "nvm"
            page = 0 if serviced == "dram" else config.memory.dram_pages
            hmc.account_service(0, 10, page, serviced, RequestKind.DEMAND)
        assert hmc.dram_service_share == pytest.approx(0.5)


class TestBaseInterface:
    def test_handle_request_abstract(self):
        hmc, _, _ = make_base(cls=HmcBase)
        with pytest.raises(NotImplementedError):
            hmc.handle_request(0, 0, False, 1)

    def test_mmu_hint_noop(self):
        hmc, _, _ = make_base()
        hmc.mmu_hint(0, 0, 1, 0, 0)  # must not raise

    def test_finalize_noop(self):
        hmc, _, _ = make_base()
        hmc.finalize(0)
