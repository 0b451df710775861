"""Unit tests for the flat hybrid address space.

Page and segment transfers are routed by :class:`repro.mem.main_memory.
MainMemory`; single lines by :meth:`repro.sim.hmc_base.HmcBase.line_access`
over the controller's two per-device entries.
"""

import dataclasses

import pytest

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import (
    HybridMemoryConfig,
    default_system_config,
    dram_timing_table1,
    nvm_timing_table1,
)
from repro.common.stats import StatsRegistry
from repro.mem.device import MemoryDevice
from repro.mem.main_memory import MainMemory
from repro.sim.hmc_base import NoSwapHmc
from repro.vm.os_model import OsModel

MB = 1024 * 1024

MEMORY = HybridMemoryConfig(
    dram=dram_timing_table1(2 * MB), nvm=nvm_timing_table1(16 * MB)
)


@pytest.fixture
def memory():
    return MainMemory(MEMORY, StatsRegistry())


@pytest.fixture
def hmc():
    config = dataclasses.replace(
        default_system_config(scale=1024, cores=1), memory=MEMORY
    )
    return NoSwapHmc(config, OsModel(MEMORY), StatsRegistry())


class TestRouting:
    def test_dram_range(self, hmc):
        dram_lines = MEMORY.dram_pages * LINES_PER_PAGE
        hmc.line_access(0, 0, is_write=False)
        hmc.line_access(0, dram_lines - 1, is_write=False)
        assert (hmc.memory.dram.reads, hmc.memory.nvm.reads) == (2, 0)
        hmc.line_access(0, dram_lines, is_write=False)
        assert (hmc.memory.dram.reads, hmc.memory.nvm.reads) == (2, 1)

    def test_line_reaches_its_device_local_address(self, hmc):
        """An NVM system line lands on device-local line ``line - base``."""
        dram_lines = MEMORY.dram_pages * LINES_PER_PAGE
        standalone = MemoryDevice(MEMORY.nvm, StatsRegistry())
        for offset in (0, 5, 77, 4096):
            expected = standalone.access_finish(offset * 3, offset, False)
            assert hmc.line_access(offset * 3, dram_lines + offset, False) == expected
        assert hmc.memory.nvm._open_rows == standalone._open_rows

    def test_dram_access_counts_on_dram_device(self, hmc):
        hmc.line_access(0, 10, is_write=False)
        assert hmc.memory.dram.reads == 1
        assert hmc.memory.nvm.reads == 0

    def test_nvm_access_counts_on_nvm_device(self, hmc):
        dram_lines = MEMORY.dram_pages * LINES_PER_PAGE
        hmc.line_access(0, dram_lines + 10, is_write=False)
        assert hmc.memory.nvm.reads == 1
        assert hmc.memory.dram.reads == 0

    def test_nvm_local_addressing_starts_at_zero(self, hmc):
        """The first NVM line must map like line 0 of a standalone device."""
        dram_lines = MEMORY.dram_pages * LINES_PER_PAGE
        hmc.line_access(0, dram_lines, is_write=False)
        nvm = hmc.memory.nvm
        assert nvm.row_hits == 0  # first touch: row miss
        _, bank, row = nvm.map_line(0)
        assert nvm._open_rows[bank] == row


class TestPageTransfers:
    def test_read_page_moves_64_lines(self, memory):
        memory.read_page(0, 3)
        assert memory.dram.reads == LINES_PER_PAGE

    def test_write_page_moves_64_lines(self, memory):
        memory.write_page(0, 3)
        assert memory.dram.writes == LINES_PER_PAGE

    def test_nvm_page_routed(self, memory):
        nvm_ppn = memory.config.dram_pages + 5
        memory.read_page(0, nvm_ppn)
        assert memory.nvm.reads == LINES_PER_PAGE

    def test_page_transfer_finish_monotonic(self, memory):
        finish = memory.read_page(100, 0)
        assert finish > 100

    def test_transfer_segment_partial(self, memory):
        memory.transfer_segment(0, 0, 32, is_write=False)
        assert memory.dram.reads == 32

    def test_transfer_segment_nvm(self, memory):
        dram_lines = memory.config.dram_pages * LINES_PER_PAGE
        memory.transfer_segment(0, dram_lines, 32, is_write=True)
        assert memory.nvm.writes == 32


class TestLatencyOrdering:
    def test_nvm_activation_slower_than_dram(self, hmc):
        dram_lines = MEMORY.dram_pages * LINES_PER_PAGE
        dram_finish = hmc.line_access(0, 0, False)
        nvm_finish = hmc.line_access(0, dram_lines, False)
        assert nvm_finish > dram_finish
