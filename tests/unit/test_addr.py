"""Unit tests for address arithmetic (repro.common.addr)."""

from repro.common import addr


class TestConstants:
    def test_lines_per_page(self):
        assert addr.LINES_PER_PAGE == 64

    def test_page_is_4k(self):
        assert addr.PAGE_BYTES == 4096

    def test_line_is_64b(self):
        assert addr.CACHE_LINE_BYTES == 64

    def test_va_split_covers_48_bits(self):
        assert 4 * addr.LEVEL_BITS + 12 == addr.VA_BITS


class TestLineMath:
    def test_line_of_zero(self):
        assert addr.line_of(0) == 0

    def test_line_of_boundary(self):
        assert addr.line_of(63) == 0
        assert addr.line_of(64) == 1

    def test_line_base(self):
        assert addr.line_base(0x12345) == 0x12340

    def test_address_of_line_roundtrip(self):
        for line in (0, 1, 7, 123456):
            assert addr.line_of(addr.address_of_line(line)) == line

    def test_line_in_page_range(self):
        assert addr.line_in_page(0) == 0
        assert addr.line_in_page(4095) == 63
        assert addr.line_in_page(4096) == 0
        assert addr.line_in_page(4096 + 128) == 2


class TestPageMath:
    def test_page_of(self):
        assert addr.page_of(0) == 0
        assert addr.page_of(4095) == 0
        assert addr.page_of(4096) == 1

    def test_page_base(self):
        assert addr.page_base(0x1234) == 0x1000

    def test_page_offset(self):
        assert addr.page_offset(0x1234) == 0x234

    def test_address_of_page_roundtrip(self):
        for page in (0, 1, 99, 2**20):
            assert addr.page_of(addr.address_of_page(page)) == page


class TestVirtualAddressSplit:
    def test_zero(self):
        parts = addr.split_virtual_address(0)
        assert parts == (0, 0, 0, 0, 0)

    def test_offset_only(self):
        parts = addr.split_virtual_address(0xABC)
        assert parts.offset == 0xABC
        assert parts.pte_index == 0

    def test_pte_index(self):
        parts = addr.split_virtual_address(5 << 12)
        assert parts.pte_index == 5

    def test_pmd_index(self):
        parts = addr.split_virtual_address(3 << (12 + 9))
        assert parts.pmd_index == 3
        assert parts.pte_index == 0

    def test_pud_index(self):
        parts = addr.split_virtual_address(7 << (12 + 18))
        assert parts.pud_index == 7

    def test_pgd_index(self):
        parts = addr.split_virtual_address(9 << (12 + 27))
        assert parts.pgd_index == 9

    def test_indices_bounded(self):
        parts = addr.split_virtual_address((1 << 48) - 1)
        for index in parts[:4]:
            assert 0 <= index < 512
        assert parts.offset == 4095

    def test_high_bits_ignored(self):
        low = addr.split_virtual_address(0x1234_5678_9ABC)
        high = addr.split_virtual_address(0x1234_5678_9ABC | (0xFFFF << 48))
        assert low == high

    def test_join_is_inverse(self):
        for va in (0, 0x1000, 0xDEADBEEF000, (1 << 48) - 1, 0x7FFF_FFFF_F123):
            parts = addr.split_virtual_address(va)
            assert addr.join_virtual_address(parts) == va & ((1 << 48) - 1)
