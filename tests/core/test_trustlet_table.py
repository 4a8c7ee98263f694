"""Unit tests for the Trustlet Table."""

import pytest

from repro.core.trustlet_table import (
    FLAG_OS,
    HEADER_SIZE,
    MEASUREMENT_SIZE,
    OFF_CODE_BASE,
    OFF_CODE_END,
    OFF_DATA_BASE,
    OFF_DATA_END,
    OFF_ENTRY,
    OFF_FLAGS,
    OFF_ID,
    OFF_MEASUREMENT,
    OFF_SAVED_SP,
    OFF_STACK_BASE,
    OFF_STACK_END,
    ROW_SIZE,
    TrustletTable,
    name_tag,
)
from repro.errors import PlatformError
from repro.machine.bus import Bus
from repro.machine.memories import Ram

BASE = 0x1000


@pytest.fixture
def table():
    bus = Bus()
    bus.attach(0, Ram("ram", 0x8000))
    made = TrustletTable(bus, BASE, capacity=4)
    made.clear()
    return made


def _add(table, name="TL-A", code=(0x100, 0x200), **kwargs):
    defaults = dict(
        code_base=code[0], code_end=code[1], entry=code[0],
        saved_sp=0x7000, data_base=0x3000, data_end=0x3100,
        stack_base=0x3100, stack_end=0x3200,
    )
    defaults.update(kwargs)
    return table.add_row(name, **defaults)


class TestPopulation:
    def test_add_and_read_back(self, table):
        index = _add(table, measurement=b"\x01" * 16)
        row = table.row(index)
        assert row.code_base == 0x100
        assert row.code_end == 0x200
        assert row.saved_sp == 0x7000
        assert row.measurement == b"\x01" * 16
        assert not row.is_os

    def test_count_advances(self, table):
        assert table.count == 0
        _add(table)
        _add(table, name="TL-B", code=(0x200, 0x300))
        assert table.count == 2

    def test_capacity_enforced(self, table):
        for i in range(4):
            _add(table, name=f"T{i}", code=(0x100 * (i + 1), 0x100 * (i + 2)))
        with pytest.raises(PlatformError):
            _add(table, name="T4", code=(0x900, 0xA00))

    def test_clear_resets_count(self, table):
        _add(table)
        table.clear()
        assert table.count == 0

    def test_reading_unpopulated_row_rejected(self, table):
        with pytest.raises(PlatformError):
            table.row(0)

    def test_os_flag(self, table):
        index = _add(table, name="OS", is_os=True)
        assert table.row(index).is_os
        assert table.os_row().index == index

    def test_os_row_none_without_os(self, table):
        _add(table)
        assert table.os_row() is None


class TestRowLayout:
    """The byte layout guest code reads (the OS scheduler walks the
    table with these offsets), whatever way the host writes a row."""

    FIELDS = dict(
        code_base=0x1110, code_end=0x2220, entry=0x1118, saved_sp=0x3330,
        data_base=0x4440, data_end=0x5550, stack_base=0x6660,
        stack_end=0x7770,
    )

    def _row_base(self, index):
        return BASE + HEADER_SIZE + index * ROW_SIZE

    def test_every_field_at_its_guest_offset(self, table):
        _add(table)  # row 0, so the checked row is not at the table base
        measurement = bytes(range(0xA0, 0xA0 + MEASUREMENT_SIZE))
        index = table.add_row(
            "OSX", is_os=True, measurement=measurement, **self.FIELDS
        )
        base = self._row_base(index)
        read = table.bus.read_word
        assert read(base + OFF_ID) == name_tag("OSX")
        assert read(base + OFF_FLAGS) == FLAG_OS
        assert read(base + OFF_CODE_BASE) == 0x1110
        assert read(base + OFF_CODE_END) == 0x2220
        assert read(base + OFF_ENTRY) == 0x1118
        assert read(base + OFF_SAVED_SP) == 0x3330
        assert read(base + OFF_DATA_BASE) == 0x4440
        assert read(base + OFF_DATA_END) == 0x5550
        assert read(base + OFF_STACK_BASE) == 0x6660
        assert read(base + OFF_STACK_END) == 0x7770
        assert table.bus.read_bytes(
            base + OFF_MEASUREMENT, MEASUREMENT_SIZE
        ) == measurement
        row = table.row(index)
        assert (row.index, row.name_tag, row.flags) == \
            (index, name_tag("OSX"), FLAG_OS)
        assert {key: getattr(row, key) for key in self.FIELDS} == self.FIELDS
        assert row.measurement == measurement

    def test_short_measurement_zero_padded(self, table):
        index = _add(table, measurement=b"\x5a\x5a")
        assert table.row(index).measurement == \
            b"\x5a\x5a" + bytes(MEASUREMENT_SIZE - 2)

    def test_long_measurement_rejected(self, table):
        with pytest.raises(PlatformError, match="at most 16 bytes"):
            _add(table, measurement=b"\x01" * (MEASUREMENT_SIZE + 1))
        assert table.count == 0

    def test_reserved_words_untouched(self, table):
        reserved = self._row_base(0) + OFF_MEASUREMENT + MEASUREMENT_SIZE
        sentinel = b"\xde\xad\xbe\xef\xca\xfe\xf0\x0d"
        table.bus.write_bytes(reserved, sentinel)
        _add(table, measurement=b"\xff" * MEASUREMENT_SIZE)
        table.write_saved_sp(0, 0x1234)
        assert reserved + len(sentinel) == self._row_base(1)
        assert table.bus.read_bytes(reserved, len(sentinel)) == sentinel


class TestLookup:
    def test_find_by_name(self, table):
        _add(table, name="TL-A")
        _add(table, name="TL-B", code=(0x300, 0x400))
        assert table.find_by_name("TL-B").code_base == 0x300
        assert table.find_by_name("NONE") is None

    def test_row_for_ip(self, table):
        _add(table, name="TL-A", code=(0x100, 0x200))
        _add(table, name="TL-B", code=(0x300, 0x400))
        assert table.row_for_ip(0x150).name_tag == name_tag("TL-A")
        assert table.row_for_ip(0x1FF).name_tag == name_tag("TL-A")
        assert table.row_for_ip(0x200) is None
        assert table.row_for_ip(0x350).name_tag == name_tag("TL-B")

    def test_tag_text(self, table):
        index = _add(table, name="ePay")
        assert table.row(index).tag_text == "ePay"


class TestHardwareInterface:
    def test_sp_slot_address_formula(self, table):
        index = _add(table)
        expected = BASE + HEADER_SIZE + index * ROW_SIZE + OFF_SAVED_SP
        assert table.sp_slot_address(index) == expected

    def test_write_saved_sp_visible_in_row(self, table):
        index = _add(table)
        table.write_saved_sp(index, 0x6ABC)
        assert table.row(index).saved_sp == 0x6ABC

    def test_sp_slot_is_bus_addressable(self, table):
        index = _add(table)
        slot = table.sp_slot_address(index)
        table.write_saved_sp(index, 0x1234)
        assert table.bus.read_word(slot) == 0x1234

    def test_end_covers_all_rows(self, table):
        assert table.end == BASE + HEADER_SIZE + 4 * ROW_SIZE

    def test_row_index_bounds(self, table):
        with pytest.raises(PlatformError):
            table.sp_slot_address(99)

    def test_zero_capacity_rejected(self, table):
        with pytest.raises(PlatformError):
            TrustletTable(table.bus, BASE, capacity=0)


def test_name_tag_truncates_to_four_bytes():
    assert name_tag("ABCDEFG") == name_tag("ABCD")
    assert name_tag("A") == int.from_bytes(b"A\x00\x00\x00", "little")
