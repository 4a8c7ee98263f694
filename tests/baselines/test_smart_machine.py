"""SMART running as guest code on the simulated SP32 machine."""

import pytest

from repro.baselines.smart_machine import (
    APP_BASE,
    KEY_ADDR,
    SmartMachine,
)
from repro.errors import MemoryProtectionFault, PlatformError

KEY = bytes(range(16))
FIRMWARE_REGION = (APP_BASE, 64)


@pytest.fixture
def machine():
    made = SmartMachine(KEY)
    made.load_app(
        """
        main:
            nop
            halt
        """
    )
    return made


class TestRomAttestation:
    def test_report_matches_verifier_recomputation(self, machine):
        nonce = b"nonce-01"
        base, length = FIRMWARE_REGION
        report = machine.attest(nonce, base, length)
        assert report == machine.expected_report(nonce, base, length)

    def test_report_depends_on_nonce(self, machine):
        base, length = FIRMWARE_REGION
        first = machine.attest(b"nonce-01", base, length)
        second = machine.attest(b"nonce-02", base, length)
        assert first != second

    def test_report_detects_firmware_tampering(self, machine):
        nonce = b"nonce-01"
        base, length = FIRMWARE_REGION
        reference = machine.expected_report(nonce, base, length)
        machine.soc.prom.load(base, b"\xEE\xEE\xEE\xEE")
        report = machine.attest(nonce, base, length)
        assert report != reference or \
            machine.expected_report(nonce, base, length) != reference

    def test_bad_nonce_length_rejected(self, machine):
        with pytest.raises(PlatformError):
            machine.attest(b"short", *FIRMWARE_REGION)

    def test_unaligned_region_rejected(self, machine):
        with pytest.raises(PlatformError):
            machine.attest(b"nonce-01", APP_BASE, 7)


class TestKeyGateOnMachine:
    def test_untrusted_code_cannot_read_key(self, machine):
        entry = machine.load_app(
            f"""
            main:
                movi r2, {KEY_ADDR:#x}
                ldw r3, [r2]        ; key theft attempt
                halt
            """
        )
        cpu = machine.cpu
        cpu.ip = entry
        cpu.curr_ip = entry
        with pytest.raises(MemoryProtectionFault):
            machine.soc.run(max_cycles=1000)
        assert machine.gate.violations == 1

    def test_mid_routine_entry_denied(self, machine):
        """SMART's IP rule: the ROM may only be entered at its base."""
        target = machine.mid_routine_address
        entry = machine.load_app(
            f"""
            main:
                movi r2, {target:#x}
                jmpr r2             ; jump past the key hygiene code
                halt
            """
        )
        cpu = machine.cpu
        cpu.ip = entry
        cpu.curr_ip = entry
        with pytest.raises(MemoryProtectionFault):
            machine.soc.run(max_cycles=1000)

    def test_entry_at_rom_base_allowed(self, machine):
        """Invoking the routine properly from untrusted code works."""
        entry = machine.load_app(
            f"""
            main:
                movi r0, {APP_BASE:#x}
                movi r1, 32
                movi r2, {machine.rom.base:#x}
                jmpr r2             ; legal: first instruction of ROM
            """
        )
        machine.bus.write_bytes(
            0x2000_0100, b"nonce-xx"
        )
        cpu = machine.cpu
        cpu.ip = entry
        cpu.curr_ip = entry
        cpu.sp = 0x2000_1000
        machine.soc.run(max_cycles=2_000_000)
        assert cpu.halted  # routine ran to completion

    def test_key_never_writable_even_from_rom(self, machine):
        from repro.machine.access import AccessType

        with pytest.raises(MemoryProtectionFault):
            machine.gate.check(
                machine.rom.base + 8, KEY_ADDR, 4, AccessType.WRITE
            )

    def test_bad_key_length_rejected(self):
        with pytest.raises(PlatformError):
            SmartMachine(b"short")


class TestWipeSemantics:
    """Pin what ``Ram.wipe()`` guarantees through the bus's cached views."""

    def test_wipe_zeroes_what_the_bus_reads(self, machine):
        sram = machine.soc.sram
        assert machine.bus.read_word(KEY_ADDR) != 0  # key material present
        sram.wipe()
        assert machine.bus.read_word(KEY_ADDR) == 0
        assert machine.bus.read_bytes(KEY_ADDR, 16) == bytes(16)
        assert sram.dump() == bytes(sram.size)
        machine.bus.write_word(KEY_ADDR, 0x1234_5678)
        assert machine.bus.read_word(KEY_ADDR) == 0x1234_5678
        assert sram.dump(KEY_ADDR - machine.bus.base_of("sram"), 4) \
            == (0x1234_5678).to_bytes(4, "little")
