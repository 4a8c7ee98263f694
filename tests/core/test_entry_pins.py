"""Pins on the exception-entry and boot paths that must not move when
their frames change representation: misaligned stacks still fault like
a word store, and the Secure Loader's Fig. 5 write count stays exact.
"""

import pytest

from repro.core.exception_engine import (
    RegularExceptionEngine,
    SecureExceptionEngine,
)
from repro.core.platform import TrustLitePlatform
from repro.core.trustlet_table import TrustletTable
from repro.errors import AlignmentError
from repro.machine.bus import Bus
from repro.machine.cpu import Cpu, CpuFlags
from repro.machine.irq import Interrupt
from repro.machine.memories import Ram
from repro.sw.images import build_two_counter_image

TABLE_BASE = 0x8000
TL_CODE = (0x1000, 0x2000)
OS_CODE = (0x4000, 0x5000)
HANDLER = 0x4100


def _machine(os_stack_top=0x7800):
    bus = Bus()
    bus.attach(0, Ram("ram", 0x10000))
    table = TrustletTable(bus, TABLE_BASE, capacity=4)
    table.clear()
    table.add_row(
        "TL-A", code_base=TL_CODE[0], code_end=TL_CODE[1], entry=TL_CODE[0],
        saved_sp=0x7000,
    )
    table.add_row(
        "OS", code_base=OS_CODE[0], code_end=OS_CODE[1], entry=OS_CODE[0],
        saved_sp=os_stack_top, is_os=True,
    )
    return Cpu(bus), table


def _engine(kind, table):
    engine = RegularExceptionEngine() if kind == "regular" \
        else SecureExceptionEngine(table)
    engine.set_irq_vector(0, HANDLER)
    return engine


@pytest.mark.parametrize("kind", ["regular", "secure"])
@pytest.mark.parametrize("curr_ip", [TL_CODE[0] + 0x40, OS_CODE[0] + 0x40])
def test_interrupt_on_misaligned_stack_raises(kind, curr_ip):
    cpu, table = _machine()
    engine = _engine(kind, table)
    cpu.curr_ip = curr_ip
    cpu.ip = curr_ip + 4
    cpu.sp = 0x6FFE
    cpu.flags = CpuFlags(ie=True)
    with pytest.raises(AlignmentError):
        engine.deliver_interrupt(cpu, Interrupt(0, "timer"))


def test_misaligned_os_stack_raises_after_trustlet_spill():
    cpu, table = _machine(os_stack_top=0x7802)
    engine = _engine("secure", table)
    cpu.curr_ip = TL_CODE[0] + 0x40
    cpu.sp = 0x7000
    with pytest.raises(AlignmentError):
        engine.deliver_interrupt(cpu, Interrupt(0, "timer"))


def test_iret_on_misaligned_stack_raises():
    cpu, table = _machine()
    cpu.sp = 0x6FFE
    with pytest.raises(AlignmentError):
        _engine("regular", table).iret(cpu)


def _wiped_words(image):
    """Words the loader zeroes: every module's data and stack region."""
    total = 0
    for name in ("OS", "TL-A", "TL-B"):
        lay = image.layout_of(name)
        total += (lay.data_end - lay.data_base) // 4
        total += (lay.stack_end - lay.stack_base) // 4
    return total


def test_boot_memory_words_written_exact():
    """Fig. 5 cost: the wipe plus one 17-word resume frame per trustlet;
    a warm reset without wipe writes the two frames only."""
    plat = TrustLitePlatform()
    image = build_two_counter_image()
    cold = plat.boot(image).memory_words_written
    assert cold == _wiped_words(image) + 2 * 17 == 482
    assert plat.warm_reset().memory_words_written == 34
    assert plat.warm_reset(wipe_data=True).memory_words_written == 482
