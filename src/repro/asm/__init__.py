"""SP32 assembler.

A small two-pass assembler turning textual SP32 source into a
:class:`~repro.asm.program.Program` (bytes + symbol table) placed at an
absolute base address.  The OS kernel and the reference trustlets in
:mod:`repro.sw` are written in this assembly dialect, emitted by Python
builder functions; the paper likewise uses a GNU linker script to place
code and data regions where the Secure Loader expects them (Sec. 5.1).
"""

from repro.asm.program import Program
from repro.asm.assembler import assemble, pass1

__all__ = ["Program", "assemble", "pass1"]
