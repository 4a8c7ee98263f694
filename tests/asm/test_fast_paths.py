"""The assembler's fast paths give the general path's results and errors.

* ``_strip_comment`` and ``_split_operands`` take a ``str`` fast path
  when their text has no quote (and, for the split, no bracket); both
  must equal the character-by-character scan on any line.
* :func:`pass1` must report the size and symbols :func:`assemble`
  reports, for every module source the image builders generate: the
  dummy-layout source of the size pass and the final source alike.
* ``Reg.parse`` and ``Instruction.validate`` read tables; they must
  agree with the rules they replaced.
* Every malformed source keeps its exact error message.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble, pass1
from repro.asm.assembler import (
    _split_operands,
    _split_operands_scan,
    _strip_comment,
    _strip_comment_scan,
)
from repro.core import image as image_module
from repro.errors import AssemblerError, IsaError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FORMATS, Fmt, Op
from repro.isa.registers import NUM_REGS, Reg
from repro.sw import epay, handshake, images

# Characters that steer the scans (quotes, escapes, brackets, commas,
# comments) among ordinary operand text.
_LINE_CHARS = list(';"\\[],') + list("ab r1+-#:.\t0x ")
lines = st.text(alphabet=st.sampled_from(_LINE_CHARS), max_size=40)


@settings(max_examples=600, deadline=None)
@given(line=lines)
def test_strip_comment_fast_path_equals_scan(line):
    assert _strip_comment(line) == _strip_comment_scan(line)


@settings(max_examples=600, deadline=None)
@given(text=lines)
def test_split_operands_fast_path_equals_scan(text):
    assert _split_operands(text) == _split_operands_scan(text)


@pytest.mark.parametrize("text", [
    "", " ", ",", "a,", "a, ", ",a", "a,,b", "r1, r2 , r3", " , ",
    "r1, [r2+4]", '"a,b", c', 'x\\", y', "a]b, c",
])
def test_split_operands_edge_cases(text):
    assert _split_operands(text) == _split_operands_scan(text)


@pytest.mark.parametrize("line", [
    "", ";", "nop ; c", 'a "x;y" ; z', 'a "x\\";y" ; z', "; a ; b",
    '"', '";', 'x\\"; y',
])
def test_strip_comment_edge_cases(line):
    assert _strip_comment(line) == _strip_comment_scan(line)


# ---------------------------------------------------------------------------
# pass1 against assemble, over every source the image builders generate.

_BUILDERS = [
    getattr(images, name) for name in sorted(dir(images))
    if name.startswith("build_") and name.endswith("_image")
] + [epay.build_epay_image, handshake.build_handshake_image]


def _builder_sources():
    """Every ``(source, base)`` the builders hand to the assembler."""
    seen = []
    real_pass1, real_assemble = image_module.pass1, image_module.assemble

    def record_pass1(source, base=0):
        seen.append(("size", source, base))
        return real_pass1(source, base)

    def record_assemble(source, base=0):
        seen.append(("final", source, base))
        return real_assemble(source, base)

    with mock.patch.object(image_module, "pass1", record_pass1), \
            mock.patch.object(image_module, "assemble", record_assemble):
        for builder in _BUILDERS:
            builder()
        images.build_attestation_image(timer_period=3000)
    return seen


_SOURCES = _builder_sources()


def test_every_module_source_was_seen_in_both_passes():
    kinds = {kind for kind, _, _ in _SOURCES}
    assert kinds == {"size", "final"}
    sizes = sum(1 for kind, _, _ in _SOURCES if kind == "size")
    finals = len(_SOURCES) - sizes
    assert sizes == finals >= 2 * len(_BUILDERS)


@pytest.mark.parametrize("index", range(len(_SOURCES)))
def test_pass1_equals_assemble_on_builder_sources(index):
    _kind, source, base = _SOURCES[index]
    program = assemble(source, base)
    assert pass1(source, base) == (program.size, program.symbols)
    if base:
        # The size of a source never depends on where it is placed.
        assert pass1(source, 0)[0] == program.size


@settings(max_examples=300, deadline=None)
@given(
    body=st.lists(st.sampled_from([
        "nop", "movi r1, 0x20", "ldw r2, [sp+4]", "add r1, r2, r3",
        "jmp here", ".word 1, 2, here", '.ascii "a;b\\"c"', ".align 8",
        ".space 3", "here:", "there: halt", ".equ K, 4", "push lr",
    ]), max_size=12),
    base=st.sampled_from([0, 0x100, 0x2000]),
)
def test_pass1_equals_assemble_on_generated_sources(body, base):
    source = "\n".join(body)
    try:
        program = assemble(source, base)
    except AssemblerError as exc:
        # pass1 checks a subset of assemble's faults: it either raises
        # the same one or passes a fault only pass 2 sees.
        try:
            pass1(source, base)
        except AssemblerError as first:
            assert str(first) == str(exc)
        return
    assert pass1(source, base) == (program.size, program.symbols)


# ---------------------------------------------------------------------------
# Error messages.

#: Every malformed source of ``tests/asm`` and more, with the message it
#: raises; ``pass1`` marks the faults pass 1 finds on its own.
ERRORS = [
    ("frobnicate r0", AssemblerError,
     "line 1: unknown mnemonic 'frobnicate'", True),
    ("add r1, r2", AssemblerError,
     "line 1: add expects 3 operand(s), got 2", False),
    ("movi r99, 1", AssemblerError, "line 1: bad register 'r99'", False),
    ("jmp undefined_label", AssemblerError,
     "line 1: unknown symbol 'undefined_label'", False),
    (".org 0x10\n.org 0x8", AssemblerError,
     "line 2: .org moves backwards (0x8 < 0x10)", True),
    ("dup: nop\ndup: nop", AssemblerError,
     "line 2: duplicate label 'dup'", True),
    (".align 3", AssemblerError,
     "line 1: alignment must be a power of two", True),
    (".space -1", AssemblerError, "line 1: negative .space", True),
    ('.ascii "ab"\nnop', AssemblerError,
     "line 2: instruction at unaligned address 0x2", True),
    (".frob 1", AssemblerError, "line 1: unknown directive '.frob'", True),
    (".word", AssemblerError, "line 1: .word needs values", True),
    (".word ,", AssemblerError, "line 1: empty expression", False),
    (".equ , 5", AssemblerError, "line 1: .equ needs a name", True),
    ('.ascii "a\\', AssemblerError,
     "line 1: expected quoted string: '\"a\\\\'", True),
    ('.ascii "a\\q"', AssemblerError, "line 1: unknown escape \\q", True),
    (".ascii abc", AssemblerError,
     "line 1: expected quoted string: 'abc'", True),
    ("ldw r1, r2", AssemblerError,
     "line 1: expected memory operand [..]: 'r2'", False),
    ("ldw r1, [r2+x]", AssemblerError, "line 1: unknown symbol 'x'", False),
    ("movi r0,", AssemblerError,
     "line 1: movi expects 2 operand(s), got 1", False),
    ("movi r0, ", AssemblerError,
     "line 1: movi expects 2 operand(s), got 1", False),
    ("swi 5000", IsaError, "SWI immediate 5000 exceeds 12 bits", False),
    ("ldw r1, [r2+4096]", IsaError,
     "LDW immediate 4096 exceeds 12 bits", False),
    ("push", AssemblerError, "line 1: push expects 1 operand(s), got 0",
     False),
    ("nop r1", AssemblerError, "line 1: nop expects 0 operand(s), got 1",
     False),
    (".space", AssemblerError, "line 1: empty expression", True),
    (".equ X, Y\n", AssemblerError, "line 1: unknown symbol 'Y'", True),
    ("stw r1, [zz]", AssemblerError, "line 1: bad register 'zz'", False),
]


@pytest.mark.parametrize("source,error,message,in_pass1", ERRORS)
def test_error_messages_are_unchanged(source, error, message, in_pass1):
    with pytest.raises(error) as raised:
        assemble(source)
    assert str(raised.value) == message
    if in_pass1:
        with pytest.raises(error) as early:
            pass1(source)
        assert str(early.value) == message
    else:
        pass1(source)


# ---------------------------------------------------------------------------
# Register names and operand validation.


def _parse_reference(name: str) -> Reg:
    text = name.strip().lower()
    aliases = {"lr": Reg.LR, "fp": Reg.FP, "sp": Reg.SP}
    if text in aliases:
        return aliases[text]
    if text.startswith("r") and text[1:].isdigit() \
            and 0 <= int(text[1:]) < NUM_REGS:
        return Reg(int(text[1:]))
    raise IsaError(f"unknown register name: {name!r}")


_REG_NAMES = (
    [f"r{i}" for i in range(20)] + ["lr", "fp", "sp", "LR", " sp ", "R7",
                                    "r07", "r", "x1", "r-1", "", "pc"]
)


@pytest.mark.parametrize("name", _REG_NAMES)
def test_reg_parse_equals_the_general_rule(name):
    try:
        expected = _parse_reference(name)
    except IsaError as exc:
        with pytest.raises(IsaError) as raised:
            Reg.parse(name)
        assert str(raised.value) == str(exc)
    else:
        assert Reg.parse(name) is expected


@settings(max_examples=300, deadline=None)
@given(name=st.text(alphabet=st.sampled_from(list("rRlfspc0123456789 ")),
                    max_size=4))
def test_reg_parse_on_generated_names(name):
    test_reg_parse_equals_the_general_rule(name)


_NEEDS_RD = {Fmt.RD_RS1_RS2, Fmt.RD_RS1, Fmt.RD_IMM32, Fmt.RD_RS1_IMM32,
             Fmt.MEM_LOAD, Fmt.RD}
_NEEDS_RS1 = {Fmt.RD_RS1_RS2, Fmt.RD_RS1, Fmt.RD_RS1_IMM32, Fmt.RS1_RS2,
              Fmt.RS1_IMM32, Fmt.MEM_LOAD, Fmt.MEM_STORE, Fmt.RS1}
_NEEDS_RS2 = {Fmt.RD_RS1_RS2, Fmt.RS1_RS2, Fmt.MEM_STORE}
_IMM12 = {Fmt.IMM12, Fmt.MEM_LOAD, Fmt.MEM_STORE}


def _validate_reference(op, rd, rs1, rs2, imm):
    fmt = FORMATS[op]
    for field, value, needs in (("rd", rd, _NEEDS_RD),
                                ("rs1", rs1, _NEEDS_RS1),
                                ("rs2", rs2, _NEEDS_RS2)):
        if fmt in needs and value is None:
            return f"{op.name} requires {field}"
    for field, value, needs in (("rd", rd, _NEEDS_RD),
                                ("rs1", rs1, _NEEDS_RS1),
                                ("rs2", rs2, _NEEDS_RS2)):
        if fmt not in needs and value is not None:
            return f"{op.name} does not take {field}"
    if fmt in _IMM12 and not -2048 <= imm <= 4095:
        return f"{op.name} immediate {imm} exceeds 12 bits"
    return None


@pytest.mark.parametrize("op", list(Op))
def test_validate_table_equals_the_format_rules(op):
    for rd, rs1, rs2, imm in itertools.product(
        (None, Reg.R1), (None, Reg.R2), (None, Reg.SP), (0, 4095, 4096, -2049)
    ):
        expected = _validate_reference(op, rd, rs1, rs2, imm)
        if expected is None:
            Instruction(op=op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
        else:
            with pytest.raises(IsaError) as raised:
                Instruction(op=op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
            assert str(raised.value) == expected
