"""Two-pass SP32 assembler.

Dialect::

    ; full-line or trailing comment
    .equ   CONST, 0x10        ; named constant
    .org   0x2000             ; move location counter (forward only)
    .align 4                  ; pad with zero bytes
    .word  1, label, CONST+4  ; 32-bit literals
    .space 64                 ; reserve zeroed bytes
    .ascii "text\n"           ; raw bytes (supports \n \t \0 \\ \")

    label:
        movi  r0, 42
        addi  r0, r0, CONST
        ldw   r1, [r0+8]      ; or [r0] for offset 0
        stw   r1, [r0+12]
        cmp   r0, r1
        beq   label
        jmp   exit

Immediates accept decimal, ``0x`` hex, ``'c'`` char literals, label
names, ``.equ`` constants and ``+``/``-`` chains of those.  All branch
and jump targets are absolute addresses, so the program base must be
its final load address.
"""

from __future__ import annotations

from repro.asm.program import Program
from repro.errors import AssemblerError
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import EXTENDED_FORMATS, FORMATS, Fmt, Op
from repro.isa.registers import Reg

_OP_BY_NAME = {op.name.lower(): op for op in Op}

# Encoded size of each mnemonic: pass 1 needs nothing else from it.
_SIZE_BY_NAME = {
    name: 8 if FORMATS[op] in EXTENDED_FORMATS else 4
    for name, op in _OP_BY_NAME.items()
}

_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"', "r": "\r"}


def _strip_comment(line: str) -> str:
    """Drop a trailing ``;`` comment that is not inside a string."""
    if '"' not in line:
        return line.partition(";")[0]
    return _strip_comment_scan(line)


def _strip_comment_scan(line: str) -> str:
    in_string = False
    for index, char in enumerate(line):
        if char == '"' and (index == 0 or line[index - 1] != "\\"):
            in_string = not in_string
        elif char == ";" and not in_string:
            return line[:index]
    return line


def _parse_string(text: str, lineno: int) -> bytes:
    text = text.strip()
    if len(text) < 2 or not (text[0] == text[-1] == '"'):
        raise AssemblerError(f"line {lineno}: expected quoted string: {text!r}")
    out = bytearray()
    index = 1
    while index < len(text) - 1:
        char = text[index]
        if char == "\\":
            index += 1
            if index >= len(text) - 1:
                raise AssemblerError(f"line {lineno}: dangling escape")
            escape = text[index]
            if escape not in _ESCAPES:
                raise AssemblerError(
                    f"line {lineno}: unknown escape \\{escape}"
                )
            out += _ESCAPES[escape].encode("latin-1")
        else:
            out += char.encode("latin-1")
        index += 1
    return bytes(out)


def _split_operands(text: str) -> list[str]:
    """Split on commas that are not inside brackets or quotes."""
    if '"' not in text and "[" not in text and "]" not in text:
        parts = [part.strip() for part in text.split(",")]
        if not parts[-1]:
            parts.pop()
        return parts
    return _split_operands_scan(text)


def _split_operands_scan(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    in_string = False
    current = []
    for char in text:
        if char == '"':
            in_string = not in_string
        if not in_string:
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == "," and depth == 0:
                parts.append("".join(current).strip())
                current = []
                continue
        current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class _Evaluator:
    """Evaluates integer expressions over labels and .equ constants."""

    def __init__(self, symbols: dict[str, int], constants: dict[str, int]):
        self.symbols = symbols
        self.constants = constants

    def atom(self, token: str, lineno: int) -> int:
        token = token.strip()
        if not token:
            raise AssemblerError(f"line {lineno}: empty expression term")
        if token.startswith("#"):
            token = token[1:].strip()
        if len(token) == 3 and token[0] == token[2] == "'":
            return ord(token[1])
        try:
            return int(token, 0)
        except ValueError:
            pass
        if token in self.constants:
            return self.constants[token]
        if token in self.symbols:
            return self.symbols[token]
        raise AssemblerError(f"line {lineno}: unknown symbol {token!r}")

    def evaluate(self, text: str, lineno: int) -> int:
        text = text.strip()
        if text.startswith("#"):
            text = text[1:].strip()
        # Tokenize into terms joined by +/-; a leading '-' negates.
        terms: list[tuple[int, str]] = []
        sign = 1
        current = []
        for char in text:
            if char in "+-":
                if current:
                    terms.append((sign, "".join(current)))
                    current = []
                    sign = 1 if char == "+" else -1
                elif char == "-":
                    sign = -sign
            else:
                current.append(char)
        if current:
            terms.append((sign, "".join(current)))
        if not terms:
            raise AssemblerError(f"line {lineno}: empty expression")
        return sum(s * self.atom(t, lineno) for s, t in terms)


class _Statement:
    """One parsed source line, sized in pass 1 and emitted in pass 2."""

    def __init__(self, lineno: int, kind: str, payload) -> None:
        self.lineno = lineno
        self.kind = kind
        self.payload = payload
        self.address = 0
        self.size = 0


def _parse_mem_operand(text: str, lineno: int) -> tuple[str, str]:
    """Split ``[rs1+off]`` into (register text, offset expression)."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise AssemblerError(
            f"line {lineno}: expected memory operand [..]: {text!r}"
        )
    inner = text[1:-1].strip()
    for index, char in enumerate(inner):
        if char in "+-" and index > 0:
            return inner[:index].strip(), inner[index:].strip()
    return inner, "0"


def _parse(source: str) -> list[_Statement]:
    """Split ``source`` into label, directive and instruction statements."""
    statements: list[_Statement] = []
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        while line:
            if ":" in line and not line.startswith("."):
                head, _, rest = line.partition(":")
                candidate = head.strip()
                if candidate and " " not in candidate and "," not in candidate \
                        and "[" not in candidate:
                    statements.append(_Statement(lineno, "label", candidate))
                    line = rest.strip()
                    continue
            break
        if not line:
            continue
        if line.startswith("."):
            directive, _, rest = line.partition(" ")
            statements.append(
                _Statement(lineno, directive.lower(), rest.strip())
            )
        else:
            mnemonic, _, rest = line.partition(" ")
            statements.append(
                _Statement(lineno, "instr", (mnemonic.lower(), rest.strip()))
            )
    return statements


def _pass1(
    statements: list[_Statement], base: int, evaluator: _Evaluator
) -> int:
    """Size every statement and bind every label; return the end address."""
    symbols = evaluator.symbols
    cursor = base
    for stmt in statements:
        stmt.address = cursor
        if stmt.kind == "label":
            if stmt.payload in symbols:
                raise AssemblerError(
                    f"line {stmt.lineno}: duplicate label {stmt.payload!r}"
                )
            symbols[stmt.payload] = cursor
        elif stmt.kind == "instr":
            mnemonic = stmt.payload[0]
            if mnemonic not in _SIZE_BY_NAME:
                raise AssemblerError(
                    f"line {stmt.lineno}: unknown mnemonic {mnemonic!r}"
                )
            stmt.size = _SIZE_BY_NAME[mnemonic]
            if cursor % 4 != 0:
                raise AssemblerError(
                    f"line {stmt.lineno}: instruction at unaligned "
                    f"address {cursor:#x}"
                )
            cursor += stmt.size
        elif stmt.kind == ".equ":
            name, _, expr = stmt.payload.partition(",")
            name = name.strip()
            if not name:
                raise AssemblerError(f"line {stmt.lineno}: .equ needs a name")
            evaluator.constants[name] = evaluator.evaluate(expr, stmt.lineno)
        elif stmt.kind == ".org":
            target = evaluator.evaluate(stmt.payload, stmt.lineno)
            if target < cursor:
                raise AssemblerError(
                    f"line {stmt.lineno}: .org moves backwards "
                    f"({target:#x} < {cursor:#x})"
                )
            stmt.size = target - cursor
            cursor = target
        elif stmt.kind == ".align":
            alignment = evaluator.evaluate(stmt.payload, stmt.lineno)
            if alignment <= 0 or alignment & (alignment - 1):
                raise AssemblerError(
                    f"line {stmt.lineno}: alignment must be a power of two"
                )
            stmt.size = (-cursor) % alignment
            cursor += stmt.size
        elif stmt.kind == ".word":
            count = len(_split_operands(stmt.payload))
            if count == 0:
                raise AssemblerError(f"line {stmt.lineno}: .word needs values")
            stmt.size = 4 * count
            cursor += stmt.size
        elif stmt.kind == ".space":
            stmt.size = evaluator.evaluate(stmt.payload, stmt.lineno)
            if stmt.size < 0:
                raise AssemblerError(f"line {stmt.lineno}: negative .space")
            cursor += stmt.size
        elif stmt.kind == ".ascii":
            stmt.size = len(_parse_string(stmt.payload, stmt.lineno))
            cursor += stmt.size
        else:
            raise AssemblerError(
                f"line {stmt.lineno}: unknown directive {stmt.kind!r}"
            )
    return cursor


def _pass2(
    statements: list[_Statement], base: int, evaluator: _Evaluator
) -> bytes:
    """Emit the bytes of statements that :func:`_pass1` has placed."""
    blob = bytearray()

    def emit_word(value: int) -> None:
        blob.extend((value & 0xFFFF_FFFF).to_bytes(4, "little"))

    for stmt in statements:
        assert len(blob) == stmt.address - base, (
            f"pass mismatch at line {stmt.lineno}"
        )
        if stmt.kind in ("label", ".equ"):
            continue
        if stmt.kind == "instr":
            for word in encode(_build_instruction(stmt, evaluator)):
                emit_word(word)
        elif stmt.kind in (".org", ".align", ".space"):
            blob.extend(b"\x00" * stmt.size)
        elif stmt.kind == ".word":
            for term in _split_operands(stmt.payload):
                emit_word(evaluator.evaluate(term, stmt.lineno))
        elif stmt.kind == ".ascii":
            blob.extend(_parse_string(stmt.payload, stmt.lineno))
    return bytes(blob)


def pass1(source: str, base: int = 0) -> tuple[int, dict[str, int]]:
    """Size ``source`` at ``base`` without emitting it.

    Returns the program's size in bytes and its label addresses: what
    :func:`assemble` would report as ``Program.size`` and
    ``Program.symbols``.  Every fault pass 1 can find raises the same
    :class:`AssemblerError`; operand and expression faults that only
    pass 2 evaluates are not checked.
    """
    evaluator = _Evaluator({}, {})
    end = _pass1(_parse(source), base, evaluator)
    return end - base, evaluator.symbols


def assemble(source: str, base: int = 0) -> Program:
    """Assemble ``source`` into a :class:`Program` at address ``base``."""
    statements = _parse(source)
    evaluator = _Evaluator({}, {})
    _pass1(statements, base, evaluator)
    data = _pass2(statements, base, evaluator)
    return Program(base=base, data=data, symbols=dict(evaluator.symbols))


def _build_instruction(stmt: _Statement, evaluator: _Evaluator) -> Instruction:
    mnemonic, operand_text = stmt.payload
    lineno = stmt.lineno
    op = _OP_BY_NAME[mnemonic]
    fmt = FORMATS[op]
    operands = _split_operands(operand_text) if operand_text else []

    def need(count: int) -> None:
        if len(operands) != count:
            raise AssemblerError(
                f"line {lineno}: {mnemonic} expects {count} operand(s), "
                f"got {len(operands)}"
            )

    def reg(text: str) -> Reg:
        try:
            return Reg.parse(text)
        except Exception:
            raise AssemblerError(
                f"line {lineno}: bad register {text!r}"
            ) from None

    if fmt is Fmt.NONE:
        need(0)
        return Instruction(op=op)
    if fmt is Fmt.RD_RS1_RS2:
        need(3)
        return Instruction(op=op, rd=reg(operands[0]), rs1=reg(operands[1]),
                           rs2=reg(operands[2]))
    if fmt is Fmt.RD_RS1:
        need(2)
        return Instruction(op=op, rd=reg(operands[0]), rs1=reg(operands[1]))
    if fmt is Fmt.RD_IMM32:
        need(2)
        return Instruction(op=op, rd=reg(operands[0]),
                           imm=evaluator.evaluate(operands[1], lineno))
    if fmt is Fmt.RD_RS1_IMM32:
        need(3)
        return Instruction(op=op, rd=reg(operands[0]), rs1=reg(operands[1]),
                           imm=evaluator.evaluate(operands[2], lineno))
    if fmt is Fmt.RS1_RS2:
        need(2)
        return Instruction(op=op, rs1=reg(operands[0]), rs2=reg(operands[1]))
    if fmt is Fmt.RS1_IMM32:
        need(2)
        return Instruction(op=op, rs1=reg(operands[0]),
                           imm=evaluator.evaluate(operands[1], lineno))
    if fmt is Fmt.MEM_LOAD:
        need(2)
        base_reg, offset = _parse_mem_operand(operands[1], lineno)
        return Instruction(op=op, rd=reg(operands[0]), rs1=reg(base_reg),
                           imm=evaluator.evaluate(offset, lineno))
    if fmt is Fmt.MEM_STORE:
        need(2)
        base_reg, offset = _parse_mem_operand(operands[1], lineno)
        return Instruction(op=op, rs2=reg(operands[0]), rs1=reg(base_reg),
                           imm=evaluator.evaluate(offset, lineno))
    if fmt is Fmt.IMM32:
        need(1)
        return Instruction(op=op, imm=evaluator.evaluate(operands[0], lineno))
    if fmt is Fmt.RS1:
        need(1)
        return Instruction(op=op, rs1=reg(operands[0]))
    if fmt is Fmt.RD:
        need(1)
        return Instruction(op=op, rd=reg(operands[0]))
    if fmt is Fmt.IMM12:
        need(1)
        return Instruction(op=op, imm=evaluator.evaluate(operands[0], lineno))
    raise AssemblerError(f"line {lineno}: unhandled format {fmt}")
