"""Trace superinstructions: record hot regions, replay them as closures.

The decode cache (PR 3) removed re-decode and region-scan costs but the
interpreter still pays the full Python dispatch loop — fetch, execute
dispatch, cycle accounting, device tick — per instruction.  This module
adds the next tier: a recording trace engine over the decode-cache
plumbing.

* **Hot detection** — every budgeted step that lands somewhere other
  than the next sequential instruction bumps a per-target counter: a
  taken branch or jump (loop heads, including a one-instruction
  ``jmp .`` spin such as the kernel's idle loop), an interrupt vector,
  and the exit of a trace run (side exits and line ends, so traces
  chain).  Past ``HOT_THRESHOLD`` the engine statically walks the code
  from that target.
* **Recording** — one walk decodes forward from the target and
  follows direct ``jmp`` instructions.  If a branch closes back to the
  target the region is a *loop*; otherwise it is a one-pass *line* (an
  ISR body, say) that ends before the first op the recorder refuses —
  calls, returns, indirect jumps, flag-stack and interrupt-state ops,
  which the interpreter keeps running — before an address it already
  holds, or at ``MAX_OPS``.  Conditional branches that leave the
  region become *side exits*.
* **Pre-fusing** — each recorded region is compiled (``compile``/
  ``exec``) into one Python closure per trace with operands
  specialized: register indices, immediates, MPU subject masks and
  per-exit cycle/retire/check constants are resolved at record time,
  so a full loop iteration costs a handful of Python statements
  instead of N interpreter steps.  Identical sources (fleet clones of
  one image) share one code object per process.
* **Checks** — one *real* MPU/lookaside fetch check per trace entry
  (dynamic subject, counted and faulting exactly like the
  interpreter: an indirect jump into a trustlet's entry vector is
  checked here); the fetches after it, across followed jumps too, are
  baked at record time and revalidated on every MPU generation bump;
  per-memory-op checks are folded into the closure as
  probes of the lookaside's decision memo.  Any miss or cached denial
  exits the trace *before* the instruction, and the interpreter
  re-executes it with full check/fault machinery — the closure itself
  never raises.
* **Exactness** — closures bail to the interpreter on every side
  exit with architectural state (registers, flags, ``ip``,
  ``curr_ip``, cycle totals, retired counts, ``stats.checks``)
  exactly at the instruction boundary.  Devices tick only between
  steps, so a load or store outside plain memory (MMIO: timer counts,
  device state, IRQs, MPU reprogramming) runs in a trace only as the
  first instruction of a dispatch and then exits; anywhere later the
  trace exits before it.  Devices thus see the reference engine's
  time and access order.
  Runs are bounded by ``min(budget, bus.next_event_in())`` so batched
  device ticks never fire an interrupt that the reference engine
  would have delivered mid-batch.
* **Invalidation** — traces ride the existing fast-path plumbing:
  bus-write listeners and ``Ram`` mutation hooks kill traces
  page-granularly, on every page any of a trace's ops occupies (a
  store *inside* a running trace checks a shared
  ``alive`` cell and exits), bus topology changes and MPU re-attach
  flush everything, and MPU ``generation`` bumps force revalidation
  of the baked subject masks and fetch decisions before the next run.

Two closure variants exist per trace: a *plain* one (counters batched
per exit) used when no retire hook is attached, and an *observed* one
(per-instruction ``curr_ip``/retire/hook calls, flags written through)
used under a :class:`~repro.machine.tracer.Tracer` so the lockstep
harness sees identical trace streams.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING

from repro.errors import EncodingError
from repro.isa.cycles import BRANCH_TAKEN_PENALTY, cycle_cost
from repro.isa.encoding import decode, instruction_length
from repro.isa.opcodes import BRANCH_CONDITIONS, Cond, Op
from repro.machine.access import AccessType
from repro.machine.fastpath import PAGE_SHIFT, _PERM_FOR_ACCESS
from repro.mpu.regions import ANY_SUBJECT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.fastpath import FastPath, MpuLookaside

_M = 0xFFFF_FFFF
_SIGN = 0x8000_0000

# Ops the recorder refuses outright: control flow it cannot prove
# (indirect/calls/returns), interrupt-state and flag-stack ops (they
# rebind ``cpu.flags`` or change IRQ maskability mid-trace), and traps.
_UNTRACEABLE = frozenset({
    Op.JMPR, Op.CALL, Op.CALLR, Op.RET, Op.RETS, Op.PUSHF, Op.POPF,
    Op.CLI, Op.STI, Op.IRET, Op.SWI, Op.HALT,
})

_ALU_REG = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SAR, Op.MUL,
})

_ALU_IMM = {
    Op.ADDI: Op.ADD, Op.SUBI: Op.SUB, Op.ANDI: Op.AND, Op.ORI: Op.OR,
    Op.XORI: Op.XOR, Op.SHLI: Op.SHL, Op.SHRI: Op.SHR, Op.SARI: Op.SAR,
    Op.MULI: Op.MUL,
}

_MEM_OPS = frozenset({Op.LDW, Op.STW, Op.LDB, Op.STB, Op.PUSH, Op.POP})

_TRACEABLE = (
    _ALU_REG
    | frozenset(_ALU_IMM)
    | _MEM_OPS
    | frozenset(BRANCH_CONDITIONS)
    | frozenset({
        Op.MOV, Op.MOVI, Op.NOT, Op.NEG, Op.CMP, Op.CMPI, Op.TEST,
        Op.JMP, Op.NOP,
    })
)

# Branch condition over the closure's local flag booleans.
_COND_EXPR = {
    Cond.EQ: "fz",
    Cond.NE: "not fz",
    Cond.LT: "fn != fv",
    Cond.GE: "fn == fv",
    Cond.GT: "not fz and fn == fv",
    Cond.LE: "fz or fn != fv",
    Cond.LTU: "not fc",
    Cond.GEU: "fc",
}


def _s32(name: str) -> str:
    """Expression reinterpreting the u32 local ``name`` as signed."""
    return f"({name} - (({name} & {_SIGN}) << 1))"


def _signed(value: int) -> int:
    value &= _M
    return value - 0x1_0000_0000 if value >= _SIGN else value


@lru_cache(maxsize=256)
def _compiled(source: str):
    """Process-wide code objects for trace sources.

    Fleet clones of one image record the same regions and so generate
    identical source text; each compiles it once per process.  Sharing
    is coherent because a code object is an immutable function of the
    exact source text, and that text is a trace's whole behaviour apart
    from the names it reads from its globals (bus accessors, ``alive``
    cell, lookaside memo, instruction tuple), which every trace binds
    to its own env at ``exec``.  Invalidation therefore never touches
    this cache: it kills a trace's ``alive`` cell and drops the trace
    from its engine, and another trace's function built from the same
    code object keeps its own env.  An evicted entry only costs a
    recompile.
    """
    return compile(source, "<trace>", "exec")


class Trace:
    """One recorded region: metadata plus lazily compiled closures."""

    __slots__ = (
        "head", "first_len", "n_ops", "iter_max", "alive", "pages",
        "mode", "generation", "built_enabled", "mask_sites",
        "fetch_sites", "codegen", "_plain",
        "_observed", "_env",
    )

    def __init__(self, head: int) -> None:
        self.head = head
        self.alive = [True]
        self._plain = None
        self._observed = None

    def runner(self, observed: bool):
        fn = self._observed if observed else self._plain
        if fn is None:
            # Sources are generated on first use: the observed variant
            # only ever runs under a retire hook.
            source = self.codegen(observed).emit()
            env = dict(self._env)
            exec(_compiled(source), env)  # noqa: S102 - generated here
            fn = env["__trace__"]
            if observed:
                self._observed = fn
            else:
                self._plain = fn
        return fn


class _Codegen:
    """Emits the Python source of one trace closure."""

    def __init__(
        self,
        head: int,
        ops: list,
        closing: str,
        mode: str,
        masks: list,
        write_windows: tuple,
        read_windows: tuple,
        observed: bool,
    ) -> None:
        self.head = head
        self.ops = ops
        self.closing = closing
        self.mode = mode
        self.observed = observed
        self.masks = masks
        self.write_windows = write_windows
        self.read_windows = read_windows
        self.counting = mode != "none"
        self.checked = mode == "full"
        # Per-instruction prefix sums: cycles and MPU check counts for
        # instructions 0..k inclusive.  Folded as constants at exits.
        self.cyc: list[int] = []
        self.chk: list[int] = []
        tc = tk = 0
        for _addr, instr, length, cost in ops:
            tc += cost
            tk += length // 4
            if self.counting and instr.op in _MEM_OPS:
                tk += 1
            self.cyc.append(tc)
            self.chk.append(tk)
        self.iter_max = tc + BRANCH_TAKEN_PENALTY
        self.addr_last = ops[-1][0]
        self.lines: list[str] = []

    # -- helpers --------------------------------------------------------

    def _exit(self, pad: str, done: int, extra: int, ip_expr, cip_expr):
        """Exit the closure with ``done`` instructions completed this
        iteration; all counters are pre-summed constants."""
        out = self.lines.append
        total = (self.cyc[done - 1] if done else 0) + extra
        if total:
            out(f"{pad}cycles += {total}")
        if self.counting:
            ck = self.chk[done - 1] if done else 0
            if ck:
                out(f"{pad}checks += {ck}")
        if not self.observed and done:
            out(f"{pad}retired += {done}")
        out(f"{pad}ip = {ip_expr}")
        out(f"{pad}cip = {cip_expr}")
        out(f"{pad}break")

    def _retire(self, pad: str, k: int) -> None:
        """Observed-mode per-instruction retire: flags written through,
        ``curr_ip`` live, hook called — the Tracer sees the identical
        stream the interpreter would produce."""
        out = self.lines.append
        out(f"{pad}f.z = fz; f.n = fn; f.c = fc; f.v = fv")
        out(f"{pad}cpu.curr_ip = {self.ops[k][0]}")
        out(f"{pad}cpu.instructions_retired += 1")
        out(f"{pad}retired += 1")
        out(f"{pad}on_ret(cpu, I[{k}])")

    def _zn(self, pad: str) -> None:
        out = self.lines.append
        out(f"{pad}fz = _r == 0")
        out(f"{pad}fn = _r >= {_SIGN}")

    def _cip_before(self, k: int):
        # Exit *before* instruction k: the interpreter re-executes it,
        # so curr_ip must be the previously executed instruction.  For
        # k == 0 on the very first iteration nothing ran yet and the
        # entry curr_ip must survive.
        if k > 0:
            return self.ops[k - 1][0]
        return f"cpu.curr_ip if retired == 0 else {self.addr_last}"

    @staticmethod
    def _win_expr(windows: tuple) -> str:
        if not windows:
            return "False"
        return " or ".join(f"{lo} <= _a < {hi}" for lo, hi in windows)

    def _access_guard(
        self, pad: str, k: int, size: int, access: str, windows: tuple
    ) -> None:
        """Exit before the load/store at op ``k`` unless it can run here.

        The per-memory-op MPU check is folded into a probe of the
        lookaside's decision memo; on a miss *or* a cached denial the
        interpreter does the real check.  And outside plain memory
        (MMIO) a register may read device time — a timer count — while
        devices tick only between steps, so a device access runs in a
        trace only as the dispatch's first instruction; anywhere later
        the interpreter performs it on time.
        """
        conds = []
        if self.checked:
            conds.append(
                f"dget(({self.masks[k]}, _a, {size}, {access})) is not True"
            )
        if k > 0:
            conds.append(f"not ({self._win_expr(windows)})")
        elif self.closing != "line":
            # A loop's op 0 comes first only in the first iteration.
            conds.append(f"(cycles and not ({self._win_expr(windows)}))")
        if not conds:
            return
        self.lines.append(f"{pad}if {' or '.join(conds)}:")
        self._exit(pad + "    ", k, 0, self.ops[k][0], self._cip_before(k))

    def _exit_after(self, pad: str, k: int, cond: str) -> None:
        out = self.lines.append
        addr, _instr, length, _cost = self.ops[k]
        out(f"{pad}if {cond}:")
        inner = pad + "    "
        if self.observed:
            self._retire(inner, k)
        self._exit(inner, k + 1, 0, addr + length, addr)

    def _load_guard(self, pad: str, k: int) -> None:
        """After a load: a device read (possible only at op 0) ends the
        run, so its side effects are seen before the next instruction."""
        if k == 0:
            win = self._win_expr(self.read_windows)
            self._exit_after(pad, k, f"not ({win})")

    def _store_guard(self, pad: str, k: int) -> None:
        """After a store: exit if it killed this trace (self-modifying
        code) or, at op 0, left writable RAM (MMIO side effects: device
        state, IRQ raises, MPU reprogramming, DMA)."""
        if k == 0:
            win = self._win_expr(self.write_windows)
            self._exit_after(pad, k, f"not (alive[0] and ({win}))")
        else:
            self._exit_after(pad, k, "not alive[0]")

    # -- per-instruction emission ---------------------------------------

    def _addr_line(self, pad: str, base_reg: int, imm: int) -> None:
        if imm == 0:
            self.lines.append(f"{pad}_a = regs[{base_reg}]")
        else:
            self.lines.append(f"{pad}_a = (regs[{base_reg}] + {imm}) & {_M}")

    def _emit_alu(self, pad: str, op: Op, instr, imm: int | None) -> None:
        out = self.lines.append
        a = int(instr.rs1)
        d = int(instr.rd)
        if imm is None:
            b_expr = "_b"
            out(f"{pad}_a = regs[{a}]; _b = regs[{int(instr.rs2)}]")
        else:
            b_expr = str(imm & _M)
            out(f"{pad}_a = regs[{a}]")
        if op is Op.ADD:
            out(f"{pad}_t = _a + {b_expr}")
            out(f"{pad}_r = _t & {_M}")
            out(f"{pad}regs[{d}] = _r")
            self._zn(pad)
            out(f"{pad}fc = _t > {_M}")
            bs = _signed(imm) if imm is not None else _s32("_b")
            out(f"{pad}fv = ({_s32('_a')} + {bs}) != {_s32('_r')}")
        elif op is Op.SUB:
            out(f"{pad}_r = (_a - {b_expr}) & {_M}")
            out(f"{pad}regs[{d}] = _r")
            self._zn(pad)
            out(f"{pad}fc = _a >= {b_expr}")
            bs = _signed(imm) if imm is not None else _s32("_b")
            out(f"{pad}fv = ({_s32('_a')} - {bs}) != {_s32('_r')}")
        elif op in (Op.AND, Op.OR, Op.XOR):
            sym = {Op.AND: "&", Op.OR: "|", Op.XOR: "^"}[op]
            out(f"{pad}_r = _a {sym} {b_expr}")
            out(f"{pad}regs[{d}] = _r")
            self._zn(pad)
        elif op is Op.SHL:
            sh = f"({b_expr} & 31)" if imm is None else str((imm & _M) & 31)
            out(f"{pad}_r = (_a << {sh}) & {_M}")
            out(f"{pad}regs[{d}] = _r")
            self._zn(pad)
        elif op is Op.SHR:
            sh = f"({b_expr} & 31)" if imm is None else str((imm & _M) & 31)
            out(f"{pad}_r = _a >> {sh}")
            out(f"{pad}regs[{d}] = _r")
            self._zn(pad)
        elif op is Op.SAR:
            sh = f"({b_expr} & 31)" if imm is None else str((imm & _M) & 31)
            out(f"{pad}_r = ({_s32('_a')} >> {sh}) & {_M}")
            out(f"{pad}regs[{d}] = _r")
            self._zn(pad)
        elif op is Op.MUL:
            out(f"{pad}_r = (_a * {b_expr}) & {_M}")
            out(f"{pad}regs[{d}] = _r")
            self._zn(pad)

    def _emit_instr(self, k: int) -> None:
        pad = "        "
        out = self.lines.append
        addr, instr, length, _cost = self.ops[k]
        op = instr.op
        if op in _ALU_REG:
            self._emit_alu(pad, op, instr, None)
        elif op in _ALU_IMM:
            self._emit_alu(pad, _ALU_IMM[op], instr, instr.imm)
        elif op is Op.MOV:
            out(f"{pad}regs[{int(instr.rd)}] = regs[{int(instr.rs1)}]")
        elif op is Op.MOVI:
            out(f"{pad}regs[{int(instr.rd)}] = {instr.imm & _M}")
        elif op is Op.NOT:
            out(f"{pad}_r = regs[{int(instr.rs1)}] ^ {_M}")
            out(f"{pad}regs[{int(instr.rd)}] = _r")
            self._zn(pad)
        elif op is Op.NEG:
            out(f"{pad}_b = regs[{int(instr.rs1)}]")
            out(f"{pad}_r = (0 - _b) & {_M}")
            out(f"{pad}regs[{int(instr.rd)}] = _r")
            self._zn(pad)
            out(f"{pad}fc = _b == 0")
            out(f"{pad}fv = (0 - {_s32('_b')}) != {_s32('_r')}")
        elif op is Op.CMP:
            out(f"{pad}_a = regs[{int(instr.rs1)}]; "
                f"_b = regs[{int(instr.rs2)}]")
            out(f"{pad}_r = (_a - _b) & {_M}")
            self._zn(pad)
            out(f"{pad}fc = _a >= _b")
            out(f"{pad}fv = ({_s32('_a')} - {_s32('_b')}) != {_s32('_r')}")
        elif op is Op.CMPI:
            bu = instr.imm & _M
            out(f"{pad}_a = regs[{int(instr.rs1)}]")
            out(f"{pad}_r = (_a - {bu}) & {_M}")
            self._zn(pad)
            out(f"{pad}fc = _a >= {bu}")
            out(f"{pad}fv = ({_s32('_a')} - {_signed(bu)}) != {_s32('_r')}")
        elif op is Op.TEST:
            out(f"{pad}_r = regs[{int(instr.rs1)}] & "
                f"regs[{int(instr.rs2)}]")
            self._zn(pad)
        elif op in (Op.LDW, Op.LDB):
            size = 4 if op is Op.LDW else 1
            self._addr_line(pad, int(instr.rs1), instr.imm)
            self._access_guard(pad, k, size, "_R", self.read_windows)
            out(f"{pad}regs[{int(instr.rd)}] = br(_a, {size})")
            self._load_guard(pad, k)
        elif op in (Op.STW, Op.STB):
            size = 4 if op is Op.STW else 1
            self._addr_line(pad, int(instr.rs1), instr.imm)
            self._access_guard(pad, k, size, "_W", self.write_windows)
            value = f"regs[{int(instr.rs2)}]"
            if op is Op.STB:
                value += " & 255"
            out(f"{pad}bw(_a, {value}, {size})")
            self._store_guard(pad, k)
        elif op is Op.PUSH:
            out(f"{pad}_a = (regs[15] - 4) & {_M}")
            self._access_guard(pad, k, 4, "_W", self.write_windows)
            out(f"{pad}_v = regs[{int(instr.rs1)}]")
            out(f"{pad}regs[15] = _a")
            out(f"{pad}bw(_a, _v, 4)")
            self._store_guard(pad, k)
        elif op is Op.POP:
            out(f"{pad}_a = regs[15]")
            self._access_guard(pad, k, 4, "_R", self.read_windows)
            out(f"{pad}_v = br(_a, 4)")
            out(f"{pad}regs[15] = (_a + 4) & {_M}")
            out(f"{pad}regs[{int(instr.rd)}] = _v")
            self._load_guard(pad, k)
        elif op in BRANCH_CONDITIONS:
            # Side exit: taken means leaving the trace.
            target = instr.imm & _M
            out(f"{pad}if {_COND_EXPR[BRANCH_CONDITIONS[op]]}:")
            inner = pad + "    "
            if self.observed:
                self._retire(inner, k)
            self._exit(
                inner, k + 1, BRANCH_TAKEN_PENALTY, target, addr
            )
        # NOP and JMP emit no code: a followed JMP's target is the next
        # recorded op, and a line ending in a JMP exits to its target.
        # A loop's closing op is emitted by _emit_closing, never here.
        if self.observed:
            self._retire(pad, k)

    def _emit_closing(self) -> None:
        pad = "        "
        out = self.lines.append
        n = len(self.ops)
        addr, instr, length, _cost = self.ops[-1]
        if self.closing == "jmp":
            if self.observed:
                self._retire(pad, n - 1)
            out(f"{pad}cycles += {self.cyc[-1]}")
            if self.counting:
                out(f"{pad}checks += {self.chk[-1]}")
            if not self.observed:
                out(f"{pad}retired += {n}")
            out(f"{pad}continue")
        else:
            cond = _COND_EXPR[BRANCH_CONDITIONS[instr.op]]
            out(f"{pad}if {cond}:")
            inner = pad + "    "
            if self.observed:
                self._retire(inner, n - 1)
            out(f"{inner}cycles += {self.cyc[-1] + BRANCH_TAKEN_PENALTY}")
            if self.counting:
                out(f"{inner}checks += {self.chk[-1]}")
            if not self.observed:
                out(f"{inner}retired += {n}")
            out(f"{inner}continue")
            if self.observed:
                self._retire(pad, n - 1)
            self._exit(pad, n, 0, addr + length, addr)

    def emit(self) -> str:
        out = self.lines.append
        has_mem = any(i.op in _MEM_OPS for _a, i, _ln, _c in self.ops)
        has_store = any(
            i.op in (Op.STW, Op.STB, Op.PUSH) for _a, i, _ln, _c in self.ops
        )
        out("def __trace__(cpu, allowed):")
        out("    regs = cpu.regs")
        out("    f = cpu.flags")
        out("    fz = f.z; fn = f.n; fc = f.c; fv = f.v")
        if has_mem:
            out("    br = _br; bw = _bw")
        if self.checked and has_mem:
            out("    dget = _dget")
        if has_store:
            out("    alive = _alive")
        if self.observed:
            out("    on_ret = cpu.on_retire")
            out("    I = _I")
        out("    cycles = 0")
        out("    retired = 0")
        if self.counting:
            # The dispatcher already performed instruction 0's fetch
            # check(s) for the first iteration via the real checker;
            # every per-iteration prefix constant includes them, so
            # start negative to cancel the duplicate exactly.
            out(f"    checks = {-(self.ops[0][2] // 4)}")
        out("    while True:")
        if self.closing == "line":
            # One pass: the dispatcher already checked that the whole
            # line fits the allowed cycles.
            for k in range(len(self.ops)):
                self._emit_instr(k)
            addr, instr, length, _cost = self.ops[-1]
            end = instr.imm & _M if instr.op is Op.JMP else addr + length
            self._exit("        ", len(self.ops), 0, end, addr)
        else:
            out(f"        if cycles + {self.iter_max} > allowed:")
            out(f"            ip = {self.head}")
            out(f"            cip = {self.addr_last}")
            out("            break")
            for k in range(len(self.ops) - 1):
                self._emit_instr(k)
            self._emit_closing()
        out("    f.z = fz; f.n = fn; f.c = fc; f.v = fv")
        out("    cpu.ip = ip")
        out("    cpu.curr_ip = cip")
        if not self.observed:
            out("    cpu.instructions_retired += retired")
        if self.counting:
            out("    _la.mpu.stats.checks += checks")
        out("    return cycles, retired")
        return "\n".join(self.lines) + "\n"


class TraceEngine:
    """Hot-region detector, recorder and dispatcher (one per CPU)."""

    HOT_THRESHOLD = 8
    MAX_OPS = 64
    MAX_HOT_SITES = 4096

    def __init__(self, fastpath: "FastPath") -> None:
        self.fastpath = fastpath
        self.cpu = fastpath.cpu
        self.bus = fastpath.bus
        self._hot: dict[int, int] = {}
        self._traces: dict[int, Trace] = {}
        self._blacklist: set[int] = set()
        self._pages: dict[int, set[int]] = {}
        self.runs = 0
        self.instructions = 0
        self.batched_cycles = 0
        self.recorded = 0
        self.aborted = 0
        self.invalidations = 0
        self.flushes = 0
        self.drops = 0

    @property
    def stats(self) -> dict:
        return {
            "traces": len(self._traces),
            "runs": self.runs,
            "instructions": self.instructions,
            "cycles": self.batched_cycles,
            "recorded": self.recorded,
            "aborted": self.aborted,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
            "drops": self.drops,
        }

    # -- hot detection --------------------------------------------------

    def note_entry(self, target: int) -> None:
        """Called by the CPU whenever a budgeted step lands at
        ``target`` non-sequentially: a taken branch or jump, an
        interrupt vector, or the exit of a trace run."""
        if target in self._traces or target in self._blacklist:
            return
        count = self._hot.get(target, 0) + 1
        if count >= self.HOT_THRESHOLD:
            self._hot.pop(target, None)
            self._try_record(target)
            return
        if count == 1 and len(self._hot) >= self.MAX_HOT_SITES:
            self._hot.clear()
        self._hot[target] = count

    # -- invalidation ---------------------------------------------------

    def invalidate_range(self, address: int, length: int) -> None:
        """Kill every trace sharing a page with the written range."""
        if self._blacklist:
            # The code that made a head unrecordable may just have
            # changed; re-discover from scratch.
            self._blacklist.clear()
        pages = self._pages
        if not pages:
            return
        first = address >> PAGE_SHIFT
        last = (address + length - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            heads = pages.pop(page, None)
            if not heads:
                continue
            for head in heads:
                trace = self._traces.pop(head, None)
                if trace is None:
                    continue
                trace.alive[0] = False
                self.invalidations += 1
                for other in trace.pages:
                    if other != page:
                        neighbours = pages.get(other)
                        if neighbours is not None:
                            neighbours.discard(head)

    def flush(self) -> None:
        for trace in self._traces.values():
            trace.alive[0] = False
        self._traces.clear()
        self._pages.clear()
        self._hot.clear()
        self._blacklist.clear()
        self.flushes += 1

    def _drop(self, trace: Trace) -> None:
        trace.alive[0] = False
        self._traces.pop(trace.head, None)
        for page in trace.pages:
            heads = self._pages.get(page)
            if heads is not None:
                heads.discard(trace.head)
        self.drops += 1

    # -- MPU helpers (stats-free: host-side validation, not checks) -----

    @staticmethod
    def _mask_for(la: "MpuLookaside", subject_ip: int) -> int:
        mask = la._subject_masks.get(subject_ip)
        if mask is None:
            mask = 0
            for base, end, _perm, _subjects, index in la._compiled:
                if base <= subject_ip < end:
                    mask |= 1 << index
            la._subject_masks[subject_ip] = mask
        return mask

    @staticmethod
    def _scan_allows(
        la: "MpuLookaside", mask: int, address: int, size: int, access
    ) -> bool:
        needed = _PERM_FOR_ACCESS[access]
        limit = address + size
        for base, end, perm, subjects, _index in la._compiled:
            if (
                base <= address
                and limit <= end
                and perm & needed
                and (subjects == ANY_SUBJECT or subjects & mask)
            ):
                return True
        return False

    # -- recording ------------------------------------------------------

    def _walk(self, head: int):
        """Statically decode the region entered at ``head``.

        Returns ``(ops, closing)``: ``"jmp"``/``"cond"`` when a branch
        closes back to ``head`` (a loop), else ``"line"`` — straight-line
        code through followed direct ``jmp``s, ending before the first
        op the recorder refuses, before an address it already holds, or
        at ``MAX_OPS``.  ``None`` if not even ``head`` is recordable.
        """
        bus = self.bus
        ops: list = []
        seen: set[int] = set()
        addr = head
        while len(ops) < self.MAX_OPS and addr not in seen:
            if not bus.is_ram_backed(addr, 4):
                break
            word = bus.read(addr, 4)
            try:
                op = Op((word >> 24) & 0xFF)
            except ValueError:
                break
            if op in _UNTRACEABLE or op not in _TRACEABLE:
                break
            length = instruction_length(op)
            ext = None
            if length == 8:
                if not bus.is_ram_backed(addr + 4, 4):
                    break
                ext = bus.read(addr + 4, 4)
            try:
                instr = decode(word, ext)
            except EncodingError:
                break
            ops.append((addr, instr, length, cycle_cost(op)))
            seen.add(addr)
            if op is Op.JMP:
                addr = instr.imm & _M
                if addr == head:
                    return ops, "jmp"
                continue
            if op in BRANCH_CONDITIONS and (instr.imm & _M) == head:
                return ops, "cond"
            addr += length
        return (ops, "line") if ops else None

    def _try_record(self, head: int) -> None:
        cpu = self.cpu
        la = self.fastpath.lookaside
        checker = cpu._checker
        if checker is not None and la is None:
            # Non-lookaside MPU hook: checks cannot be folded.
            self._blacklist.add(head)
            return
        if la is not None and la.mpu.generation != la._generation:
            la._reload()
        mode = "none"
        built_enabled = False
        if checker is not None:
            built_enabled = la.mpu.enabled
            mode = "full" if built_enabled else "disabled"
        walk = self._walk(head)
        if walk is None:
            self.aborted += 1
            self._blacklist.add(head)
            return
        ops, closing = walk
        masks: list = [None] * len(ops)
        mask_sites: dict[int, int] = {}
        fetch_sites: list[tuple[int, int]] = []
        if mode == "full":
            for k, (addr, instr, _length, _cost) in enumerate(ops):
                if instr.op in _MEM_OPS:
                    m = self._mask_for(la, addr)
                    masks[k] = m
                    mask_sites[addr] = m
            # In-trace fetch permissions: instruction k's fetch subject
            # is its predecessor in execution order (across followed
            # jumps too); a loop's instruction 0 is re-fetched after
            # the closing branch.  The entry fetch, with its dynamic
            # subject, is checked live per dispatch.
            prev = ops[-1][0] if closing != "line" else None
            for addr, _instr, length, _cost in ops:
                if prev is not None:
                    sm = self._mask_for(la, prev)
                    mask_sites[prev] = sm
                    for word_addr in range(addr, addr + length, 4):
                        fetch_sites.append((prev, word_addr))
                        if not self._scan_allows(
                            la, sm, word_addr, 4, AccessType.FETCH
                        ):
                            # The region would fault; let the
                            # interpreter run it (and retry recording
                            # if the policy changes — no blacklist).
                            self.aborted += 1
                            return
                prev = addr
        trace = Trace(head)
        trace.mode = mode
        trace.built_enabled = built_enabled
        trace.generation = la._generation if la is not None else -1
        trace.n_ops = len(ops)
        trace.first_len = ops[0][2]
        trace.mask_sites = tuple(mask_sites.items())
        trace.fetch_sites = tuple(fetch_sites)
        trace.codegen = partial(
            _Codegen, head, ops, closing, mode, masks,
            self.bus.ram_write_windows(), self.bus.ram_read_windows(),
        )
        trace.iter_max = trace.codegen(False).iter_max
        env = {
            "_br": self.bus.read,
            "_bw": self.bus.write,
            "_alive": trace.alive,
            "_R": AccessType.READ,
            "_W": AccessType.WRITE,
            "_I": tuple(instr for _a, instr, _ln, _c in ops),
        }
        if mode == "full":
            env["_dget"] = la._decisions.get
        if mode != "none":
            env["_la"] = la
        trace._env = env
        # Every page any op's bytes touch: a followed jump makes the
        # region non-contiguous.
        trace.pages = tuple(sorted({
            page
            for addr, _instr, length, _cost in ops
            for page in range(
                addr >> PAGE_SHIFT, ((addr + length - 1) >> PAGE_SHIFT) + 1
            )
        }))
        self._traces[head] = trace
        for page in trace.pages:
            self._pages.setdefault(page, set()).add(head)
        self.recorded += 1

    # -- revalidation and dispatch --------------------------------------

    def _revalidate(self, trace: Trace, la: "MpuLookaside") -> bool:
        """After an MPU generation bump: the baked subject masks and
        in-loop fetch decisions must still hold, else the trace dies."""
        mpu = la.mpu
        if mpu.enabled != trace.built_enabled:
            return False
        if mpu.enabled:
            for subject, mask in trace.mask_sites:
                if self._mask_for(la, subject) != mask:
                    return False
            for subject, addr in trace.fetch_sites:
                mask = self._mask_for(la, subject)
                if not self._scan_allows(
                    la, mask, addr, 4, AccessType.FETCH
                ):
                    return False
        trace.generation = la._generation
        return True

    def dispatch(self, budget: int):
        """Run the trace at ``cpu.ip`` if one exists and fits; returns
        consumed cycles, or ``None`` to fall back to the interpreter.

        May raise :class:`MemoryProtectionFault` from the per-entry
        fetch check — the CPU's step loop handles it exactly like an
        interpreter fetch fault.
        """
        cpu = self.cpu
        trace = self._traces.get(cpu.ip)
        if trace is None:
            return None
        checker = cpu._checker
        la = self.fastpath.lookaside
        if checker is not None:
            if la is None or trace.mode == "none":
                self._drop(trace)
                return None
            if la.mpu.generation != la._generation:
                la._reload()
            if trace.generation != la._generation and not self._revalidate(
                trace, la
            ):
                self._drop(trace)
                return None
        elif trace.mode != "none":
            self._drop(trace)
            return None
        # Bound the batch by the next device event so batched bus
        # ticks cannot fire an interrupt later than the reference
        # engine would have delivered it.
        allowed = budget
        horizon_fn = cpu.event_horizon
        if horizon_fn is not None:
            horizon = horizon_fn()
            if horizon is not None and horizon < allowed:
                allowed = horizon
        if allowed < trace.iter_max:
            return None
        if checker is not None:
            # The one real MPU/lookaside check per trace entry:
            # instruction 0's fetch with its live (dynamic) subject.
            head = trace.head
            checker(cpu.curr_ip, head, 4, AccessType.FETCH)
            if trace.first_len == 8:
                checker(cpu.curr_ip, head + 4, 4, AccessType.FETCH)
        runner = trace.runner(cpu.on_retire is not None)
        cycles, retired = runner(cpu, allowed)
        if retired == 0 and cycles == 0:
            # Side exit before instruction 0 on the very first
            # iteration (cold lookaside memo): no architectural change
            # happened and the closure's check arithmetic cancelled the
            # entry fetch check, so hand the instruction to the
            # interpreter — it performs the real (memo-filling) check.
            return None
        self.runs += 1
        self.instructions += retired
        self.batched_cycles += cycles
        return cycles
