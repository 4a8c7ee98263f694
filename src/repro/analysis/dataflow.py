"""Interprocedural value-set dataflow over SP32 trustlet code.

A worklist abstract interpretation over the lifted CFG
(:mod:`repro.analysis.cfg`).  Each register holds an abstract value —
a finite set of possible 32-bit words, or TOP (``values=None``,
meaning *any* word) — plus a set of taint labels naming the untrusted
sources that may have influenced it.  Three facts fall out per module:

* **memory facts** — for every reachable load/store, the set of
  effective addresses it can touch (exact when finite), with the taint
  of both the address and the stored value;
* **jump facts** — for every reachable computed transfer
  (``jmpr``/``callr``/``ret``), the resolved target set and the taint
  of the target register;
* **stack bounds** — for every entry root (each entry-vector slot plus
  ``init_ip``), the maximum stack depth in bytes that root can reach,
  or the proof obligation that no static bound exists.

Soundness discipline (the same contract as the rest of trustlint):

* joins are set unions; a value set that outgrows :data:`MAX_VALUES`
  widens to TOP, and any block whose in-state keeps changing after
  :data:`WIDEN_AFTER` joins has its changing components widened to
  TOP — so a *loop-carried constant* (``movi`` before the loop)
  survives the back-edge join, while an oscillating induction variable
  widens instead of cycling forever;
* calls are linked through the LR register: a ``call``/resolved
  ``callr`` propagates into the callee with ``lr = {return address}``
  and the return site is reached only via ``ret`` through the callee —
  never directly along the call's fallthrough edge — so callee effects
  on registers are never skipped;
* ``rets``/``iret`` pop their target from memory we do not model and
  are terminal for propagation; an unresolved (TOP) computed transfer
  likewise propagates nowhere.  Both *under*-approximate reachability,
  which is the conservative direction for a linter: fewer facts, never
  false facts.
* stack depth is tracked in bytes relative to the root
  (``push``/``pushf`` +4, ``pop``/``popf``/``rets`` -4,
  ``addi/subi sp, sp, imm`` adjust); any other write to SP makes the
  depth unknown from there on.  Depth joins take the maximum (an upper
  bound); a depth that keeps *growing* through a widening point is
  reported as statically unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.cfg import BasicBlock, ModuleCfg
from repro.isa.disasm import DisassembledLine
from repro.isa.opcodes import BRANCH_CONDITIONS, Op
from repro.isa.registers import WORD_MASK, Reg

#: Value sets larger than this widen to TOP.
MAX_VALUES = 8
#: Changed joins tolerated at one block before its in-state is widened.
WIDEN_AFTER = 3
#: Worklist visits per block before the analysis gives up on a root
#: (sets ``incomplete`` — downstream rules then drop the module's
#: must-facts instead of trusting a pre-fixpoint state).
ITERATION_CAP = 512

_NUM_REGS = 16
_M = WORD_MASK


@dataclass(frozen=True, slots=True)
class AbsVal:
    """One register's abstract value: possible words + taint labels."""

    values: frozenset[int] | None  # None = TOP (any word)
    taint: frozenset[str] = frozenset()

    @classmethod
    def top(cls, taint: frozenset[str] = frozenset()) -> "AbsVal":
        return cls(None, taint)

    @classmethod
    def const(cls, value: int) -> "AbsVal":
        return cls(frozenset({value & _M}))

    @property
    def singleton(self) -> int | None:
        if self.values is not None and len(self.values) == 1:
            return next(iter(self.values))
        return None

    def join(self, other: "AbsVal") -> "AbsVal":
        taint = self.taint | other.taint
        if self.values is None or other.values is None:
            return AbsVal(None, taint)
        merged = self.values | other.values
        if len(merged) > MAX_VALUES:
            return AbsVal(None, taint)
        return AbsVal(merged, taint)

    def map(self, fn) -> "AbsVal":
        """Apply ``fn`` pointwise; TOP stays TOP, taint is preserved."""
        if self.values is None:
            return self
        return AbsVal(frozenset(fn(v) & _M for v in self.values),
                      self.taint)


_TOP = AbsVal.top()


@dataclass(frozen=True, slots=True)
class RegState:
    """Abstract machine state at one program point."""

    regs: tuple[AbsVal, ...]  # indexed by Reg (16 entries)
    depth: int | None = 0     # stack bytes below the root's SP; None=?

    @classmethod
    def entry(cls, *, tainted: dict[int, frozenset[str]] | None = None
              ) -> "RegState":
        regs = [_TOP] * _NUM_REGS
        for reg, labels in (tainted or {}).items():
            regs[reg] = AbsVal(None, labels)
        return cls(tuple(regs))

    def get(self, reg: int) -> AbsVal:
        return self.regs[reg]

    def set(self, reg: int, val: AbsVal) -> "RegState":
        regs = list(self.regs)
        regs[reg] = val
        return replace(self, regs=tuple(regs))

    def havoc(self) -> "RegState":
        """Forget every register (e.g. across a syscall)."""
        return replace(self, regs=(_TOP,) * _NUM_REGS)

    def adjust_depth(self, delta: int) -> "RegState":
        if self.depth is None:
            return self
        return replace(self, depth=self.depth + delta)

    def unknown_depth(self) -> "RegState":
        return replace(self, depth=None)

    def join(self, other: "RegState") -> "RegState":
        regs = tuple(a.join(b) for a, b in zip(self.regs, other.regs))
        if self.depth is None or other.depth is None:
            depth = None
        else:
            depth = max(self.depth, other.depth)
        return RegState(regs, depth)


@dataclass(frozen=True)
class MemFact:
    """A reachable load/store with its resolved address set."""

    address: int                      # instruction address
    size: int                         # 1 or 4
    is_store: bool
    targets: frozenset[int] | None    # effective addresses; None=unknown
    addr_taint: frozenset[str]
    value_taint: frozenset[str]       # stores: taint of the stored value

    @property
    def singleton_target(self) -> int | None:
        if self.targets is not None and len(self.targets) == 1:
            return next(iter(self.targets))
        return None


@dataclass(frozen=True)
class JumpFact:
    """A reachable computed control transfer."""

    address: int
    op: str                           # "jmpr" | "callr" | "ret"
    targets: frozenset[int] | None    # None = unresolved
    taint: frozenset[str]             # taint of the target register


@dataclass(frozen=True)
class StackBound:
    """Static stack-depth bound for one entry root."""

    root: str                         # "entry+0x8", "init", ...
    address: int
    max_depth: int | None             # bytes; None = no static bound
    unbounded: bool                   # depth grew monotonically (cycle)


@dataclass(frozen=True)
class ModuleDataflow:
    """Everything the dataflow pass proved about one module."""

    name: str
    mem_facts: tuple[MemFact, ...]
    jump_facts: tuple[JumpFact, ...]
    stack_bounds: tuple[StackBound, ...]
    incomplete: bool = False          # iteration cap hit: no must-facts


# ---------------------------------------------------------------------
# Transfer function.

_ALU_IMM = {
    Op.ADDI: lambda a, b: a + b,
    Op.SUBI: lambda a, b: a - b,
    Op.ANDI: lambda a, b: a & b,
    Op.ORI: lambda a, b: a | b,
    Op.XORI: lambda a, b: a ^ b,
    Op.SHLI: lambda a, b: a << (b & 31),
    Op.SHRI: lambda a, b: (a & _M) >> (b & 31),
    Op.SARI: lambda a, b: _sar(a, b),
    Op.MULI: lambda a, b: a * b,
}

_ALU_REG = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << (b & 31),
    Op.SHR: lambda a, b: (a & _M) >> (b & 31),
    Op.SAR: lambda a, b: _sar(a, b),
    Op.MUL: lambda a, b: a * b,
}

_LOADS = {Op.LDW: 4, Op.LDB: 1}
_STORES = {Op.STW: 4, Op.STB: 1}


def _sar(a: int, b: int) -> int:
    signed = a - 0x1_0000_0000 if a & 0x8000_0000 else a
    return signed >> (b & 31)


def _binop(a: AbsVal, b: AbsVal, fn) -> AbsVal:
    taint = a.taint | b.taint
    if a.values is None or b.values is None:
        return AbsVal(None, taint)
    if len(a.values) * len(b.values) > MAX_VALUES:
        return AbsVal(None, taint)
    merged = frozenset(fn(x, y) & _M for x in a.values for y in b.values)
    if len(merged) > MAX_VALUES:
        return AbsVal(None, taint)
    return AbsVal(merged, taint)


def _window_labels(
    targets: frozenset[int] | None,
    size: int,
    windows: tuple[tuple[int, int, str], ...],
) -> frozenset[str]:
    """Taint labels of every source window a resolved load can touch."""
    if targets is None:
        return frozenset()
    labels = set()
    for target in targets:
        for start, end, label in windows:
            if target < end and target + size > start:
                labels.add(label)
    return frozenset(labels)


def _step(
    state: RegState,
    line: DisassembledLine,
    windows: tuple[tuple[int, int, str], ...],
    record=None,
) -> RegState:
    """Abstractly execute one instruction (terminators excluded —
    control effects happen in :func:`_successors`)."""
    ins = line.instruction
    op = ins.op

    if op in _LOADS or op in _STORES:
        size = _LOADS.get(op) or _STORES[op]
        base = state.get(ins.rs1)
        targets = None
        if base.values is not None:
            targets = frozenset((v + ins.imm) & _M for v in base.values)
        is_store = op in _STORES
        if record is not None:
            record(MemFact(
                address=line.address,
                size=size,
                is_store=is_store,
                targets=targets,
                addr_taint=base.taint,
                value_taint=(state.get(ins.rs2).taint
                             if is_store else frozenset()),
            ))
        if is_store:
            return state
        # Loaded value: unknown word, tainted by any source window the
        # resolved addresses overlap, plus the pointer's own taint (an
        # attacker-steered pointer yields an attacker-chosen value).
        taint = base.taint | _window_labels(targets, size, windows)
        state = state.set(ins.rd, AbsVal(None, taint))
        if ins.rd == Reg.SP:
            return state.unknown_depth()  # e.g. 'ldw sp, [fp]' resume
        return state

    if op is Op.MOVI:
        state = state.set(ins.rd, AbsVal.const(ins.imm))
        return state.unknown_depth() if ins.rd == Reg.SP else state
    if op is Op.MOV:
        state = state.set(ins.rd, state.get(ins.rs1))
        return state.unknown_depth() if ins.rd == Reg.SP else state
    if op is Op.NOT:
        state = state.set(ins.rd, state.get(ins.rs1).map(lambda v: ~v))
        return state.unknown_depth() if ins.rd == Reg.SP else state
    if op is Op.NEG:
        state = state.set(ins.rd, state.get(ins.rs1).map(lambda v: -v))
        return state.unknown_depth() if ins.rd == Reg.SP else state

    if op in _ALU_IMM:
        src = state.get(ins.rs1)
        out = src.map(lambda v: _ALU_IMM[op](v, ins.imm))
        state = state.set(ins.rd, out)
        if ins.rd == Reg.SP:
            if ins.rs1 == Reg.SP and op is Op.ADDI:
                return state.adjust_depth(-ins.imm)
            if ins.rs1 == Reg.SP and op is Op.SUBI:
                return state.adjust_depth(ins.imm)
            return state.unknown_depth()
        return state

    if op in _ALU_REG:
        out = _binop(state.get(ins.rs1), state.get(ins.rs2), _ALU_REG[op])
        state = state.set(ins.rd, out)
        if ins.rd == Reg.SP:
            return state.unknown_depth()
        return state

    if op in (Op.CMP, Op.TEST):
        # A compare against the value is the sanitizing check the taint
        # rules look for: both operands are considered vetted after it.
        state = state.set(ins.rs1, AbsVal(state.get(ins.rs1).values))
        return state.set(ins.rs2, AbsVal(state.get(ins.rs2).values))
    if op is Op.CMPI:
        return state.set(ins.rs1, AbsVal(state.get(ins.rs1).values))

    if op is Op.PUSH or op is Op.PUSHF:
        return state.adjust_depth(4)
    if op is Op.POPF:
        return state.adjust_depth(-4)
    if op is Op.POP:
        state = state.set(ins.rd, _TOP)
        state = state.adjust_depth(-4)
        if ins.rd == Reg.SP:
            return state.unknown_depth()
        return state

    # NOP/CLI/STI and every terminator: no register effect here.
    return state


# ---------------------------------------------------------------------
# Successor computation (control transfer semantics).


def _in_module_block(cfg: ModuleCfg, starts: frozenset[int],
                     target: int) -> bool:
    return cfg.base <= target < cfg.end and target in starts


def _successors(
    cfg: ModuleCfg,
    starts: frozenset[int],
    block: BasicBlock,
    state: RegState,
) -> list[tuple[int, RegState]]:
    term = block.terminator
    if term is None:
        return []
    ins = term.instruction
    op = ins.op
    after = term.address + term.size
    out: list[tuple[int, RegState]] = []

    def follow(target: int, st: RegState) -> None:
        if _in_module_block(cfg, starts, target):
            out.append((target, st))

    if op is Op.JMP:
        follow(ins.imm & _M, state)
    elif op in BRANCH_CONDITIONS:
        follow(ins.imm & _M, state)
        follow(after, state)
    elif op is Op.CALL:
        follow(ins.imm & _M, state.set(Reg.LR, AbsVal.const(after)))
    elif op is Op.CALLR:
        targets = state.get(ins.rs1).values
        linked = state.set(Reg.LR, AbsVal.const(after))
        for target in targets or ():
            follow(target, linked)
    elif op is Op.JMPR:
        for target in state.get(ins.rs1).values or ():
            follow(target, state)
    elif op is Op.RET:
        for target in state.get(Reg.LR).values or ():
            follow(target, state)
    elif op is Op.SWI:
        # The handler runs in another protection domain and may leave
        # anything in the registers when it irets back.
        follow(after, state.havoc())
    elif op in (Op.RETS, Op.IRET, Op.HALT):
        pass  # target lives in unmodeled memory / ends the task
    else:
        # Block split by a leader: plain fallthrough.
        follow(after, state)
    return out


# ---------------------------------------------------------------------
# Worklist driver.


class _RootRun:
    """One worklist fixpoint from a single entry root."""

    def __init__(
        self,
        cfg: ModuleCfg,
        windows: tuple[tuple[int, int, str], ...],
    ) -> None:
        self.cfg = cfg
        self.windows = windows
        self.starts = frozenset(b.start for b in cfg.blocks)
        self.blocks = {b.start: b for b in cfg.blocks}
        self.in_states: dict[int, RegState] = {}
        self.join_bumps: dict[int, int] = {}
        self.visits: dict[int, int] = {}
        self.unbounded = False
        self.incomplete = False

    def run(self, root: int, state: RegState) -> None:
        if root not in self.starts:
            return
        self.in_states[root] = state
        work = [root]
        while work:
            start = work.pop()
            self.visits[start] = self.visits.get(start, 0) + 1
            if self.visits[start] > ITERATION_CAP:
                self.incomplete = True
                continue
            block = self.blocks[start]
            out = self.in_states[start]
            for line in block.lines:
                # _step is a no-op on control terminators; their
                # effects (LR linking, havoc) live in _successors.
                out = _step(out, line, self.windows)
            for target, st in _successors(
                self.cfg, self.starts, block, out
            ):
                if self._merge(target, st):
                    work.append(target)

    def _merge(self, target: int, incoming: RegState) -> bool:
        old = self.in_states.get(target)
        if old is None:
            self.in_states[target] = incoming
            self.join_bumps[target] = 1
            return True
        new = old.join(incoming)
        if new == old:
            return False
        bumps = self.join_bumps.get(target, 0) + 1
        self.join_bumps[target] = bumps
        if bumps > WIDEN_AFTER:
            new = self._widen(old, new)
        self.in_states[target] = new
        return new != old

    def _widen(self, old: RegState, new: RegState) -> RegState:
        regs = []
        for before, after in zip(old.regs, new.regs):
            if after.values != before.values:
                regs.append(AbsVal(None, after.taint))
            else:
                regs.append(after)
        depth = new.depth
        if depth is not None and old.depth is not None \
                and depth > old.depth:
            # Still growing at a widening point: a cycle pushes more
            # than it pops, so no static bound exists.
            self.unbounded = True
            depth = None
        return RegState(tuple(regs), depth)

    def collect(self) -> tuple[list[MemFact], list[JumpFact], int | None]:
        """Walk each reached block once over its stable in-state,
        recording facts and the peak stack depth."""
        mem: list[MemFact] = []
        jumps: list[JumpFact] = []
        max_depth: int | None = 0
        depth_known = True
        for start, state in self.in_states.items():
            block = self.blocks[start]
            for line in block.lines:
                ins = line.instruction
                op = ins.op
                if op in (Op.JMPR, Op.CALLR):
                    val = state.get(ins.rs1)
                    jumps.append(JumpFact(
                        address=line.address,
                        op=op.name.lower(),
                        targets=val.values,
                        taint=val.taint,
                    ))
                elif op is Op.RET:
                    val = state.get(Reg.LR)
                    jumps.append(JumpFact(
                        address=line.address,
                        op="ret",
                        targets=val.values,
                        taint=val.taint,
                    ))
                state = _step(state, line, self.windows,
                              record=mem.append)
                if state.depth is None:
                    depth_known = False
                elif max_depth is not None:
                    max_depth = max(max_depth, state.depth)
        if not depth_known:
            max_depth = None
        return mem, jumps, max_depth


def analyze_module(
    cfg: ModuleCfg,
    *,
    roots: tuple[tuple[str, int], ...],
    taint_windows: tuple[tuple[int, int, str], ...] = (),
    ipc_taint_roots: frozenset[str] = frozenset(),
    ipc_taint_regs: tuple[int, ...] = (Reg.R0, Reg.R1),
    ipc_label: str = "ipc",
) -> ModuleDataflow:
    """Run the value-set/taint/stack analysis from every entry root.

    ``roots`` are ``(label, address)`` pairs; roots named in
    ``ipc_taint_roots`` start with the IPC argument registers tainted
    (the call() slot receives caller-controlled r0/r1 — r2 is the
    sanctioned return-entry register the EA-MPU vets at runtime).
    """
    mem: dict[tuple, MemFact] = {}
    jumps: dict[tuple, JumpFact] = {}
    bounds: list[StackBound] = []
    incomplete = False

    for label, address in roots:
        tainted = {}
        if label in ipc_taint_roots:
            tainted = {
                reg: frozenset({ipc_label}) for reg in ipc_taint_regs
            }
        run = _RootRun(cfg, taint_windows)
        run.run(address, RegState.entry(tainted=tainted))
        incomplete = incomplete or run.incomplete
        root_mem, root_jumps, max_depth = run.collect()
        for fact in root_mem:
            key = (fact.address,)
            prior = mem.get(key)
            mem[key] = fact if prior is None else _merge_mem(prior, fact)
        for fact in root_jumps:
            key = (fact.address,)
            prior = jumps.get(key)
            jumps[key] = fact if prior is None \
                else _merge_jump(prior, fact)
        bounds.append(StackBound(
            root=label,
            address=address,
            max_depth=None if run.unbounded else max_depth,
            unbounded=run.unbounded,
        ))

    return ModuleDataflow(
        name=cfg.name,
        mem_facts=tuple(sorted(mem.values(), key=lambda f: f.address)),
        jump_facts=tuple(sorted(jumps.values(), key=lambda f: f.address)),
        stack_bounds=tuple(bounds),
        incomplete=incomplete,
    )


def _merge_mem(a: MemFact, b: MemFact) -> MemFact:
    if a.targets is None or b.targets is None:
        targets = None
    else:
        targets = a.targets | b.targets
    return MemFact(
        address=a.address, size=a.size, is_store=a.is_store,
        targets=targets,
        addr_taint=a.addr_taint | b.addr_taint,
        value_taint=a.value_taint | b.value_taint,
    )


def _merge_jump(a: JumpFact, b: JumpFact) -> JumpFact:
    if a.targets is None or b.targets is None:
        targets = None
    else:
        targets = a.targets | b.targets
    return JumpFact(
        address=a.address, op=a.op, targets=targets,
        taint=a.taint | b.taint,
    )


def module_roots(module) -> tuple[tuple[str, int], ...]:
    """Entry roots of a parsed module: every entry-vector slot plus the
    loader's ``init_ip``."""
    roots = []
    for offset in range(0, module.entry_size, 8):
        roots.append((f"entry+{offset:#x}", module.code_base + offset))
    if all(module.init_ip != addr for _, addr in roots):
        roots.append(("init", module.init_ip))
    return tuple(roots)
