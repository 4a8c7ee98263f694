"""The trustlint rule catalogue.

Each rule inspects one TrustLite invariant over an
:class:`AnalysisContext` (parsed modules + lifted CFGs + static
policy) and yields :class:`~repro.analysis.report.Finding` records.
Rule ids are stable strings (``TL-<AREA>-<NNN>``) so CI gates and docs
can reference them; see ``docs/ANALYSIS.md`` for the full catalogue
with examples.

Conservatism contract: every rule only fires on facts the analysis
*proved* (a resolved address, a declared metadata span).  Unresolvable
computed jumps and loads are silent — the runtime EA-MPU remains the
enforcement backstop for those, exactly as the paper divides work
between verification and enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.cfg import EdgeKind, ModuleCfg
from repro.analysis.dataflow import ModuleDataflow
from repro.analysis.policy import AnalysisConfig, StaticPolicy
from repro.analysis.report import Finding, Severity
from repro.analysis.taint import control_sinks, crypto_sinks, policy_sinks
from repro.core.loader import ParsedModule
from repro.isa.opcodes import Op
from repro.mpu.regions import Perm, spans_overlap

# Entry-vector slots are 8-byte jump stubs (repro.sw.runtime).
ENTRY_SLOT_STRIDE = 8


@dataclass
class AnalysisContext:
    """Everything a rule may look at."""

    modules: tuple[ParsedModule, ...]
    cfgs: dict[str, ModuleCfg]
    policy: StaticPolicy
    config: AnalysisConfig
    dataflow: dict[str, ModuleDataflow] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def module_covering_code(self, address: int) -> ParsedModule | None:
        for module in self.modules:
            if module.code_base <= address < module.code_end:
                return module
        return None


@dataclass(frozen=True)
class Rule:
    """One catalogue entry: id, default severity, and the check."""

    rule_id: str
    severity: Severity
    title: str
    check: Callable[["AnalysisContext"], Iterable[Finding]]

    def run(self, ctx: AnalysisContext) -> Iterator[Finding]:
        yield from self.check(ctx)


ALL_RULES: list[Rule] = []


def _rule(rule_id: str, severity: Severity, title: str):
    def register(check):
        ALL_RULES.append(Rule(rule_id, severity, title, check))
        return check
    return register


def _finding(
    rule_id: str,
    severity: Severity,
    message: str,
    *,
    module: str | None = None,
    address: int | None = None,
) -> Finding:
    return Finding(
        rule=rule_id, severity=severity, message=message,
        module=module, address=address,
    )


# ---------------------------------------------------------------------
# Control-flow rules.


@_rule(
    "TL-CFG-001", Severity.ERROR,
    "direct control transfer leaves every code region",
)
def check_wild_branches(ctx: AnalysisContext) -> Iterator[Finding]:
    for cfg in ctx.cfgs.values():
        for edge in cfg.transfer_edges():
            if edge.target is None:
                continue
            if ctx.module_covering_code(edge.target) is None:
                yield _finding(
                    "TL-CFG-001", Severity.ERROR,
                    f"{edge.kind.value} to {edge.target:#010x} lands in "
                    "no module's code region (wild branch)",
                    module=cfg.name, address=edge.source,
                )


@_rule(
    "TL-ENTRY-001", Severity.ERROR,
    "cross-compartment transfer bypasses the entry vector",
)
def check_entry_discipline(ctx: AnalysisContext) -> Iterator[Finding]:
    for cfg in ctx.cfgs.values():
        for edge in cfg.transfer_edges():
            if edge.target is None or cfg.contains(edge.target):
                continue
            peer = ctx.module_covering_code(edge.target)
            if peer is None:
                continue  # TL-CFG-001's business
            offset = edge.target - peer.code_base
            if offset >= peer.entry_size:
                yield _finding(
                    "TL-ENTRY-001", Severity.ERROR,
                    f"{edge.kind.value} into the middle of {peer.name!r} "
                    f"(code offset {offset:#x}, entry vector ends at "
                    f"{peer.entry_size:#x})",
                    module=cfg.name, address=edge.source,
                )
            elif offset % ENTRY_SLOT_STRIDE:
                yield _finding(
                    "TL-ENTRY-002", Severity.ERROR,
                    f"{edge.kind.value} into {peer.name!r}'s entry vector "
                    f"at offset {offset:#x}, which is not an "
                    f"{ENTRY_SLOT_STRIDE}-byte slot boundary",
                    module=cfg.name, address=edge.source,
                )


@_rule(
    "TL-ENTRY-002", Severity.ERROR,
    "cross-compartment transfer misses the entry slot boundary",
)
def check_entry_alignment(ctx: AnalysisContext) -> Iterator[Finding]:
    # Findings are produced by check_entry_discipline (one walk over
    # the edges serves both ids); registered so the id is catalogued.
    return iter(())


@_rule(
    "TL-ENTRY-003", Severity.WARNING,
    "declared entry slot is not an unconditional jump",
)
def check_entry_slots_decode(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        cfg = ctx.cfgs[module.name]
        if module.entry_size > module.code_size:
            yield _finding(
                "TL-ENTRY-003", Severity.WARNING,
                f"declared entry vector ({module.entry_size} bytes) is "
                f"larger than the code region ({module.code_size} bytes)",
                module=module.name, address=module.code_base,
            )
            continue
        for offset in range(0, module.entry_size, ENTRY_SLOT_STRIDE):
            slot = module.code_base + offset
            line = cfg.line_at(slot)
            if line is None or line.instruction.op is not Op.JMP:
                got = "undecodable data" if line is None \
                    else f"'{line.instruction}'"
                yield _finding(
                    "TL-ENTRY-003", Severity.WARNING,
                    f"entry slot +{offset:#x} holds {got} instead of an "
                    "unconditional jump",
                    module=module.name, address=slot,
                )


# ---------------------------------------------------------------------
# Memory-policy rules.


@_rule(
    "TL-WX-001", Severity.ERROR,
    "a single policy rule grants both write and execute",
)
def check_wx_single_rule(ctx: AnalysisContext) -> Iterator[Finding]:
    for rule in ctx.policy.rules:
        if rule.perm & Perm.W and rule.perm & Perm.X:
            yield _finding(
                "TL-WX-001", Severity.ERROR,
                f"{rule.kind} rule [{rule.base:#010x},{rule.end:#010x}) "
                f"carries {rule.perm.letters()} — W^X violated",
                module=rule.module, address=rule.base,
            )


@_rule(
    "TL-WX-002", Severity.WARNING,
    "overlapping rules give one subject write and execute",
)
def check_wx_effective(ctx: AnalysisContext) -> Iterator[Finding]:
    rules = ctx.policy.rules
    seen: set[tuple[int, int]] = set()
    for i, writer in enumerate(rules):
        if not writer.perm & Perm.W:
            continue
        for j, executor in enumerate(rules):
            if i == j or not executor.perm & Perm.X:
                continue
            if not spans_overlap(
                writer.base, writer.end, executor.base, executor.end
            ):
                continue
            if writer.subjects is None and executor.subjects is None:
                culprit = "any subject"
            elif writer.subjects is None:
                culprit = ",".join(sorted(executor.subjects))
            elif executor.subjects is None:
                culprit = ",".join(sorted(writer.subjects))
            else:
                both = writer.subjects & executor.subjects
                if not both:
                    continue
                culprit = ",".join(sorted(both))
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            lo = max(writer.base, executor.base)
            hi = min(writer.end, executor.end)
            yield _finding(
                "TL-WX-002", Severity.WARNING,
                f"{culprit} can both write ({writer.kind} rule) and "
                f"execute ({executor.kind} rule) [{lo:#010x},{hi:#010x})",
                module=writer.module or executor.module, address=lo,
            )


# Rule kinds that stake out a module-private (or platform-private)
# address range; overlaps across owners are layout errors.
_PRIVATE_KINDS = frozenset(
    {"code", "data", "stack", "mmio", "table", "mpu"}
)


@_rule(
    "TL-OVL-001", Severity.ERROR,
    "regions of different owners overlap",
)
def check_region_overlap(ctx: AnalysisContext) -> Iterator[Finding]:
    rules = ctx.policy.rules
    for i, a in enumerate(rules):
        if a.kind not in _PRIVATE_KINDS:
            continue
        for b in rules[i + 1:]:
            if b.kind not in _PRIVATE_KINDS:
                continue
            if a.module == b.module and a.module is not None:
                continue
            if a.kind == "mmio" and b.kind == "mmio":
                continue  # TL-PERIPH-001's business
            if a.module is None and b.module is None:
                continue  # table/mpu windows are fixed by the platform
            if spans_overlap(a.base, a.end, b.base, b.end):
                yield _finding(
                    "TL-OVL-001", Severity.ERROR,
                    f"{a.kind} region of {a.module or 'platform'} "
                    f"[{a.base:#010x},{a.end:#010x}) overlaps "
                    f"{b.kind} region of {b.module or 'platform'} "
                    f"[{b.base:#010x},{b.end:#010x})",
                    module=a.module or b.module,
                    address=max(a.base, b.base),
                )


@_rule(
    "TL-PRIV-001", Severity.ERROR,
    "a foreign subject can write a trustlet's private data or stack",
)
def check_cross_trustlet_write(ctx: AnalysisContext) -> Iterator[Finding]:
    for span in ctx.policy.rules:
        if span.kind not in ("data", "stack"):
            continue
        owner = span.module
        for writer in ctx.policy.writers_of(span.base, span.end):
            if writer is span:
                continue
            if writer.subjects is None:
                foreign = "any subject"
            else:
                others = writer.subjects - {owner}
                if not others:
                    continue
                foreign = ",".join(sorted(others))
            yield _finding(
                "TL-PRIV-001", Severity.ERROR,
                f"{foreign} gains write access to {owner!r}'s "
                f"{span.kind} region [{span.base:#010x},{span.end:#010x}) "
                f"via a {writer.kind} rule",
                module=owner, address=span.base,
            )


@_rule(
    "TL-PRIV-002", Severity.ERROR,
    "the MPU window or Trustlet Table is writable after lockdown",
)
def check_lockdown(ctx: AnalysisContext) -> Iterator[Finding]:
    cfgspec = ctx.config
    protected = (
        ("Trustlet Table", cfgspec.table_base, cfgspec.table_end),
        ("MPU MMIO window", cfgspec.mpu_mmio_base, cfgspec.mpu_mmio_end),
    )
    for label, base, end in protected:
        for writer in ctx.policy.writers_of(base, end):
            who = "any subject" if writer.subjects is None \
                else ",".join(sorted(writer.subjects))
            yield _finding(
                "TL-PRIV-002", Severity.ERROR,
                f"{who} gains write access to the {label} via a "
                f"{writer.kind} rule [{writer.base:#010x},"
                f"{writer.end:#010x}) — lockdown broken",
                module=writer.module, address=max(writer.base, base),
            )


@_rule(
    "TL-PERIPH-001", Severity.WARNING,
    "a peripheral window is granted to more than one module",
)
def check_peripheral_exclusivity(ctx: AnalysisContext) -> Iterator[Finding]:
    grants = [r for r in ctx.policy.rules if r.kind == "mmio"]
    for i, a in enumerate(grants):
        for b in grants[i + 1:]:
            if a.module == b.module:
                continue
            if spans_overlap(a.base, a.end, b.base, b.end):
                yield _finding(
                    "TL-PERIPH-001", Severity.WARNING,
                    f"peripheral window [{max(a.base, b.base):#010x},"
                    f"{min(a.end, b.end):#010x}) is granted to both "
                    f"{a.module!r} and {b.module!r} — Sec. 3.3 expects "
                    "exclusive assignment",
                    module=a.module, address=max(a.base, b.base),
                )


@_rule(
    "TL-ACC-001", Severity.ERROR,
    "a statically-resolved access is not permitted by any rule",
)
def check_access_feasibility(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        cfg = ctx.cfgs[module.name]
        checked: set[int] = set()
        for access in cfg.accesses:
            checked.add(access.address)
            perm = Perm.W if access.is_store else Perm.R
            if ctx.policy.allows(
                module.name, access.target, access.size, perm
            ):
                continue
            verb = "store to" if access.is_store else "load from"
            yield _finding(
                "TL-ACC-001", Severity.ERROR,
                f"{verb} {access.target:#010x} ({access.size} byte(s)) "
                "is denied by every policy rule — the instruction can "
                "only ever fault",
                module=module.name, address=access.address,
            )
        # The dataflow pass proves more addresses than the block-local
        # propagation (loop-carried pointers, values flowing through
        # calls).  Only singleton target sets are must-facts; a larger
        # set means "one of these", which cannot prove the instruction
        # always faults.
        flow = ctx.dataflow.get(module.name)
        if flow is None or flow.incomplete:
            continue
        for fact in flow.mem_facts:
            target = fact.singleton_target
            if target is None or fact.address in checked:
                continue
            perm = Perm.W if fact.is_store else Perm.R
            if ctx.policy.allows(module.name, target, fact.size, perm):
                continue
            verb = "store to" if fact.is_store else "load from"
            yield _finding(
                "TL-ACC-001", Severity.ERROR,
                f"{verb} {target:#010x} ({fact.size} byte(s)) is denied "
                "by every policy rule — the instruction can only ever "
                "fault (resolved across joins by the dataflow pass)",
                module=module.name, address=fact.address,
            )


# ---------------------------------------------------------------------
# Dataflow-powered rules (taint, indirect jumps, stack bounds).


@_rule(
    "TL-CFG-002", Severity.WARNING,
    "execution can fall off the code region or into embedded data",
)
def check_fallthrough_containment(ctx: AnalysisContext) -> Iterator[Finding]:
    for cfg in ctx.cfgs.values():
        gaps = set(cfg.data_words)
        for edge in cfg.edges:
            if edge.kind is not EdgeKind.FALLTHROUGH:
                continue
            if edge.target is not None and edge.target >= cfg.end:
                yield _finding(
                    "TL-CFG-002", Severity.WARNING,
                    "execution falls through the end of the code region "
                    f"at {edge.target:#010x} — whatever is mapped next "
                    "executes with this module's permissions",
                    module=cfg.name, address=edge.source,
                )
            elif edge.target in gaps:
                yield _finding(
                    "TL-CFG-002", Severity.WARNING,
                    f"execution falls through into undecodable data at "
                    f"{edge.target:#010x}",
                    module=cfg.name, address=edge.source,
                )


def _cfg_resolved_computed(cfg: ModuleCfg) -> dict[int, int]:
    """Computed edges the block-local pass already resolved (those are
    TL-CFG-001/TL-ENTRY-001's business — don't report them twice)."""
    return {
        e.source: e.target
        for e in cfg.edges
        if e.kind is EdgeKind.COMPUTED and e.target is not None
    }


@_rule(
    "TL-IJMP-001", Severity.ERROR,
    "a resolved indirect transfer leaves every code region",
)
def check_indirect_wild(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        flow = ctx.dataflow.get(module.name)
        if flow is None:
            continue
        already = _cfg_resolved_computed(ctx.cfgs[module.name])
        for fact in flow.jump_facts:
            if fact.targets is None:
                continue
            for target in sorted(fact.targets):
                if target == already.get(fact.address):
                    continue
                if ctx.module_covering_code(target) is None:
                    yield _finding(
                        "TL-IJMP-001", Severity.ERROR,
                        f"{fact.op} target {target:#010x} (resolved by "
                        "the dataflow pass) lands in no module's code "
                        "region (wild indirect jump)",
                        module=module.name, address=fact.address,
                    )


@_rule(
    "TL-IJMP-002", Severity.ERROR,
    "a resolved indirect transfer bypasses a peer's entry vector",
)
def check_indirect_entry(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        flow = ctx.dataflow.get(module.name)
        if flow is None:
            continue
        cfg = ctx.cfgs[module.name]
        already = _cfg_resolved_computed(cfg)
        for fact in flow.jump_facts:
            if fact.targets is None:
                continue
            for target in sorted(fact.targets):
                if target == already.get(fact.address):
                    continue
                if cfg.contains(target):
                    continue  # intra-module: any target is legal
                peer = ctx.module_covering_code(target)
                if peer is None:
                    continue  # TL-IJMP-001's business
                offset = target - peer.code_base
                if offset >= peer.entry_size:
                    yield _finding(
                        "TL-IJMP-002", Severity.ERROR,
                        f"{fact.op} into the middle of {peer.name!r} "
                        f"(code offset {offset:#x}, entry vector ends "
                        f"at {peer.entry_size:#x}) — resolved by the "
                        "dataflow pass",
                        module=module.name, address=fact.address,
                    )
                elif offset % ENTRY_SLOT_STRIDE:
                    yield _finding(
                        "TL-IJMP-002", Severity.ERROR,
                        f"{fact.op} into {peer.name!r}'s entry vector at "
                        f"offset {offset:#x}, which is not an "
                        f"{ENTRY_SLOT_STRIDE}-byte slot boundary",
                        module=module.name, address=fact.address,
                    )


@_rule(
    "TL-TAINT-001", Severity.ERROR,
    "an untrusted value steers a computed control transfer",
)
def check_tainted_control(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        flow = ctx.dataflow.get(module.name)
        if flow is None:
            continue
        for hit in control_sinks(flow.jump_facts):
            labels = ",".join(sorted(hit.labels))
            yield _finding(
                "TL-TAINT-001", Severity.ERROR,
                f"{hit.sink} is influenced by untrusted input "
                f"({labels}) with no sanitizing compare on the path",
                module=module.name, address=hit.fact.address,
            )


@_rule(
    "TL-TAINT-002", Severity.ERROR,
    "an untrusted value reaches the MPU window or Trustlet Table",
)
def check_tainted_policy_store(ctx: AnalysisContext) -> Iterator[Finding]:
    cfgspec = ctx.config
    for module in ctx.modules:
        flow = ctx.dataflow.get(module.name)
        if flow is None:
            continue
        for hit in policy_sinks(
            flow.mem_facts,
            mpu_window=(cfgspec.mpu_mmio_base, cfgspec.mpu_mmio_end),
            table_window=(cfgspec.table_base, cfgspec.table_end),
        ):
            labels = ",".join(sorted(hit.labels))
            yield _finding(
                "TL-TAINT-002", Severity.ERROR,
                f"store into the {hit.sink} carries untrusted input "
                f"({labels}) — the isolation policy itself would be "
                "attacker-influenced",
                module=module.name, address=hit.fact.address,
            )


@_rule(
    "TL-TAINT-003", Severity.ERROR,
    "an untrusted value programs the crypto engine",
)
def check_tainted_crypto(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        flow = ctx.dataflow.get(module.name)
        if flow is None:
            continue
        for hit in crypto_sinks(flow.mem_facts):
            labels = ",".join(sorted(hit.labels))
            yield _finding(
                "TL-TAINT-003", Severity.ERROR,
                f"store into the {hit.sink} carries untrusted input "
                f"({labels}) — command stream and key material must "
                "stay trusted (DATA_IN is fine; hashing untrusted "
                "bytes is the engine's job)",
                module=module.name, address=hit.fact.address,
            )


@_rule(
    "TL-STACK-001", Severity.ERROR,
    "a proved stack depth exceeds the stack region",
)
def check_stack_overflow(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        flow = ctx.dataflow.get(module.name)
        if flow is None or flow.incomplete:
            continue
        for bound in flow.stack_bounds:
            if bound.max_depth is None:
                continue
            if bound.max_depth > module.stack_size:
                yield _finding(
                    "TL-STACK-001", Severity.ERROR,
                    f"entry root {bound.root} provably pushes "
                    f"{bound.max_depth} bytes but the stack region is "
                    f"only {module.stack_size} bytes — guaranteed "
                    "overflow into whatever is mapped below",
                    module=module.name, address=bound.address,
                )


@_rule(
    "TL-STACK-002", Severity.WARNING,
    "stack depth has no static bound from an entry root",
)
def check_stack_unbounded(ctx: AnalysisContext) -> Iterator[Finding]:
    for module in ctx.modules:
        flow = ctx.dataflow.get(module.name)
        if flow is None:
            continue
        for bound in flow.stack_bounds:
            if bound.unbounded:
                yield _finding(
                    "TL-STACK-002", Severity.WARNING,
                    f"entry root {bound.root} reaches a cycle that "
                    "pushes more than it pops — stack depth is not "
                    "statically bounded",
                    module=module.name, address=bound.address,
                )


@_rule(
    "TL-RES-001", Severity.ERROR,
    "the policy needs more MPU regions than the platform has",
)
def check_region_budget(ctx: AnalysisContext) -> Iterator[Finding]:
    needed = ctx.policy.regions_needed
    have = ctx.config.num_mpu_regions
    if needed > have:
        yield _finding(
            "TL-RES-001", Severity.ERROR,
            f"the Secure Loader would program {needed} regions but the "
            f"platform has only {have} region registers — boot raises "
            "RegionExhaustedError (paper Sec. 8)",
        )
