"""The Secure Loader (paper Sec. 3.5, Fig. 5).

The first code to run after platform reset.  It:

1. clears the MPU access-control registers,
2. detects and loads every trustlet found in PROM — parsing metadata,
   zero-initializing data and stack regions, building the initial
   resume frame, optionally measuring (and verifying) code, and
   populating the write-protected Trustlet Table,
3. programs the EA-MPU with the policy the modules requested and locks
   the MPU by simply granting nobody write access to its MMIO window,
4. loads & launches the OS (or the sole module on OS-less
   instantiations).

The loader is modelled as host-side firmware acting through the bus —
the same authority the paper gives it (it runs before any untrusted
code and protects itself via the MPU; here its PROM region simply has
no writable mapping at all).  Its *work* is what the evaluation cares
about, so every bus word written and every MPU register write is
counted; Sec. 5.3's "three writes per region" claim and the Fig. 5
boot-cost comparison against reset-wipe architectures read these
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import layout
from repro.core.image import (
    DIGEST_SIZE,
    FLAG_CODE_READABLE,
    FLAG_MEASURE,
    FLAG_OS,
    FLAG_VERIFY,
    MAGIC_DIRECTORY,
    MAGIC_RECORD,
    _HEADER_FIXED,
    _MMIO_GRANT_SIZE,
    _SHARED_GRANT_SIZE,
)
from repro.core.trustlet_table import TrustletTable
from repro.core.trustlet_table import name_tag as _module_tag
from repro.crypto import sponge_hash
from repro.errors import LoaderError
from repro.machine.bus import Bus
from repro.machine.cpu import Cpu, CpuFlags
from repro.mpu.ea_mpu import EaMpu
from repro.mpu.regions import ANY_SUBJECT, Perm


@dataclass(frozen=True)
class ParsedGrant:
    base: int
    size: int
    perm: Perm


@dataclass(frozen=True)
class ParsedShared:
    tag: int
    base: int
    size: int
    perm: Perm


@dataclass(frozen=True)
class ParsedModule:
    """One PROM metadata record, as the loader reads it off the bus."""

    name: str
    flags: int
    code_base: int
    code_size: int
    init_ip: int
    data_base: int
    data_size: int
    stack_base: int
    stack_size: int
    expected_digest: bytes
    entry_size: int
    updater_tag: int
    mmio_grants: tuple[ParsedGrant, ...]
    shared: tuple[ParsedShared, ...]

    @property
    def is_os(self) -> bool:
        return bool(self.flags & FLAG_OS)

    @property
    def code_end(self) -> int:
        return self.code_base + self.code_size


@dataclass(frozen=True)
class PolicyRule:
    """One EA-MPU rule the Secure Loader intends to program.

    This is the *declarative* form of the Fig. 3 policy: subjects are
    module names (``None`` meaning any subject) rather than region-index
    masks, so it can be computed — and audited by
    :mod:`repro.analysis` — without a live MPU.  ``kind`` records which
    Fig. 5 programming step produced the rule:

    ==========  =====================================================
    kind        meaning
    ==========  =====================================================
    table       the world-readable Trustlet Table
    mpu         the MPU's own MMIO window (read-only => locked)
    code        a module's private RX code region
    entry       a module's ANY-subject executable entry vector
    code-read   world-readable code (FLAG_CODE_READABLE)
    data        a module's private RW data region
    stack       a module's private RW stack region
    mmio        an exclusive peripheral grant (Sec. 3.3)
    updater     write access to flash code for a field updater (3.6)
    os-extra    extra OS regions requested at platform construction
    shared      an inter-trustlet shared region (Sec. 4.2.1)
    ==========  =====================================================
    """

    base: int
    end: int
    perm: Perm
    subjects: frozenset[str] | None  # None = ANY subject
    kind: str
    module: str | None = None

    def overlaps(self, base: int, end: int) -> bool:
        return self.base < end and base < self.end and self.end > self.base

    def describe(self) -> str:
        who = "any" if self.subjects is None \
            else ",".join(sorted(self.subjects))
        return (
            f"[{self.base:#010x},{self.end:#010x}) "
            f"{self.perm.letters()} {self.kind} subjects={who}"
        )


def compute_policy(
    modules: list[ParsedModule],
    *,
    table_base: int,
    table_end: int,
    mpu_mmio_base: int,
    mpu_mmio_end: int,
    os_extra_regions: tuple[tuple[int, int, Perm], ...] = (),
) -> tuple[PolicyRule, ...]:
    """Derive the EA-MPU policy the Secure Loader programs at boot.

    Rules are emitted in exactly the order :class:`SecureLoader`
    programs them (module code regions first, so subject masks can be
    resolved incrementally); the static verifier replays the same list
    against the platform's region budget.
    """
    rules: list[PolicyRule] = [
        # The Trustlet Table: world-readable, written by nobody.
        PolicyRule(table_base, table_end, Perm.R, None, "table"),
        # The MPU's own registers: world-readable (verifyMPU), locked
        # against writes simply by the absence of any W rule.
        PolicyRule(mpu_mmio_base, mpu_mmio_end, Perm.R, None, "mpu"),
    ]
    # First pass: every module's code region, so the self-subject masks
    # exist before data rules reference them.
    for module in modules:
        rules.append(
            PolicyRule(
                module.code_base, module.code_end, Perm.RX,
                frozenset((module.name,)), "code", module.name,
            )
        )
    # Second pass: entries, readability, data, stacks, grants.
    shared_subjects: dict[int, frozenset[str]] = {}
    shared_window: dict[int, tuple[int, int, Perm]] = {}
    for module in modules:
        self_subject = frozenset((module.name,))
        rules.append(
            PolicyRule(
                module.code_base,
                module.code_base + module.entry_size,
                Perm.X, None, "entry", module.name,
            )
        )
        if module.flags & FLAG_CODE_READABLE:
            rules.append(
                PolicyRule(
                    module.code_base, module.code_end, Perm.R, None,
                    "code-read", module.name,
                )
            )
        if module.data_size:
            rules.append(
                PolicyRule(
                    module.data_base,
                    module.data_base + module.data_size,
                    Perm.RW, self_subject, "data", module.name,
                )
            )
        rules.append(
            PolicyRule(
                module.stack_base,
                module.stack_base + module.stack_size,
                Perm.RW, self_subject, "stack", module.name,
            )
        )
        for grant in module.mmio_grants:
            rules.append(
                PolicyRule(
                    grant.base, grant.base + grant.size, grant.perm,
                    self_subject, "mmio", module.name,
                )
            )
        for request in module.shared:
            shared_subjects[request.tag] = (
                shared_subjects.get(request.tag, frozenset()) | self_subject
            )
            shared_window[request.tag] = (
                request.base, request.base + request.size, request.perm
            )
        if module.updater_tag:
            updater = next(
                (m for m in modules
                 if _module_tag(m.name) == module.updater_tag),
                None,
            )
            if updater is None:
                raise LoaderError(
                    f"module {module.name!r} names an unknown update "
                    "service in its metadata"
                )
            # Sec. 3.6: the code region is declared writable to the
            # designated software-update service (flash required).
            rules.append(
                PolicyRule(
                    module.code_base, module.code_end, Perm.W,
                    frozenset((updater.name,)), "updater", module.name,
                )
            )
        if module.is_os:
            for base, end, perm in os_extra_regions:
                rules.append(
                    PolicyRule(
                        base, end, perm, self_subject, "os-extra",
                        module.name,
                    )
                )
    # Shared regions: one rule naming all participants (Sec. 4.2.1).
    for tag, (base, end, perm) in shared_window.items():
        rules.append(
            PolicyRule(base, end, perm, shared_subjects[tag], "shared")
        )
    return tuple(rules)


@dataclass
class BootReport:
    """What one Secure Loader run did (evaluation counters)."""

    modules: list[str] = field(default_factory=list)
    measurements: dict[str, bytes] = field(default_factory=dict)
    mpu_regions_programmed: int = 0
    mpu_register_writes: int = 0
    memory_words_written: int = 0
    launched: str | None = None
    code_region_index: dict[str, int] = field(default_factory=dict)


def parse_directory(bus: Bus, directory: int = layout.PROM_DIRECTORY) \
        -> list[ParsedModule]:
    """Read every module record from the PROM image on the bus."""
    if bus.read_word(directory) != MAGIC_DIRECTORY:
        raise LoaderError(
            f"no image directory at {directory:#x} (bad magic)"
        )
    count = bus.read_word(directory + 4)
    modules: list[ParsedModule] = []
    cursor = directory + 8
    for _ in range(count):
        modules.append(_parse_record(bus, cursor))
        record = modules[-1]
        header = _HEADER_FIXED \
            + len(record.mmio_grants) * _MMIO_GRANT_SIZE \
            + len(record.shared) * _SHARED_GRANT_SIZE
        header = (header + 3) & ~3
        cursor = (cursor + header + record.code_size + 3) & ~3
    return modules


def _parse_record(bus: Bus, offset: int) -> ParsedModule:
    if bus.read_word(offset) != MAGIC_RECORD:
        raise LoaderError(f"bad module record magic at {offset:#x}")
    name = bus.read_bytes(offset + 4, 8).rstrip(b"\x00").decode("ascii")
    flags = bus.read_word(offset + 12)
    code_base = bus.read_word(offset + 16)
    code_size = bus.read_word(offset + 20)
    init_ip = bus.read_word(offset + 24)
    data_base = bus.read_word(offset + 28)
    data_size = bus.read_word(offset + 32)
    stack_base = bus.read_word(offset + 36)
    stack_size = bus.read_word(offset + 40)
    digest = bus.read_bytes(offset + 44, DIGEST_SIZE)
    entry_size = bus.read_word(offset + 60)
    num_mmio = bus.read_word(offset + 64)
    num_shared = bus.read_word(offset + 68)
    updater_tag = bus.read_word(offset + 72)
    cursor = offset + _HEADER_FIXED
    grants = []
    for _ in range(num_mmio):
        grants.append(
            ParsedGrant(
                base=bus.read_word(cursor),
                size=bus.read_word(cursor + 4),
                perm=Perm(bus.read_word(cursor + 8) & 0x7),
            )
        )
        cursor += _MMIO_GRANT_SIZE
    shared = []
    for _ in range(num_shared):
        shared.append(
            ParsedShared(
                tag=bus.read_word(cursor),
                base=bus.read_word(cursor + 4),
                size=bus.read_word(cursor + 8),
                perm=Perm(bus.read_word(cursor + 12) & 0x7),
            )
        )
        cursor += _SHARED_GRANT_SIZE
    return ParsedModule(
        name=name, flags=flags, code_base=code_base, code_size=code_size,
        init_ip=init_ip, data_base=data_base, data_size=data_size,
        stack_base=stack_base, stack_size=stack_size,
        expected_digest=digest, entry_size=entry_size,
        updater_tag=updater_tag,
        mmio_grants=tuple(grants), shared=tuple(shared),
    )


class SecureLoader:
    """Executes the Fig. 5 boot sequence against a platform."""

    def __init__(
        self,
        bus: Bus,
        cpu: Cpu,
        mpu: EaMpu,
        table: TrustletTable,
        *,
        mpu_mmio_base: int,
        mpu_mmio_size: int,
        os_extra_regions: tuple[tuple[int, int, Perm], ...] = (),
    ) -> None:
        self.bus = bus
        self.cpu = cpu
        self.mpu = mpu
        self.table = table
        self._mpu_mmio = (mpu_mmio_base, mpu_mmio_base + mpu_mmio_size)
        self._os_extra_regions = os_extra_regions

    # ------------------------------------------------------------------

    def boot(self, *, wipe_data: bool = True) -> BootReport:
        """Run the full boot sequence; returns the work report.

        ``wipe_data=False`` models the fast warm reset of Sec. 6 "Fast
        Startup": the protection rules are re-established but data
        regions that are being re-assigned to the same trustlets are
        not cleared.
        """
        report = BootReport()
        writes_at_start = self.mpu.stats.register_writes

        # Step 1: platform init — clear the MPU rule set.
        self.mpu.set_enabled(False)
        self.mpu.clear_all()
        self.table.clear()

        # Step 2: detect and load trustlets.
        modules = parse_directory(self.bus)
        if not modules:
            raise LoaderError("PROM image contains no modules")
        for module in modules:
            self._load_module(module, report, wipe_data=wipe_data)

        # Step 3: program and lock the MPU.
        self._program_policy(modules, report)

        # Step 4: load & launch the OS (or the sole module).
        launch = next((m for m in modules if m.is_os), modules[0])
        self.cpu.sp = launch.stack_base + launch.stack_size
        self.cpu.ip = launch.init_ip
        self.cpu.curr_ip = launch.init_ip
        self.mpu.set_enabled(True)
        report.launched = launch.name
        report.mpu_register_writes = (
            self.mpu.stats.register_writes - writes_at_start
        )
        return report

    # ------------------------------------------------------------------

    def _load_module(
        self, module: ParsedModule, report: BootReport, *, wipe_data: bool
    ) -> None:
        if module.stack_size < 4 * layout.RESUME_FRAME_WORDS:
            raise LoaderError(
                f"module {module.name!r}: stack too small for a resume frame"
            )
        # Zero-initialize volatile regions (step 2b).
        if wipe_data:
            for base, size in (
                (module.data_base, module.data_size),
                (module.stack_base, module.stack_size),
            ):
                words = (size + 3) // 4
                if words:
                    layout.write_words(self.bus, base, [0] * words)
                    report.memory_words_written += words

        # Measure / verify the code region.
        measurement = b""
        if module.flags & (FLAG_MEASURE | FLAG_VERIFY):
            code = self.bus.read_bytes(module.code_base, module.code_size)
            measurement = sponge_hash(code)
            report.measurements[module.name] = measurement
        if module.flags & FLAG_VERIFY:
            if measurement != module.expected_digest:
                raise LoaderError(
                    f"secure boot: module {module.name!r} measurement "
                    f"mismatch (got {measurement.hex()}, expected "
                    f"{module.expected_digest.hex()})"
                )

        # Static initialization: synthesize the first resume frame so
        # that the very first continue() lands in the module's main.
        stack_top = module.stack_base + module.stack_size
        if module.is_os:
            saved_sp = stack_top  # the OS kernel entry stack (cf. TSS)
        else:
            saved_sp = self._build_initial_frame(module, stack_top, report)

        self.table.add_row(
            module.name,
            code_base=module.code_base,
            code_end=module.code_end,
            entry=module.code_base,
            saved_sp=saved_sp,
            data_base=module.data_base,
            data_end=module.data_base + module.data_size,
            stack_base=module.stack_base,
            stack_end=stack_top,
            measurement=measurement,
            is_os=module.is_os,
        )
        report.modules.append(module.name)

    def _build_initial_frame(
        self, module: ParsedModule, stack_top: int, report: BootReport
    ) -> int:
        """Fake an interrupted-at-main frame: zeroed GPRs, interrupts on."""
        frame = layout.resume_frame(
            (0,) * 15, CpuFlags(ie=True).to_word(), module.init_ip
        )
        saved_sp = stack_top - layout.WORD * len(frame)
        layout.write_words(self.bus, saved_sp, frame)
        report.memory_words_written += len(frame)
        return saved_sp

    # ------------------------------------------------------------------

    def _program_policy(
        self, modules: list[ParsedModule], report: BootReport
    ) -> None:
        rules = compute_policy(
            modules,
            table_base=self.table.base,
            table_end=self.table.end,
            mpu_mmio_base=self._mpu_mmio[0],
            mpu_mmio_end=self._mpu_mmio[1],
            os_extra_regions=self._os_extra_regions,
        )
        # Subjects are module names in the declarative policy; hardware
        # masks name the subject's *code region* register.  Code rules
        # are emitted first (and self-referencing), so the name->index
        # map fills in before any rule needs to look a subject up.
        for rule in rules:
            index = self.mpu.free_region_index()
            if rule.kind == "code":
                report.code_region_index[rule.module] = index
            if rule.subjects is None:
                mask = ANY_SUBJECT
            else:
                mask = 0
                for name in rule.subjects:
                    mask |= 1 << report.code_region_index[name]
            self.mpu.program_region(
                index, rule.base, rule.end, rule.perm, subjects=mask
            )
            report.mpu_regions_programmed += 1
