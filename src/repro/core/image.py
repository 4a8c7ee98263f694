"""Trustlet/OS binary format and the PROM image builder.

The paper's prototype uses trustlet meta-data in PROM, parsed by the
Secure Loader (Fig. 5 step 2a), and a GNU linker script that arranges
code and data regions so the loader can recognize and protect them
(Sec. 5.1).  This module plays both roles:

* :class:`SoftwareModule` describes one program (a trustlet or the OS):
  its assembly source, memory requirements, peripheral grants and
  shared-memory requests.
* :class:`ImageBuilder` lays out every module — code in PROM (executed
  in place), data and stacks in on-chip SRAM — assembles the sources
  against their final addresses, and serializes a PROM image whose
  per-module metadata records the Secure Loader needs.

Because module sources are assembled *after* layout, each source is a
callable receiving its :class:`ModuleLayout`; address constants (its
own data region, its saved-SP slot in the Trustlet Table, granted MMIO
windows) are baked in as assembler constants, exactly as a linker
script would resolve them.

PROM record format (little-endian words)::

    +0   magic "TLET"
    +4   name (8 bytes, NUL padded)
    +12  flags: bit0 OS module, bit1 measure at load, bit2 verify digest
    +16  code base (in PROM)      +20  code size
    +24  init ip (module "main")
    +28  data base (in SRAM)      +32  data size
    +36  stack base (in SRAM)     +40  stack size
    +44  expected digest (16 bytes; checked when flag bit2 set)
    +60  entry vector size (bytes)
    +64  MMIO grant count         +68  shared-region count
    +72  updater name tag (0 = code not field-updatable; Sec. 3.6)
    +76  grants…  (base, size, perm-word) each
         shared…  (tag, base, size, perm-word) each
         code blob (4-byte aligned)

The image directory at :data:`~repro.core.layout.PROM_DIRECTORY` is
``"TLIM"`` followed by the record count; records are packed back to
back, each 4-byte aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.asm import assemble, pass1
from repro.core import layout
from repro.core.trustlet_table import HEADER_SIZE, ROW_SIZE
from repro.errors import ImageError
from repro.machine import soc as socmap
from repro.mpu.regions import Perm

MAGIC_DIRECTORY = 0x4D494C54  # "TLIM"
MAGIC_RECORD = 0x54454C54     # "TLET"

FLAG_OS = 0x1
FLAG_MEASURE = 0x2
FLAG_VERIFY = 0x4
FLAG_CODE_READABLE = 0x8

_HEADER_FIXED = 76
_MMIO_GRANT_SIZE = 12
_SHARED_GRANT_SIZE = 16
DIGEST_SIZE = 16


@dataclass(frozen=True)
class MmioGrant:
    """Exclusive peripheral access for a module (Sec. 3.3)."""

    base: int
    size: int
    perm: Perm = Perm.RW


@dataclass(frozen=True)
class SharedRegionRequest:
    """A shared SRAM region identified by label across modules."""

    label: str
    size: int
    perm: Perm = Perm.RW


@dataclass(frozen=True)
class ModuleLayout:
    """Final addresses of one module, as resolved by the builder."""

    name: str
    index: int
    code_base: int
    code_end: int
    entry: int
    init_ip: int
    data_base: int
    data_end: int
    stack_base: int
    stack_end: int
    sp_slot: int
    shared: dict[str, tuple[int, int]] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    # Entry-vector addresses of every module in the image, keyed by
    # name — the "external symbols" a module may link against (a
    # sender needs its peer's call() entry, Sec. 4.2).
    peers: dict[str, int] = field(default_factory=dict)

    @property
    def stack_top(self) -> int:
        return self.stack_end

    def symbol(self, name: str) -> int:
        """Absolute address of a label in this module's program."""
        try:
            return self.symbols[name]
        except KeyError:
            raise ImageError(
                f"module {self.name!r} has no symbol {name!r}"
            ) from None

    def peer_entry(self, name: str) -> int:
        """Entry-vector base address of another module in this image."""
        try:
            return self.peers[name]
        except KeyError:
            raise ImageError(f"no module named {name!r} in image") from None


SourceFn = Callable[[ModuleLayout], str]


@dataclass
class SoftwareModule:
    """Description of one program to be packed into the PROM image."""

    name: str
    source: SourceFn
    data_size: int = 0x100
    stack_size: int = 0x100
    is_os: bool = False
    measure: bool = True
    code_readable: bool = True
    entry_size: int = layout.ENTRY_VECTOR_SIZE
    # Sec. 3.6 field updates: name of the module whose code may rewrite
    # this module's code region (requires a flash-backed PROM).
    code_writable_by: str | None = None
    expected_digest: bytes = b""
    mmio_grants: tuple[MmioGrant, ...] = ()
    shared: tuple[SharedRegionRequest, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or len(self.name.encode("ascii")) > 8:
            raise ImageError(f"module name must be 1..8 ASCII bytes: {self.name!r}")
        if self.data_size % 4 or self.stack_size % 4:
            raise ImageError(f"module {self.name}: sizes must be word multiples")
        if self.stack_size < 4 * layout.RESUME_FRAME_WORDS:
            raise ImageError(
                f"module {self.name}: stack must hold at least one resume "
                f"frame ({4 * layout.RESUME_FRAME_WORDS} bytes)"
            )
        if self.expected_digest and len(self.expected_digest) != DIGEST_SIZE:
            raise ImageError(f"module {self.name}: digest must be 16 bytes")
        if self.entry_size < layout.ENTRY_VECTOR_SIZE or self.entry_size % 4:
            raise ImageError(
                f"module {self.name}: entry vector must be a word multiple "
                f"of at least {layout.ENTRY_VECTOR_SIZE} bytes"
            )


@dataclass(frozen=True)
class BuiltImage:
    """Result of :meth:`ImageBuilder.build`."""

    prom: bytes
    layouts: dict[str, ModuleLayout]
    module_order: tuple[str, ...]

    def layout_of(self, name: str) -> ModuleLayout:
        try:
            return self.layouts[name]
        except KeyError:
            raise ImageError(f"no module named {name!r} in image") from None


def _tag(text: str) -> int:
    return int.from_bytes(text.encode("ascii")[:4].ljust(4, b"\x00"), "little")


def _header_size(module: SoftwareModule) -> int:
    size = (
        _HEADER_FIXED
        + len(module.mmio_grants) * _MMIO_GRANT_SIZE
        + len(module.shared) * _SHARED_GRANT_SIZE
    )
    return (size + 3) & ~3


class ImageBuilder:
    """Packs software modules into a bootable PROM image."""

    def __init__(
        self,
        *,
        prom_directory: int = layout.PROM_DIRECTORY,
        sram_alloc_base: int = layout.SRAM_ALLOC_BASE,
        table_base: int = layout.TRUSTLET_TABLE_BASE,
        prom_size: int = socmap.PROM_SIZE,
        sram_end: int = socmap.SRAM_BASE + socmap.SRAM_SIZE,
    ) -> None:
        self._modules: list[SoftwareModule] = []
        self._prom_directory = prom_directory
        self._sram_alloc_base = sram_alloc_base
        self._table_base = table_base
        self._prom_size = prom_size
        self._sram_end = sram_end

    def add_module(self, module: SoftwareModule) -> None:
        if any(m.name == module.name for m in self._modules):
            raise ImageError(f"duplicate module name {module.name!r}")
        if module.is_os and any(m.is_os for m in self._modules):
            raise ImageError("image may contain at most one OS module")
        self._modules.append(module)

    def _sp_slot(self, index: int) -> int:
        return self._table_base + HEADER_SIZE + index * ROW_SIZE + 20

    def build(self) -> BuiltImage:
        """Lay out, assemble and serialize all modules."""
        if not self._modules:
            raise ImageError("image contains no modules")

        # Size pass: run only the assembler's pass 1 on each source,
        # generated against a dummy layout.  Every SP32 mnemonic has one
        # encoded size, so a module's size does not depend on the
        # addresses the layout bakes in; operands are first encoded
        # (and checked) by the final pass below.
        dummy_shared = {
            req.label: (0, 0)
            for module in self._modules
            for req in module.shared
        }
        dummy_peers = {m.name: 0 for m in self._modules}
        code_sizes: list[int] = []
        for index, module in enumerate(self._modules):
            dummy = ModuleLayout(
                name=module.name, index=index, code_base=0, code_end=0,
                entry=0, init_ip=0, data_base=0, data_end=0, stack_base=0,
                stack_end=0, sp_slot=0, shared=dict(dummy_shared),
                peers=dict(dummy_peers),
            )
            size, symbols = pass1(module.source(dummy), base=0)
            if "main" not in symbols:
                raise ImageError(
                    f"module {module.name!r} must define a 'main' label"
                )
            code_sizes.append((size + 3) & ~3)

        # Layout pass: PROM records back to back, SRAM regions upward.
        prom_cursor = self._prom_directory + 8
        sram_cursor = self._sram_alloc_base
        shared_regions: dict[str, tuple[int, int]] = {}

        def alloc_sram(size: int) -> int:
            nonlocal sram_cursor
            base = sram_cursor
            if base + size > self._sram_end:
                raise ImageError("SRAM exhausted while laying out modules")
            sram_cursor += size
            return base

        layouts: list[ModuleLayout] = []
        record_offsets: list[int] = []
        for index, module in enumerate(self._modules):
            record_offsets.append(prom_cursor)
            code_base = prom_cursor + _header_size(module)
            code_end = code_base + code_sizes[index]
            if code_end > self._prom_size:
                raise ImageError("PROM exhausted while laying out modules")
            data_base = alloc_sram(module.data_size) if module.data_size else 0
            stack_base = alloc_sram(module.stack_size)
            shared_map: dict[str, tuple[int, int]] = {}
            for request in module.shared:
                if request.label not in shared_regions:
                    base = alloc_sram(request.size)
                    shared_regions[request.label] = (base, base + request.size)
                shared_map[request.label] = shared_regions[request.label]
            layouts.append(
                ModuleLayout(
                    name=module.name,
                    index=index,
                    code_base=code_base,
                    code_end=code_end,
                    entry=code_base,
                    init_ip=0,  # patched after final assembly
                    data_base=data_base,
                    data_end=data_base + module.data_size if data_base else 0,
                    stack_base=stack_base,
                    stack_end=stack_base + module.stack_size,
                    sp_slot=self._sp_slot(index),
                    shared=shared_map,
                )
            )
            prom_cursor = code_end

        # Final assembly against real addresses.
        peer_entries = {lay.name: lay.entry for lay in layouts}
        blob = bytearray(prom_cursor)
        final_layouts: dict[str, ModuleLayout] = {}
        for index, module in enumerate(self._modules):
            partial = replace(layouts[index], peers=dict(peer_entries))
            program = assemble(module.source(partial), base=partial.code_base)
            if program.size > code_sizes[index]:
                raise ImageError(
                    f"module {module.name!r} grew between passes "
                    f"({program.size} > {code_sizes[index]} bytes)"
                )
            final = ModuleLayout(
                name=partial.name, index=partial.index,
                code_base=partial.code_base, code_end=partial.code_end,
                entry=partial.entry, init_ip=program.symbol("main"),
                data_base=partial.data_base, data_end=partial.data_end,
                stack_base=partial.stack_base, stack_end=partial.stack_end,
                sp_slot=partial.sp_slot, shared=dict(partial.shared),
                symbols=dict(program.symbols), peers=dict(peer_entries),
            )
            final_layouts[module.name] = final
            self._serialize_record(
                blob, record_offsets[index], module, final, program.data
            )

        directory = self._prom_directory
        blob[directory:directory + 4] = MAGIC_DIRECTORY.to_bytes(4, "little")
        blob[directory + 4:directory + 8] = len(self._modules) \
            .to_bytes(4, "little")
        return BuiltImage(
            prom=bytes(blob),
            layouts=final_layouts,
            module_order=tuple(m.name for m in self._modules),
        )

    @staticmethod
    def _serialize_record(
        blob: bytearray,
        offset: int,
        module: SoftwareModule,
        lay: ModuleLayout,
        code: bytes,
    ) -> None:
        def put_word(at: int, value: int) -> None:
            blob[at:at + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")

        flags = 0
        flags |= FLAG_OS if module.is_os else 0
        flags |= FLAG_MEASURE if module.measure else 0
        flags |= FLAG_VERIFY if module.expected_digest else 0
        flags |= FLAG_CODE_READABLE if module.code_readable else 0
        put_word(offset + 0, MAGIC_RECORD)
        blob[offset + 4:offset + 12] = module.name.encode("ascii") \
            .ljust(8, b"\x00")
        put_word(offset + 12, flags)
        put_word(offset + 16, lay.code_base)
        put_word(offset + 20, lay.code_end - lay.code_base)
        put_word(offset + 24, lay.init_ip)
        put_word(offset + 28, lay.data_base)
        put_word(offset + 32, lay.data_end - lay.data_base)
        put_word(offset + 36, lay.stack_base)
        put_word(offset + 40, lay.stack_end - lay.stack_base)
        digest = module.expected_digest.ljust(DIGEST_SIZE, b"\x00")
        blob[offset + 44:offset + 60] = digest
        put_word(offset + 60, module.entry_size)
        put_word(offset + 64, len(module.mmio_grants))
        put_word(offset + 68, len(module.shared))
        updater = module.code_writable_by
        put_word(offset + 72, _tag(updater) if updater else 0)
        cursor = offset + _HEADER_FIXED
        for grant in module.mmio_grants:
            put_word(cursor + 0, grant.base)
            put_word(cursor + 4, grant.size)
            put_word(cursor + 8, int(grant.perm))
            cursor += _MMIO_GRANT_SIZE
        for request in module.shared:
            base, end = lay.shared[request.label]
            put_word(cursor + 0, _tag(request.label))
            put_word(cursor + 4, base)
            put_word(cursor + 8, end - base)
            put_word(cursor + 12, int(request.perm))
            cursor += _SHARED_GRANT_SIZE
        blob[lay.code_base:lay.code_base + len(code)] = code
