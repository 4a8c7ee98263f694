"""Whole-platform snapshot, restore and clone.

A booted TrustLite platform is expensive to create: the Secure Loader
wipes data regions word by word and measures every module's code with
the (deliberately slow, software-modelled) sponge hash.  A *snapshot*
captures the complete architectural state of a platform after boot —
CPU register file, every memory, the EA-MPU region file, pending
interrupt lines, device-internal state, and the exception engine's
vector tables — so that a fleet of N identical devices can be stamped
out without N full boots.  A clone copies no memory: its memories
adopt the snapshot's immutable ``bytes`` (and the shared zero image for
all-zero ones) and take a private copy only when first changed (see
:mod:`repro.machine.memories`).

This is a hardware-level path, the simulation analogue of cloning a VM
image: state is read out and written back directly (scan-chain style),
never through the bus or the MPU, and no simulated time passes.  The
Trustlet Table needs no special handling — it lives in on-chip SRAM
and rides along with the memory image.

The module deliberately knows nothing about :mod:`repro.core`: the
platform object is duck-typed (``.soc``, ``.mpu``, ``.engine``,
``.table``, ``.image``), and :meth:`Snapshot.clone` imports the
platform class lazily.  That keeps the dependency direction
machine ← core intact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import MachineError
from repro.machine.cpu import Cpu, CpuFlags
from repro.machine.irq import Interrupt
from repro.machine.memories import zero_bytes


class ZeroBytes:
    """A lazily-materialized all-zero byte image.

    A captured platform's dominant state is untouched memory — the
    1 MiB external DRAM of a freshly booted device is a megabyte of
    zeros.  Holding (and pickling, and hashing) those zeros literally
    caps how many golden snapshots fit in RAM, so :meth:`Snapshot.save`
    and the TLSC decoder store this placeholder instead: it knows its
    length, compares equal to the zeros it stands for, and
    :func:`bytes` returns the process-wide zero image of that size
    (:func:`~repro.machine.memories.zero_bytes`), so restoring one is a
    rebind, not an allocation.
    """

    __slots__ = ("_size",)

    def __init__(self, size: int) -> None:
        if size < 0:
            raise MachineError(f"ZeroBytes size must be >= 0: {size}")
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __bytes__(self) -> bytes:
        return zero_bytes(self._size)

    def __eq__(self, other) -> bool:
        if isinstance(other, ZeroBytes):
            return self._size == other._size
        if isinstance(other, (bytes, bytearray)):
            return (
                len(other) == self._size
                and other.count(0) == self._size
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(bytes(self))

    def __repr__(self) -> str:
        return f"ZeroBytes({self._size})"

    def count(self, value) -> int:
        if value in (0, b"\x00"):
            return self._size
        return 0


def materialize_state(state):
    """Real bytes for a device state (expands :class:`ZeroBytes`)."""
    return bytes(state) if isinstance(state, ZeroBytes) else state


@dataclass(frozen=True)
class CpuState:
    """The SP32 architectural register file plus retire counters."""

    regs: tuple[int, ...]
    ip: int
    curr_ip: int
    flags_word: int
    halted: bool
    cycles: int
    instructions_retired: int

    @classmethod
    def capture(cls, cpu: Cpu) -> "CpuState":
        return cls(
            regs=tuple(cpu.regs),
            ip=cpu.ip,
            curr_ip=cpu.curr_ip,
            flags_word=cpu.flags.to_word(),
            halted=cpu.halted,
            cycles=cpu.cycles,
            instructions_retired=cpu.instructions_retired,
        )

    def apply(self, cpu: Cpu) -> None:
        cpu.regs[:] = self.regs
        cpu.ip = self.ip
        cpu.curr_ip = self.curr_ip
        cpu.flags = CpuFlags.from_word(self.flags_word)
        cpu.halted = self.halted
        cpu.cycles = self.cycles
        cpu.instructions_retired = self.instructions_retired


@dataclass(frozen=True)
class MpuState:
    """The EA-MPU region file: (base, end, attr) per register."""

    regions: tuple[tuple[int, int, int], ...]
    enabled: bool
    hardwired: tuple[int, ...]
    fault_address: int
    fault_ip: int

    @classmethod
    def capture(cls, mpu) -> "MpuState":
        return cls(
            regions=tuple(
                (r.base, r.end, r.attr) for r in mpu.regions
            ),
            enabled=mpu.enabled,
            hardwired=tuple(sorted(mpu._hardwired)),
            fault_address=mpu.fault_address,
            fault_ip=mpu.fault_ip,
        )

    def apply(self, mpu) -> None:
        if len(self.regions) != len(mpu.regions):
            raise MachineError(
                f"snapshot has {len(self.regions)} MPU regions, "
                f"platform has {len(mpu.regions)}"
            )
        # Direct register-file restore: not a software write, so it
        # bypasses hardwiring checks and does not count in mpu.stats.
        for register, (base, end, attr) in zip(mpu.regions, self.regions):
            register.base = base
            register.end = end
            register.attr = attr
        mpu._hardwired = set(self.hardwired)
        mpu.enabled = self.enabled
        mpu.fault_address = self.fault_address
        mpu.fault_ip = self.fault_ip
        # The region file changed behind the programming interface:
        # any permission lookaside must flush before the next check.
        mpu.notify_modified()


@dataclass(frozen=True)
class PlatformConfig:
    """Construction parameters needed to stamp out an identical twin."""

    num_mpu_regions: int
    secure_exceptions: bool
    table_capacity: int
    os_extra_regions: tuple
    flash_prom: bool
    with_dma: bool

    @classmethod
    def capture(cls, platform) -> "PlatformConfig":
        from repro.machine.memories import Flash

        return cls(
            num_mpu_regions=platform.mpu.num_regions,
            secure_exceptions=platform.secure_exceptions,
            table_capacity=platform.table.capacity,
            os_extra_regions=tuple(platform._os_extra_regions),
            flash_prom=isinstance(platform.soc.prom, Flash),
            with_dma=platform.soc.dma is not None,
        )


@dataclass(frozen=True)
class Snapshot:
    """Complete machine state of one TrustLite platform.

    ``save()`` captures a platform, ``restore()`` writes the state back
    into a compatible platform, and ``clone()`` manufactures a brand-new
    platform carrying this exact state — the golden-image workflow the
    fleet subsystem builds on.
    """

    config: PlatformConfig
    cpu: CpuState
    mpu: MpuState
    devices: tuple[tuple[str, object], ...]
    irq_pending: tuple[Interrupt, ...]
    irq_vectors: tuple[tuple[int, int], ...]
    exception_vectors: tuple[tuple[int, int], ...]
    image: object = None
    boot_report: object = None
    # Devices whose byte-image is entirely zero (typically the big
    # external DRAM).  Part of the versioned TLSC format; restoring
    # their ZeroBytes state costs nothing, so no restore path reads it.
    zero_devices: tuple[str, ...] = ()

    # ------------------------------------------------------------------

    @classmethod
    def save(cls, platform) -> "Snapshot":
        """Capture ``platform`` (a :class:`TrustLitePlatform`)."""
        soc = platform.soc
        devices = []
        zero_devices = []
        for mapping in soc.bus.mappings:
            state = mapping.device.snapshot_state()
            if state is not None:
                if isinstance(state, (bytes, bytearray)) \
                        and state.count(0) == len(state):
                    # Store the placeholder, not the megabyte of
                    # zeros: golden snapshots stay small and clones
                    # share one zero image.
                    state = ZeroBytes(len(state))
                    zero_devices.append(mapping.device.name)
                devices.append((mapping.device.name, state))
        engine = platform.engine
        return cls(
            config=PlatformConfig.capture(platform),
            cpu=CpuState.capture(soc.cpu),
            mpu=MpuState.capture(platform.mpu),
            devices=tuple(devices),
            irq_pending=tuple(
                soc.irq._pending[line]
                for line in sorted(soc.irq._pending)
            ),
            irq_vectors=tuple(sorted(engine.irq_vectors.items())),
            exception_vectors=tuple(
                sorted(engine.exception_vectors.items())
            ),
            image=platform.image,
            boot_report=platform.boot_report,
            zero_devices=tuple(zero_devices),
        )

    def restore(self, platform) -> None:
        """Write this state into ``platform`` (must match ``config``)."""
        if PlatformConfig.capture(platform) != self.config:
            raise MachineError(
                "snapshot restore into an incompatible platform "
                f"(snapshot {self.config}, "
                f"platform {PlatformConfig.capture(platform)})"
            )
        soc = platform.soc
        for name, state in self.devices:
            try:
                soc.bus.device_named(name).restore_state(
                    materialize_state(state)
                )
            except (TypeError, ValueError) as exc:
                # A decoded blob can carry a state of the wrong shape;
                # that is a bad snapshot, not a simulator crash.
                raise MachineError(
                    f"bad snapshot state for device {name!r}: {exc}"
                ) from exc
        self.cpu.apply(soc.cpu)
        self.mpu.apply(platform.mpu)
        soc.irq.clear_all()
        for interrupt in self.irq_pending:
            soc.irq.raise_line(interrupt)
        platform.engine.irq_vectors = dict(self.irq_vectors)
        platform.engine.exception_vectors = dict(self.exception_vectors)
        platform.image = self.image
        platform.boot_report = self.boot_report

    def clone(self, *, fastpath: bool = True, trace: bool = False):
        """A brand-new platform carrying this state (no memory copy).

        ``fastpath``/``trace`` select the execution engine of the clone
        (the uncached reference, the cached fast path, or the recording
        trace tier); neither is part of the snapshot because the
        engines are architecturally identical.
        """
        from repro.core.platform import TrustLitePlatform

        platform = TrustLitePlatform(
            num_mpu_regions=self.config.num_mpu_regions,
            secure_exceptions=self.config.secure_exceptions,
            table_capacity=self.config.table_capacity,
            os_extra_regions=self.config.os_extra_regions,
            flash_prom=self.config.flash_prom,
            with_dma=self.config.with_dma,
            fastpath=fastpath,
            trace=trace,
        )
        self.restore(platform)
        return platform

    # ------------------------------------------------------------------

    def with_cpu(self, **fields) -> "Snapshot":
        """A derived snapshot with selected CPU fields replaced."""
        return replace(self, cpu=replace(self.cpu, **fields))

    @property
    def memory_bytes(self) -> int:
        """Total captured memory payload (clone-cost estimator)."""
        return sum(
            len(state) for _name, state in self.devices
            if isinstance(state, (bytes, bytearray, ZeroBytes))
        )
