"""One-call assembly of a TrustLite platform (paper Fig. 1).

``TrustLitePlatform`` wires the SoC substrate to the TrustLite hardware
blocks — EA-MPU (with its MMIO frontend), Trustlet Table, and a secure
or regular exception engine — and owns the Secure Loader.  ``boot()``
takes a built PROM image, programs the PROM, wires interrupt vectors
from the OS module's well-known symbols, and runs the loader.

ISR symbol convention (resolved from the launched module's symbol
table, playing the role of the IDT the OS would otherwise program)::

    isr_timer    IRQ line 0 (the alarm timer)
    isr_fault    memory protection faults
    isr_invalid  invalid instructions
    isr_swi      software interrupts
"""

from __future__ import annotations

from repro.core.exception_engine import (
    RegularExceptionEngine,
    SecureExceptionEngine,
    VEC_FAULT,
    VEC_INVALID,
    VEC_SOFTWARE,
)
from repro.core import layout
from repro.core.image import BuiltImage
from repro.core.loader import BootReport, SecureLoader
from repro.core.trustlet_table import TrustletTable
from repro.errors import PlatformError
from repro.machine.soc import (
    MPU_MMIO_BASE,
    SoC,
    TIMER_IRQ_LINE,
    WATCHDOG_IRQ_LINE,
)
from repro.mpu.ea_mpu import EaMpu
from repro.mpu.mmio import MpuMmioFrontend
from repro.mpu.regions import Perm

DEFAULT_MPU_REGIONS = 24

_ISR_SYMBOLS = {
    "isr_fault": ("exception", VEC_FAULT),
    "isr_invalid": ("exception", VEC_INVALID),
    "isr_swi": ("exception", VEC_SOFTWARE),
    "isr_timer": ("irq", TIMER_IRQ_LINE),
    "isr_watchdog": ("irq", WATCHDOG_IRQ_LINE),
}


class TrustLitePlatform:
    """A TrustLite SoC: substrate + EA-MPU + secure exceptions + loader."""

    def __init__(
        self,
        *,
        num_mpu_regions: int = DEFAULT_MPU_REGIONS,
        secure_exceptions: bool = True,
        table_capacity: int = layout.TRUSTLET_TABLE_CAPACITY,
        os_extra_regions: tuple[tuple[int, int, Perm], ...] = (),
        flash_prom: bool = False,
        with_dma: bool = False,
        checked_dma: bool = True,
        fastpath: bool = True,
    ) -> None:
        # ``fastpath=False`` selects the uncached reference engine; it
        # is not part of the snapshot-compatibility config — both
        # engines are architecturally identical.
        self.soc = SoC(
            flash_prom=flash_prom,
            with_dma=with_dma,
            fastpath=fastpath,
        )
        self.mpu = EaMpu(num_regions=num_mpu_regions)
        self.mpu_frontend = MpuMmioFrontend(self.mpu)
        self.soc.bus.attach(MPU_MMIO_BASE, self.mpu_frontend)
        self.table = TrustletTable(
            self.soc.bus, layout.TRUSTLET_TABLE_BASE, table_capacity
        )
        if secure_exceptions:
            self.engine: RegularExceptionEngine = SecureExceptionEngine(
                self.table
            )
        else:
            self.engine = RegularExceptionEngine()
        self.secure_exceptions = secure_exceptions
        self.cpu.mpu = self.mpu
        self.cpu.exception_engine = self.engine
        if self.soc.dma is not None and checked_dma:
            # The future-work extension (Sec. 6): DMA transfers are
            # validated by the EA-MPU under the owner's identity.
            self.soc.dma.mpu = self.mpu
        self.loader = SecureLoader(
            self.soc.bus,
            self.cpu,
            self.mpu,
            self.table,
            mpu_mmio_base=MPU_MMIO_BASE,
            mpu_mmio_size=self.mpu_frontend.size,
            os_extra_regions=os_extra_regions,
        )
        self._os_extra_regions = os_extra_regions
        self.image: BuiltImage | None = None
        self.boot_report: BootReport | None = None
        #: Last static-verification report (``verify_image`` /
        #: ``boot(verify=True)``); None until a verification ran.
        self.lint_report = None
        #: Firmware version currently running (0 = booted raw image or
        #: never booted) and the monotonic rollback floor.  The floor
        #: only advances on :meth:`commit_firmware`, so an OTA campaign
        #: can still roll back an uncommitted update while a replayed
        #: old-but-signed container is refused after commit.
        self.fw_version = 0
        self.fw_floor = 0
        #: The verified container last booted via :meth:`boot_signed`.
        self.container = None

    # Convenience pass-throughs to the substrate.
    @property
    def cpu(self):
        return self.soc.cpu

    @property
    def bus(self):
        return self.soc.bus

    @property
    def uart(self):
        return self.soc.uart

    @property
    def timer(self):
        return self.soc.timer

    @property
    def crypto(self):
        return self.soc.crypto

    # ------------------------------------------------------------------

    def boot(
        self,
        image: BuiltImage,
        *,
        wipe_data: bool = True,
        verify: bool = False,
    ) -> BootReport:
        """Program the PROM with ``image`` and run the Secure Loader.

        ``verify=True`` runs the :mod:`repro.analysis` static verifier
        against this platform's exact configuration first and raises
        :class:`~repro.errors.AnalysisError` if any error-severity
        finding comes back — the image never touches the PROM.
        """
        if verify:
            self.verify_image(image)
        if len(image.prom) > self.soc.prom.size:
            raise PlatformError(
                f"image ({len(image.prom)} bytes) exceeds PROM "
                f"({self.soc.prom.size} bytes)"
            )
        self.soc.prom.load(0, image.prom)
        self.image = image
        report = self.loader.boot(wipe_data=wipe_data)
        self._wire_vectors(image, report)
        self.boot_report = report
        return report

    def verify_image(self, image: BuiltImage):
        """Run the static verifier with this platform's configuration.

        Returns the :class:`~repro.analysis.report.AnalysisReport` on
        success; raises :class:`~repro.errors.AnalysisError` carrying
        the findings when any error-severity finding exists.
        """
        # Imported lazily: analysis depends on core, not vice versa.
        from repro.analysis import AnalysisConfig, lint_image_cached
        from repro.errors import AnalysisError

        config = AnalysisConfig(
            table_base=self.table.base,
            table_capacity=self.table.capacity,
            mpu_mmio_base=MPU_MMIO_BASE,
            num_mpu_regions=self.mpu.num_regions,
            os_extra_regions=self._os_extra_regions,
        )
        # Memoized by image measurement: a fleet booting the same
        # golden image pays for static analysis exactly once.
        report = lint_image_cached(image, config=config)
        self.lint_report = report
        if report.errors:
            raise AnalysisError(
                f"static verification found {len(report.errors)} "
                f"error(s); rules violated: "
                f"{', '.join(report.violated_rules)}",
                findings=report.findings,
            )
        return report

    def boot_signed(
        self,
        container,
        *,
        trust_root: bytes,
        wipe_data: bool = True,
    ) -> BootReport:
        """Verify a signed firmware container and boot it.

        ``container`` is a :class:`~repro.ota.container.FirmwareContainer`
        or its encoded byte stream.  The full chain runs before one
        byte reaches the PROM: decode (typed
        :class:`~repro.errors.ContainerError` on damage), signature
        check under ``trust_root`` (:class:`~repro.errors.SignatureError`
        on a bad MAC or unknown key id), monotonic version check
        against :attr:`fw_floor` (:class:`~repro.errors.RollbackError`
        on a replayed old version), and a re-hash of the PROM section
        against the signed per-module measurements.  After the Secure
        Loader runs, its independently measured digests are
        cross-checked against the container's — a loader/container
        disagreement refuses the boot too.

        The platform then runs *from the container*: :attr:`image` is
        cleared (host-built layouts no longer describe the device) and
        interrupt vectors are wired from the container's pre-resolved
        vector block.  :attr:`fw_version` tracks the running version;
        the rollback floor only moves on :meth:`commit_firmware`.
        """
        # Imported lazily: ota depends on core, not vice versa.
        from repro.errors import ContainerError
        from repro.ota.container import (
            FirmwareContainer,
            decode_container,
            verify_container,
        )

        if not isinstance(container, FirmwareContainer):
            container = decode_container(container)
        verify_container(
            container, trust_root, version_floor=self.fw_floor
        )
        prom = container.prom_section()
        end = prom.load_address + len(prom.data)
        if end > self.soc.prom.size:
            raise PlatformError(
                f"container prom section ends at {end:#x}, past the "
                f"{self.soc.prom.size}-byte PROM"
            )
        self.soc.prom.load(prom.load_address, prom.data)
        self.image = None
        self.container = container
        self.cpu.reset()
        report = self.loader.boot(wipe_data=wipe_data)
        signed = {m.module: m.digest for m in container.measurements}
        for name, digest in report.measurements.items():
            if name in signed and signed[name] != digest:
                raise ContainerError(
                    f"module {name!r}: Secure Loader measurement "
                    "diverges from the signed container"
                )
        for vector in container.vectors:
            if vector.kind == "irq":
                self.engine.set_irq_vector(vector.number, vector.address)
            else:
                self.engine.set_exception_vector(
                    vector.number, vector.address
                )
        self.fw_version = container.fw_version
        self.boot_report = report
        return report

    def commit_firmware(self) -> int:
        """Advance the monotonic rollback floor to the running version.

        Called after an update's health gate passes; from here on any
        container below this version is refused with
        :class:`~repro.errors.RollbackError`.  Returns the new floor.
        """
        if self.fw_version < 1:
            raise PlatformError(
                "commit_firmware before a signed boot"
            )
        self.fw_floor = max(self.fw_floor, self.fw_version)
        return self.fw_floor

    def warm_reset(self, *, wipe_data: bool = False) -> BootReport:
        """Platform reset: CPU reset + Secure Loader re-initialization.

        Unlike SMART/Sancus, no hardware memory wipe is needed — the
        loader merely re-establishes the protection rules (Sec. 6,
        "Fast Startup").
        """
        if self.image is None:
            raise PlatformError("warm_reset before boot")
        self.cpu.reset()
        report = self.loader.boot(wipe_data=wipe_data)
        self._wire_vectors(self.image, report)
        self.boot_report = report
        return report

    def _wire_vectors(self, image: BuiltImage, report: BootReport) -> None:
        if report.launched is None:
            return
        symbols = image.layout_of(report.launched).symbols
        for name, (kind, number) in _ISR_SYMBOLS.items():
            if name not in symbols:
                continue
            if kind == "irq":
                self.engine.set_irq_vector(number, symbols[name])
            else:
                self.engine.set_exception_vector(number, symbols[name])

    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run the booted platform; returns cycles consumed."""
        return self.soc.run(max_cycles)

    def run_until(self, predicate, max_cycles: int = 1_000_000) -> int:
        return self.soc.run_until(lambda _soc: predicate(self), max_cycles)

    def read_trustlet_word(self, module: str, offset: int) -> int:
        """Host-side peek into a module's data region (for assertions)."""
        if self.image is None:
            raise PlatformError("platform not booted")
        lay = self.image.layout_of(module)
        return self.bus.read_word(lay.data_base + offset)
