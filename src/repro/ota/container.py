"""TLFW — the versioned, signed trustlet-firmware container.

The Secure Loader is TrustLite's root of trust for *what code runs*,
but a raw :class:`~repro.core.image.BuiltImage` says nothing about
where an image came from or whether it may replace the one a device
already runs.  This module defines the one artifact that is allowed to
cross an update channel: a TFTF-style container of typed sections with
load addresses, an entry module, a monotonic ``fw_version``, the same
per-module code measurements :func:`repro.core.attestation.expected_measurements`
computes, the pre-resolved interrupt-vector wiring, and a signature
block (a MAC under the update trust root) over the canonical encoding
of all of it.

Codec discipline mirrors :mod:`repro.machine.snapcodec`: a strict,
bounds-checked reader with canonical varints, closed kind sets and
plausibility caps, where **every** way a malformed stream can fail
raises a typed :class:`~repro.errors.ContainerError` — never
``IndexError``, ``UnicodeDecodeError`` or a runaway allocation.  The
verification chain raises the more specific
:class:`~repro.errors.SignatureError` (bad signature, wrong key) and
:class:`~repro.errors.RollbackError` (version below the committed
floor) subtypes so boot code, campaigns and trustlint can tell the
refusal modes apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro.crypto import (
    DIGEST_SIZE,
    SpongeHash,
    constant_time_equal,
    mac,
    sponge_hash,
)
from repro.errors import ContainerError, RollbackError, SignatureError
from repro.varint import VarintReader, write_uvarint

MAGIC = b"TLFW"
VERSION = 1

#: Truncated hash of the signing key carried in the container so a
#: verifier can distinguish "signed with a key I don't hold" from
#: "signature corrupted in transit".
KEY_ID_SIZE = 4

SECTION_PROM = "prom"
SECTION_NOTE = "note"
SECTION_KINDS = (SECTION_PROM, SECTION_NOTE)

VECTOR_IRQ = "irq"
VECTOR_EXCEPTION = "exception"
VECTOR_KINDS = (VECTOR_IRQ, VECTOR_EXCEPTION)

# Plausibility caps: a bit-flipped stream that still parses must not
# make the decoder allocate absurd amounts.  Real containers sit far
# inside these bounds (a PROM image is tens of KiB).
MAX_SECTIONS = 64
MAX_MEASUREMENTS = 1024
MAX_VECTORS = 64
MAX_NAME_BYTES = 64
MAX_SECTION_BYTES = 1 << 26
MAX_ADDRESS = 1 << 32


@dataclass(frozen=True)
class Section:
    """One typed payload section with its load address."""

    kind: str
    load_address: int
    data: bytes


@dataclass(frozen=True)
class Measurement:
    """One module's signed code span and reference digest."""

    module: str
    code_base: int
    code_end: int
    digest: bytes


@dataclass(frozen=True)
class Vector:
    """One pre-resolved interrupt/exception vector of the entry module."""

    kind: str
    number: int
    address: int


@dataclass(frozen=True)
class FirmwareContainer:
    """A decoded TLFW container (possibly unsigned)."""

    image_name: str
    fw_version: int
    entry_module: str
    key_id: bytes
    sections: tuple[Section, ...]
    measurements: tuple[Measurement, ...]
    vectors: tuple[Vector, ...]
    signature: bytes = b""

    @property
    def signed(self) -> bool:
        return bool(self.signature)

    def prom_section(self) -> Section:
        """The single PROM section (decode guarantees exactly one)."""
        for section in self.sections:
            if section.kind == SECTION_PROM:
                return section
        raise ContainerError("container carries no prom section")


# ---------------------------------------------------------------------------
# Primitive layer: canonical varints + strict reader.


_write_uvarint = partial(write_uvarint, error=ContainerError)


def _write_bytes(out: bytearray, blob: bytes) -> None:
    _write_uvarint(out, len(blob))
    out += blob


def _write_str(out: bytearray, text: str) -> None:
    _write_bytes(out, text.encode("utf-8"))


class _Reader(VarintReader):
    """Bounds-checked cursor; every failure is a ContainerError."""

    error = ContainerError
    noun = "container"

    def blob(self, *, cap: int, what: str) -> bytes:
        count = self.uvarint()
        if count > cap:
            raise ContainerError(
                f"{what} of {count} byte(s) exceeds the {cap}-byte cap"
            )
        return bytes(self.take(count))

    def string(self, *, what: str) -> str:
        raw = self.blob(cap=MAX_NAME_BYTES, what=what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"malformed {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# Container codec.


def _encode_body(container: FirmwareContainer) -> bytes:
    """Canonical encoding of everything the signature covers."""
    out = bytearray(MAGIC)
    _write_uvarint(out, VERSION)
    _write_str(out, container.image_name)
    _write_uvarint(out, container.fw_version)
    _write_str(out, container.entry_module)
    _write_bytes(out, container.key_id)
    _write_uvarint(out, len(container.sections))
    for section in container.sections:
        _write_str(out, section.kind)
        _write_uvarint(out, section.load_address)
        _write_bytes(out, section.data)
    _write_uvarint(out, len(container.measurements))
    for measurement in container.measurements:
        _write_str(out, measurement.module)
        _write_uvarint(out, measurement.code_base)
        _write_uvarint(out, measurement.code_end)
        _write_bytes(out, measurement.digest)
    _write_uvarint(out, len(container.vectors))
    for vector in container.vectors:
        _write_str(out, vector.kind)
        _write_uvarint(out, vector.number)
        _write_uvarint(out, vector.address)
    return bytes(out)


def signing_material(container: FirmwareContainer) -> bytes:
    """The byte string the signature MACs (body sans signature)."""
    return _encode_body(container)


def encode_container(container: FirmwareContainer) -> bytes:
    """Serialize ``container`` (body + signature block)."""
    out = bytearray(_encode_body(container))
    _write_bytes(out, container.signature)
    return bytes(out)


def decode_container(data) -> FirmwareContainer:
    """Strictly decode a TLFW stream; typed errors on any damage."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ContainerError(
            f"container stream must be bytes, not {type(data).__name__}"
        )
    reader = _Reader(bytes(data))
    if reader.take(len(MAGIC)) != MAGIC:
        raise ContainerError("bad magic: not a firmware container")
    version = reader.uvarint()
    if version != VERSION:
        raise ContainerError(
            f"unsupported container format version {version} "
            f"(this codec speaks {VERSION})"
        )
    image_name = reader.string(what="image name")
    fw_version = reader.uvarint()
    if fw_version < 1:
        raise ContainerError(
            f"firmware version must be >= 1: {fw_version}"
        )
    entry_module = reader.string(what="entry module name")
    key_id = reader.blob(cap=KEY_ID_SIZE, what="key id")
    if len(key_id) != KEY_ID_SIZE:
        raise ContainerError(
            f"key id must be {KEY_ID_SIZE} byte(s), got {len(key_id)}"
        )

    section_count = reader.uvarint()
    if section_count > MAX_SECTIONS:
        raise ContainerError(
            f"{section_count} section(s) exceed the {MAX_SECTIONS} cap"
        )
    sections = []
    for _ in range(section_count):
        kind = reader.string(what="section kind")
        if kind not in SECTION_KINDS:
            raise ContainerError(f"unknown section kind {kind!r}")
        load_address = reader.uvarint()
        if load_address >= MAX_ADDRESS:
            raise ContainerError(
                f"implausible section load address {load_address:#x}"
            )
        data_ = reader.blob(cap=MAX_SECTION_BYTES, what="section data")
        sections.append(Section(kind, load_address, data_))
    if sum(1 for s in sections if s.kind == SECTION_PROM) != 1:
        raise ContainerError(
            "container must carry exactly one prom section"
        )

    measurement_count = reader.uvarint()
    if measurement_count > MAX_MEASUREMENTS:
        raise ContainerError(
            f"{measurement_count} measurement(s) exceed the "
            f"{MAX_MEASUREMENTS} cap"
        )
    measurements = []
    for _ in range(measurement_count):
        module = reader.string(what="measured module name")
        code_base = reader.uvarint()
        code_end = reader.uvarint()
        if code_end <= code_base or code_end >= MAX_ADDRESS:
            raise ContainerError(
                f"module {module!r}: bad code span "
                f"[{code_base:#x}, {code_end:#x})"
            )
        digest = reader.blob(cap=DIGEST_SIZE, what="code digest")
        if len(digest) != DIGEST_SIZE:
            raise ContainerError(
                f"module {module!r}: digest must be {DIGEST_SIZE} "
                f"byte(s), got {len(digest)}"
            )
        measurements.append(
            Measurement(module, code_base, code_end, digest)
        )
    if not measurements:
        raise ContainerError("container carries no measurements")

    vector_count = reader.uvarint()
    if vector_count > MAX_VECTORS:
        raise ContainerError(
            f"{vector_count} vector(s) exceed the {MAX_VECTORS} cap"
        )
    vectors = []
    for _ in range(vector_count):
        kind = reader.string(what="vector kind")
        if kind not in VECTOR_KINDS:
            raise ContainerError(f"unknown vector kind {kind!r}")
        number = reader.uvarint()
        address = reader.uvarint()
        if address >= MAX_ADDRESS:
            raise ContainerError(
                f"implausible vector address {address:#x}"
            )
        vectors.append(Vector(kind, number, address))

    signature = reader.blob(cap=DIGEST_SIZE, what="signature")
    if signature and len(signature) != DIGEST_SIZE:
        raise ContainerError(
            f"signature must be empty or {DIGEST_SIZE} byte(s), "
            f"got {len(signature)}"
        )
    if not reader.exhausted():
        raise ContainerError(
            f"{len(reader.data) - reader.pos} trailing byte(s) after "
            "container payload"
        )
    try:
        return FirmwareContainer(
            image_name=image_name,
            fw_version=fw_version,
            entry_module=entry_module,
            key_id=key_id,
            sections=tuple(sections),
            measurements=tuple(measurements),
            vectors=tuple(vectors),
            signature=signature,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContainerError(f"malformed container payload: {exc}") \
            from exc


# ---------------------------------------------------------------------------
# Building and signing.


def key_fingerprint(key: bytes) -> bytes:
    """Public identifier of an update signing key."""
    if not key:
        raise ContainerError("empty signing key")
    hasher = SpongeHash().update(b"tlfw-key:" + bytes(key))
    return hasher.digest(KEY_ID_SIZE)


def build_container(
    image,
    *,
    image_name: str,
    fw_version: int,
    signing_key: bytes | None = None,
    entry_module: str | None = None,
) -> FirmwareContainer:
    """Package a :class:`~repro.core.image.BuiltImage` as a container.

    The measurement block is exactly what
    :func:`repro.core.attestation.expected_measurements` computes, with
    each module's code span alongside so a verifier can re-hash the
    PROM section without holding the image.  Vectors are pre-resolved
    from the entry module's well-known ISR symbols, making the
    container self-contained firmware: booting it needs no
    ``BuiltImage`` on the receiving side.
    """
    from repro.core.attestation import expected_measurements
    from repro.core.platform import _ISR_SYMBOLS

    if fw_version < 1:
        raise ContainerError(
            f"firmware version must be >= 1: {fw_version}"
        )
    entry = entry_module or image.module_order[0]
    if entry not in image.layouts:
        raise ContainerError(f"no module named {entry!r} in image")
    digests = expected_measurements(image)
    measurements = tuple(
        Measurement(
            module=name,
            code_base=image.layout_of(name).code_base,
            code_end=image.layout_of(name).code_end,
            digest=digests[name],
        )
        for name in image.module_order
    )
    symbols = image.layout_of(entry).symbols
    vectors = tuple(
        Vector(kind=kind, number=number, address=symbols[name])
        for name, (kind, number) in sorted(_ISR_SYMBOLS.items())
        if name in symbols
    )
    container = FirmwareContainer(
        image_name=image_name,
        fw_version=fw_version,
        entry_module=entry,
        key_id=b"\x00" * KEY_ID_SIZE,
        sections=(Section(SECTION_PROM, 0, image.prom),),
        measurements=measurements,
        vectors=vectors,
    )
    if signing_key is not None:
        container = sign_container(container, signing_key)
    return container


def sign_container(
    container: FirmwareContainer, key: bytes
) -> FirmwareContainer:
    """Return ``container`` signed under ``key`` (key id refreshed)."""
    stamped = replace(container, key_id=key_fingerprint(key))
    return replace(
        stamped, signature=mac(bytes(key), signing_material(stamped))
    )


# ---------------------------------------------------------------------------
# The verification chain.

RULE_UNKNOWN_KEY = "TL-OTA-001"
RULE_BAD_SIGNATURE = "TL-OTA-002"
RULE_ROLLBACK = "TL-OTA-003"
RULE_MEASUREMENT = "TL-OTA-004"
RULE_MALFORMED = "TL-OTA-005"


def container_problems(
    container: FirmwareContainer,
    trust_root: bytes | None = None,
    *,
    version_floor: int = 0,
) -> list[tuple[str, str | None, str]]:
    """Every verification-chain violation as ``(rule, module, message)``.

    The shared engine behind :func:`verify_container` (which raises on
    the first, most specific problem) and trustlint's
    ``lint_container`` (which reports all of them as findings).
    """
    problems: list[tuple[str, str | None, str]] = []
    if trust_root is not None:
        expected_id = key_fingerprint(trust_root)
        if not container.signed:
            problems.append(
                (RULE_BAD_SIGNATURE, None, "container is unsigned")
            )
        elif container.key_id != expected_id:
            problems.append(
                (
                    RULE_UNKNOWN_KEY,
                    None,
                    f"container signed with unknown key id "
                    f"{container.key_id.hex()} (trust root is "
                    f"{expected_id.hex()})",
                )
            )
        elif not constant_time_equal(
            container.signature,
            mac(bytes(trust_root), signing_material(container)),
        ):
            problems.append(
                (
                    RULE_BAD_SIGNATURE,
                    None,
                    "container signature does not verify under the "
                    "trust root",
                )
            )
    if container.fw_version < version_floor:
        problems.append(
            (
                RULE_ROLLBACK,
                None,
                f"firmware version {container.fw_version} is below "
                f"the committed floor {version_floor}",
            )
        )
    prom = None
    for section in container.sections:
        if section.kind == SECTION_PROM:
            prom = section
    if prom is None:
        problems.append(
            (RULE_MEASUREMENT, None, "container carries no prom section")
        )
        return problems
    lo = prom.load_address
    hi = lo + len(prom.data)
    for measurement in container.measurements:
        if measurement.code_base < lo or measurement.code_end > hi:
            problems.append(
                (
                    RULE_MEASUREMENT,
                    measurement.module,
                    f"signed code span [{measurement.code_base:#x}, "
                    f"{measurement.code_end:#x}) falls outside the "
                    f"prom section [{lo:#x}, {hi:#x})",
                )
            )
            continue
        live = sponge_hash(
            prom.data[measurement.code_base - lo:measurement.code_end - lo]
        )
        if live != measurement.digest:
            problems.append(
                (
                    RULE_MEASUREMENT,
                    measurement.module,
                    "prom section bytes diverge from the signed "
                    "measurement",
                )
            )
    return problems


def verify_container(
    container: FirmwareContainer,
    trust_root: bytes,
    *,
    version_floor: int = 0,
) -> None:
    """Run the full chain; raise the most specific typed error.

    Order matters: signature problems are reported before the rollback
    check (an unsigned version field is not evidence of anything) and
    both before structural measurement mismatches.
    """
    problems = container_problems(
        container, trust_root, version_floor=version_floor
    )
    for wanted, error in (
        ((RULE_UNKNOWN_KEY, RULE_BAD_SIGNATURE), SignatureError),
        ((RULE_ROLLBACK,), RollbackError),
        ((RULE_MEASUREMENT,), ContainerError),
    ):
        for rule, module, message in problems:
            if rule in wanted:
                where = f"{module}: " if module else ""
                raise error(f"{where}{message}")


# ---------------------------------------------------------------------------
# Canned containers (CLI / trustlint demos; the build_broken_image
# idiom applied to update artifacts).


def demo_trust_root(seed: int = 0) -> bytes:
    """The update-signing key of the demos and of OTA campaign ``seed``
    (derived, never stored)."""
    return mac(
        sponge_hash(f"ota-root:{seed}".encode("ascii")), b"trust-root"
    )


def build_demo_container(
    kind: str = "signed", *, seed: int = 0
) -> tuple[bytes, bytes, int]:
    """A canned container stream for CLI/lint demos.

    Returns ``(stream, trust_root, version_floor)`` so the caller can
    feed all three straight into verification.  ``kind`` selects the
    defect: ``signed`` (clean), ``unsigned``, ``wrong-key``,
    ``rollback`` (validly signed but below the floor), ``tampered``
    (prom bytes flipped *before* signing, so the signature verifies
    but the section contradicts its own measurements) and
    ``truncated``.
    """
    from repro.sw.images import build_attestation_image

    kinds = (
        "signed", "unsigned", "wrong-key", "rollback", "tampered",
        "truncated",
    )
    if kind not in kinds:
        raise ContainerError(
            f"unknown demo container kind {kind!r}; choose from {kinds}"
        )
    root = demo_trust_root(seed)
    image = build_attestation_image()
    floor = 0
    if kind == "unsigned":
        container = build_container(
            image, image_name="attestation", fw_version=2
        )
    elif kind == "wrong-key":
        container = build_container(
            image,
            image_name="attestation",
            fw_version=2,
            signing_key=mac(root, b"not-the-trust-root"),
        )
    elif kind == "rollback":
        container = build_container(
            image, image_name="attestation", fw_version=1,
            signing_key=root,
        )
        floor = 2
    elif kind == "tampered":
        # A compromised build pipeline: the prom bytes are flipped
        # before the signing service MACs the container, so the
        # signature verifies yet the section contradicts the signed
        # measurements — only the re-hash catches it.
        container = build_container(
            image, image_name="attestation", fw_version=2
        )
        prom = container.prom_section()
        middle = len(prom.data) // 2
        bad = (
            prom.data[:middle]
            + bytes((prom.data[middle] ^ 0x01,))
            + prom.data[middle + 1:]
        )
        container = replace(
            container, sections=(Section(SECTION_PROM, 0, bad),)
        )
        container = sign_container(container, root)
    else:
        container = build_container(
            image, image_name="attestation", fw_version=2,
            signing_key=root,
        )
    stream = encode_container(container)
    if kind == "truncated":
        stream = stream[: len(stream) // 2]
    return stream, root, floor
