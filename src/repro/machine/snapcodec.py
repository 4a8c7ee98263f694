"""Compact, versioned byte codec for platform snapshots.

:class:`~repro.machine.snapshot.Snapshot` is an in-process object
graph: dataclasses holding tuples, ints and the raw byte images of
every memory.  The fleet executor (:mod:`repro.fleet.parallel`) needs
to move that state across *process* boundaries, and pickling live
simulator objects across processes is both fragile (it would silently
drag along whatever the classes grow next) and a trust problem (the
receiving side executes whatever the stream says).  This module defines
the one format that is allowed to cross: a closed, self-describing
tagged-value encoding with an explicit magic and version.

Design points:

* **Closed type set.**  Only ``None``, ``bool``, ``int``, ``bytes``,
  ``str`` and ``tuple`` encode.  Anything else raises
  :class:`~repro.errors.SnapcodecError` at *encode* time — a live
  ``Device``/``Cpu`` reference can never leak into the stream.
* **Deterministic.**  Equal snapshots encode to equal bytes, and
  ``encode(decode(encode(s))) == encode(s)`` bit for bit; varints have
  a single canonical form and page runs are emitted in ascending
  order.  The fleet's determinism guarantees build on this.
* **Zero-page skip.**  Large byte images (the memories) are cut into
  :data:`PAGE_SIZE` pages and all-zero pages are simply omitted — the
  1 MiB DRAM of a freshly booted platform costs three varints.
* **Host handles don't travel.**  ``Snapshot.image`` and
  ``Snapshot.boot_report`` are host-side conveniences (the built image
  object, the loader's report); they are deliberately *not* encoded.
  A decoded snapshot carries ``image=None`` / ``boot_report=None`` and
  the receiving side re-derives them (fleet workers attach their
  process's cached attestation image).
"""

from __future__ import annotations

from functools import partial

from repro.errors import SnapcodecError
from repro.machine.irq import Interrupt
from repro.machine.snapshot import (
    CpuState,
    MpuState,
    PlatformConfig,
    Snapshot,
    ZeroBytes,
)
from repro.varint import VarintReader, write_uvarint

MAGIC = b"TLSC"
VERSION = 1

# Zero-page-skip granule for large byte images.  1 KiB keeps the page
# table small while still eliding the (dominant) untouched spans of
# SRAM and DRAM.
PAGE_SIZE = 1024

# Hard ceiling on a single paged image.  The decoder allocates the
# whole image up front (zero-skip means the stream can be far smaller
# than the image), so an attacker-controlled total must not be able to
# request an absurd allocation.  1 GiB is ~three orders of magnitude
# above any simulated memory.
MAX_PAGED_BYTES = 1 << 30

# Value tags.  A byte string of PAGE_SIZE or more is written as a paged
# run (_T_PAGED); shorter ones verbatim (_T_BYTES).  Both decode to
# plain ``bytes``.
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_BYTES = 4
_T_STR = 5
_T_TUPLE = 6
_T_PAGED = 7


# ---------------------------------------------------------------------------
# Primitive layer: canonical varints.


_write_uvarint = partial(write_uvarint, error=SnapcodecError)


def _write_svarint(out: bytearray, value: int) -> None:
    # ZigZag: small magnitudes of either sign stay short.
    if value >= 0:
        _write_uvarint(out, value << 1)
    else:
        _write_uvarint(out, ((-value) << 1) - 1)


class _Reader(VarintReader):
    """Bounds-checked cursor over an immutable byte buffer.

    Accepts ``bytes`` or a read-only :class:`memoryview` — the fleet's
    shared-memory path decodes straight out of the mapped segment
    without ever copying the stream.  :meth:`take` returns a slice of
    whatever the buffer is; decode sites that let byte data escape the
    reader's lifetime convert with ``bytes()``.
    """

    error = SnapcodecError
    noun = "stream"

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)


# ---------------------------------------------------------------------------
# Value layer: the closed tagged union.


def _encode_value(out: bytearray, value) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_svarint(out, value)
    elif isinstance(value, ZeroBytes):
        # All-zero images encode without ever materializing: a large
        # one is a paged run with zero pages (bit-identical to paging
        # literal zeros), a small one falls back to literal bytes.
        if len(value) >= PAGE_SIZE:
            out.append(_T_PAGED)
            _write_uvarint(out, len(value))
            _write_uvarint(out, 0)
        else:
            out.append(_T_BYTES)
            _write_uvarint(out, len(value))
            out += bytes(value)
    elif isinstance(value, (bytes, bytearray)):
        if len(value) >= PAGE_SIZE:
            _encode_paged(out, bytes(value))
        else:
            out.append(_T_BYTES)
            _write_uvarint(out, len(value))
            out += value
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(encoded))
        out += encoded
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    else:
        raise SnapcodecError(
            f"value of type {type(value).__name__!r} is outside the "
            "codec's closed type set (live object in snapshot state?)"
        )


def _encode_paged(out: bytearray, blob: bytes) -> None:
    """Page run with zero-page skip: (total, count, (index, raw)*)."""
    runs: list[tuple[int, bytes]] = []
    for index in range(0, len(blob), PAGE_SIZE):
        page = blob[index:index + PAGE_SIZE]
        if page.count(0) != len(page):
            runs.append((index // PAGE_SIZE, page))
    out.append(_T_PAGED)
    _write_uvarint(out, len(blob))
    _write_uvarint(out, len(runs))
    for page_index, page in runs:
        _write_uvarint(out, page_index)
        out += page


def _decode_value(reader: _Reader, depth: int = 0):
    if depth > 16:
        raise SnapcodecError("value nesting exceeds codec limits")
    tag = reader.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return reader.svarint()
    if tag == _T_BYTES:
        return bytes(reader.take(reader.uvarint()))
    if tag == _T_STR:
        raw = bytes(reader.take(reader.uvarint()))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapcodecError(f"malformed string payload: {exc}") \
                from exc
    if tag == _T_TUPLE:
        count = reader.uvarint()
        return tuple(
            _decode_value(reader, depth + 1) for _ in range(count)
        )
    if tag == _T_PAGED:
        total = reader.uvarint()
        if total > MAX_PAGED_BYTES:
            raise SnapcodecError(
                f"paged image of {total} bytes exceeds the "
                f"{MAX_PAGED_BYTES}-byte limit"
            )
        count = reader.uvarint()
        if count > (total + PAGE_SIZE - 1) // PAGE_SIZE:
            raise SnapcodecError(
                f"paged image of {total} bytes cannot hold "
                f"{count} page run(s)"
            )
        if count == 0:
            # An untouched memory: stay lazy, never allocate it.
            return ZeroBytes(total)
        blob = bytearray(total)
        previous = -1
        for _ in range(count):
            page_index = reader.uvarint()
            if page_index <= previous:
                raise SnapcodecError("page runs out of order")
            previous = page_index
            offset = page_index * PAGE_SIZE
            if offset >= total:
                raise SnapcodecError(
                    f"page {page_index} beyond image of {total} bytes"
                )
            length = min(PAGE_SIZE, total - offset)
            blob[offset:offset + length] = reader.take(length)
        return bytes(blob)
    raise SnapcodecError(f"unknown value tag {tag:#x}")


# ---------------------------------------------------------------------------
# Snapshot layer.


def _expect_tuple(value, arity: int, what: str) -> tuple:
    if not isinstance(value, tuple) or len(value) != arity:
        raise SnapcodecError(
            f"malformed {what}: expected a {arity}-tuple, "
            f"got {type(value).__name__}"
        )
    return value


def _expect_ints(values, what: str) -> tuple:
    if not isinstance(values, tuple) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        raise SnapcodecError(f"malformed {what}: expected a tuple of ints")
    return values


def encode_snapshot(snapshot: Snapshot) -> bytes:
    """Serialize ``snapshot`` to the versioned byte format."""
    config = snapshot.config
    cpu = snapshot.cpu
    mpu = snapshot.mpu
    payload = (
        (
            config.num_mpu_regions,
            config.secure_exceptions,
            config.table_capacity,
            tuple(
                (base, end, int(perm))
                for base, end, perm in config.os_extra_regions
            ),
            config.flash_prom,
            config.with_dma,
        ),
        (
            cpu.regs,
            cpu.ip,
            cpu.curr_ip,
            cpu.flags_word,
            cpu.halted,
            cpu.cycles,
            cpu.instructions_retired,
        ),
        (
            mpu.regions,
            mpu.enabled,
            mpu.hardwired,
            mpu.fault_address,
            mpu.fault_ip,
        ),
        tuple((name, state) for name, state in snapshot.devices),
        tuple(
            (irq.line, irq.source, irq.handler, irq.nmi)
            for irq in snapshot.irq_pending
        ),
        snapshot.irq_vectors,
        snapshot.exception_vectors,
        snapshot.zero_devices,
    )
    out = bytearray(MAGIC)
    _write_uvarint(out, VERSION)
    _encode_value(out, payload)
    return bytes(out)


def decode_snapshot(data: bytes) -> Snapshot:
    """Reconstruct a :class:`Snapshot` from :func:`encode_snapshot` bytes.

    The returned snapshot carries ``image=None`` and
    ``boot_report=None`` — those are host handles that never travel.

    Every way a malformed stream can fail raises
    :class:`~repro.errors.SnapcodecError` — never ``IndexError``,
    ``UnicodeDecodeError`` or a runaway allocation — so callers fed
    corrupted bytes (fleet workers, the fault campaign) need exactly
    one except clause.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SnapcodecError(
            f"snapshot stream must be bytes, not {type(data).__name__}"
        )
    # A memoryview decodes in place (the shared-memory fleet path maps
    # the golden blob once per host and never copies the stream); a
    # bytearray is copied so the stream cannot mutate mid-decode.
    reader = _Reader(
        data if isinstance(data, memoryview) else bytes(data)
    )
    if bytes(reader.take(len(MAGIC))) != MAGIC:
        raise SnapcodecError("bad magic: not a snapshot stream")
    version = reader.uvarint()
    if version != VERSION:
        raise SnapcodecError(
            f"unsupported snapshot format version {version} "
            f"(this codec speaks {VERSION})"
        )
    payload = _decode_value(reader)
    if not reader.exhausted():
        raise SnapcodecError(
            f"{len(reader.data) - reader.pos} trailing byte(s) after "
            "snapshot payload"
        )
    try:
        return _build_snapshot(payload)
    except SnapcodecError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # A well-typed stream can still carry field values the model
        # classes reject (a Perm word with undefined bits, a string
        # where an int belongs).  Structural damage is codec damage.
        raise SnapcodecError(f"malformed snapshot payload: {exc}") \
            from exc


def _build_interrupt(entry) -> Interrupt:
    line, source, handler, nmi = _expect_tuple(
        entry, 4, "pending interrupt"
    )
    if (
        not isinstance(line, int) or isinstance(line, bool)
        or not isinstance(source, str)
        or not (handler is None or isinstance(handler, int))
        or not isinstance(nmi, bool)
    ):
        raise SnapcodecError("malformed pending interrupt fields")
    return Interrupt(line=line, source=source, handler=handler, nmi=nmi)


def _build_snapshot(payload) -> Snapshot:
    """Assemble the model dataclasses from a decoded payload tuple."""
    from repro.mpu.regions import Perm

    (raw_config, raw_cpu, raw_mpu, raw_devices, raw_irqs,
     irq_vectors, exception_vectors, zero_devices) = _expect_tuple(
        payload, 8, "snapshot payload"
    )

    (num_regions, secure_exceptions, table_capacity, raw_extra,
     flash_prom, with_dma) = _expect_tuple(raw_config, 6, "config")
    # Plausibility bounds: a bit-flipped blob that still parses must
    # not make ``clone()`` allocate an absurd platform (a 2**28-entry
    # MPU region file, say).  Real configs sit far inside these caps.
    if not isinstance(num_regions, int) or isinstance(num_regions, bool) \
            or not 1 <= num_regions <= 1024:
        raise SnapcodecError(
            f"implausible MPU region count: {num_regions!r}"
        )
    if not isinstance(table_capacity, int) \
            or isinstance(table_capacity, bool) \
            or not 1 <= table_capacity <= 65536:
        raise SnapcodecError(
            f"implausible trustlet table capacity: {table_capacity!r}"
        )
    config = PlatformConfig(
        num_mpu_regions=num_regions,
        secure_exceptions=secure_exceptions,
        table_capacity=table_capacity,
        os_extra_regions=tuple(
            (base, end, Perm(perm))
            for base, end, perm in (
                _expect_tuple(r, 3, "os extra region") for r in raw_extra
            )
        ),
        flash_prom=flash_prom,
        with_dma=with_dma,
    )

    (regs, ip, curr_ip, flags_word, halted, cycles,
     retired) = _expect_tuple(raw_cpu, 7, "cpu state")
    _expect_ints((ip, curr_ip, flags_word, cycles, retired), "cpu state")
    cpu = CpuState(
        regs=_expect_ints(regs, "cpu register file"),
        ip=ip, curr_ip=curr_ip, flags_word=flags_word,
        halted=halted, cycles=cycles, instructions_retired=retired,
    )

    (regions, enabled, hardwired, fault_address,
     fault_ip) = _expect_tuple(raw_mpu, 5, "mpu state")
    if not isinstance(regions, tuple):
        raise SnapcodecError("malformed mpu state: regions not a tuple")
    mpu = MpuState(
        regions=tuple(
            _expect_ints(
                _expect_tuple(r, 3, "mpu region"), "mpu region"
            )
            for r in regions
        ),
        enabled=enabled,
        hardwired=_expect_ints(hardwired, "hardwired region set"),
        fault_address=fault_address,
        fault_ip=fault_ip,
    )

    return Snapshot(
        config=config,
        cpu=cpu,
        mpu=mpu,
        devices=tuple(
            _expect_tuple(entry, 2, "device state")
            for entry in raw_devices
        ),
        irq_pending=tuple(
            _build_interrupt(entry) for entry in raw_irqs
        ),
        irq_vectors=tuple(
            _expect_ints(
                _expect_tuple(entry, 2, "irq vector"), "irq vector"
            )
            for entry in irq_vectors
        ),
        exception_vectors=tuple(
            _expect_ints(
                _expect_tuple(entry, 2, "exception vector"),
                "exception vector",
            )
            for entry in exception_vectors
        ),
        image=None,
        boot_report=None,
        zero_devices=zero_devices,
    )
