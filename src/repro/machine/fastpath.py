"""Fast-path execution engine: decode, permission and routing caches.

Emulated throughput — not the modelled architecture — is what limits
how far the fleet subsystem and the Sec. 5 benchmarks scale.  The slow
engine pays three per-access costs on *every* instruction: re-decoding
the fetched word, linearly scanning the bus mappings, and linearly
scanning all EA-MPU region registers (twice: subject mask, then object
match).  Real execution-aware hardware amortizes exactly these lookups
with parallel comparators and lookaside state; this module is the
simulation analogue, and it must be *semantically invisible*:

* :class:`DecodeCache` — decoded instructions keyed by physical
  address, storing ``(Instruction, length, base_cycle_cost)``.  Entries
  exist only for RAM-backed addresses (fetching from MMIO would skip a
  read side effect).
* One page index, owned by :class:`FastPath`, maps every 256-byte page
  that holds cached code to the decode-cache addresses and recorded
  traces (:mod:`repro.machine.traces`) on it.  Every change to memory
  contents reaches it on one channel, the bus write listener: bus
  stores and DMA directly, and the host-side ports that bypass the bus
  (``Ram.load``/``wipe``/``restore_state``, which tamper, OTA writes,
  fault flips and snapshot restore use) through the bus's hook on each
  memory window.  The listener drops whatever shares a written page,
  so the common case — a data write nowhere near cached code — costs
  two dict probes.
* :class:`MpuLookaside` — memoizes EA-MPU decisions per
  ``(subject mask, address, size, access)`` and the subject mask per
  instruction address, over a compiled (plain-int) copy of the valid
  region registers.  Flushed whenever the MPU's ``generation`` counter
  moves, which every register write, enable toggle and snapshot restore
  bumps.  Counter semantics are preserved: a lookaside hit still
  increments ``stats.checks`` (a check *happened*, the hardware just
  answered it from the lookaside); only ``regions_scanned`` drops, and
  ``lookaside_hits``/``lookaside_misses`` expose the hit rate.
* The bus routing cache (last-mapping memo + bisect + RAM
  short-circuit) lives in :class:`~repro.machine.bus.Bus` itself — it
  is a pure strength reduction with identical fault behaviour, so both
  engines share it; the ``fastpath=False`` reference engine on
  :class:`~repro.machine.cpu.Cpu` / :class:`~repro.machine.soc.SoC`
  disables only the decode cache, the lookaside and the traces built
  on them.

The differential lockstep harness (``tests/integration/test_lockstep``)
proves the invisibility claim: every canned workload must produce
identical architectural state, cycle totals, fault addresses and trace
streams with the fast path on and off.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

from repro.isa.cycles import cycle_cost
from repro.machine.access import AccessType
from repro.mpu.regions import ANY_SUBJECT, Perm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.cpu import Cpu
    from repro.machine.traces import TraceEngine

# Invalidation granule: writes are filtered against 256-byte pages, so
# a store that lands nowhere near cached code is two dict probes.
PAGE_SHIFT = 8

_PERM_FOR_ACCESS = {
    AccessType.READ: int(Perm.R),
    AccessType.WRITE: int(Perm.W),
    AccessType.FETCH: int(Perm.X),
}


def _pages_of(address: int, length: int) -> range:
    """The pages ``[address, +length)`` touches."""
    return range(
        address >> PAGE_SHIFT, ((address + length - 1) >> PAGE_SHIFT) + 1
    )


class DecodeCache:
    """Decoded-instruction cache keyed by physical address.

    ``entries[addr] = (Instruction, length, base_cycle_cost)``; the
    fast path indexes each entry under every page its bytes touch.
    """

    def __init__(self) -> None:
        self.entries: dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def stats(self) -> dict:
        return {
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


class MpuLookaside:
    """Memoized EA-MPU permission checks with exact fault semantics.

    Wraps an :class:`~repro.mpu.ea_mpu.EaMpu` (any MPU that advertises
    ``supports_lookaside``).  Coherence rests on the MPU's
    ``generation`` counter: every register write, enable toggle and
    snapshot restore bumps it, and the first check after a bump
    recompiles the region file and empties both memo tables.
    """

    # Decision memo bound: sweeping workloads (large memcpys) touch
    # many distinct addresses; past this the *oldest half* is evicted
    # (dicts preserve insertion order), so hot keys that re-miss land
    # in the surviving young half instead of the whole memo
    # cold-starting mid-sweep.  An eviction costs re-misses, never
    # correctness.
    MAX_DECISIONS = 1 << 16

    def __init__(self, mpu) -> None:
        self.mpu = mpu
        self._generation = -1
        self._subject_masks: dict[int, int] = {}
        self._decisions: dict[tuple, bool] = {}
        self.evictions = 0
        # Valid regions only, as plain ints: (base, end, perm, subjects,
        # index).  ``index`` keeps subject-mask bit positions identical
        # to the uncached scan.
        self._compiled: tuple = ()

    def _reload(self) -> None:
        mpu = self.mpu
        self._subject_masks.clear()
        self._decisions.clear()
        self._compiled = tuple(
            (region.base, region.end, int(region.perm), region.subjects, i)
            for i, region in enumerate(mpu.regions)
            if region.valid
        )
        self._generation = mpu.generation

    def mask_for(self, subject_ip: int) -> int:
        """The subject mask of ``subject_ip``, memoized per address."""
        mask = self._subject_masks.get(subject_ip)
        if mask is None:
            mask = 0
            for base, end, _perm, _subjects, index in self._compiled:
                if base <= subject_ip < end:
                    mask |= 1 << index
            self._subject_masks[subject_ip] = mask
        return mask

    def scan(
        self, mask: int, address: int, size: int, access: AccessType
    ) -> int:
        """Scan the region file without touching the stats: the 1-based
        position of the first region that allows the access, else 0."""
        needed = _PERM_FOR_ACCESS[access]
        limit = address + size
        for position, (base, end, perm, subjects, _index) in enumerate(
            self._compiled, 1
        ):
            if (
                base <= address
                and limit <= end
                and perm & needed
                and (subjects == ANY_SUBJECT or subjects & mask)
            ):
                return position
        return 0

    def check(
        self, subject_ip: int, address: int, size: int, access: AccessType
    ) -> None:
        """Drop-in replacement for :meth:`EaMpu.check`."""
        mpu = self.mpu
        if mpu.generation != self._generation:
            self._reload()
        stats = mpu.stats
        stats.checks += 1
        if not mpu.enabled:
            return
        mask = self.mask_for(subject_ip)
        key = (mask, address, size, access)
        allow = self._decisions.get(key)
        if allow is None:
            stats.lookaside_misses += 1
            position = self.scan(mask, address, size, access)
            stats.regions_scanned += position or len(self._compiled)
            allow = position > 0
            if len(self._decisions) >= self.MAX_DECISIONS:
                # In-place so bound references (the trace engine holds
                # ``_decisions.get``) stay valid.
                drop = len(self._decisions) // 2
                for stale in list(islice(self._decisions, drop)):
                    del self._decisions[stale]
                self.evictions += drop
            self._decisions[key] = allow
        else:
            stats.lookaside_hits += 1
        if allow:
            return
        mpu.raise_denial(subject_ip, address, size, access)


class FastPath:
    """Per-CPU fast-path state: decode cache, lookaside, page index."""

    def __init__(self, cpu: "Cpu") -> None:
        self.cpu = cpu
        self.bus = cpu.bus
        self.decode_cache = DecodeCache()
        self.lookaside: MpuLookaside | None = None
        # The trace engine is built on first use (the CPU's first
        # budgeted step): a core that is never run, like a fleet clone
        # that is only attested, pays nothing for it.
        self._traces: "TraceEngine | None" = None
        # page -> decode-cache addresses and traces with bytes on it.
        self._pages: dict[int, set] = {}
        self.bus.add_write_listener(self._on_bus_write)
        self.bus.add_topology_listener(self._on_topology_change)

    @property
    def traces(self) -> "TraceEngine":
        """The trace engine, built here if needed."""
        if self._traces is None:
            # Imported here: the trace engine builds on this module.
            from repro.machine.traces import TraceEngine

            self._traces = TraceEngine(self)
        return self._traces

    @property
    def trace_stats(self) -> dict | None:
        """The trace engine's counters, or ``None`` if none was built."""
        return self._traces.stats if self._traces is not None else None

    # -- invalidation ---------------------------------------------------

    def index(self, member, pages) -> None:
        """File ``member`` (a decode address or a trace) under ``pages``."""
        for page in pages:
            self._pages.setdefault(page, set()).add(member)

    def unindex(self, member, pages) -> None:
        for page in pages:
            members = self._pages.get(page)
            if members is not None:
                members.discard(member)

    def _on_bus_write(self, address: int, length: int) -> None:
        """Drop every decoded instruction and trace sharing a page with
        ``[address, +length)``.

        Page-conservative (an entry in the written page but not at the
        written byte is dropped too): costs only a spurious re-decode or
        re-record, never a stale hit.  A dropped entry leaves every
        other page it was filed under, so a later write there cannot
        count it twice or drop its successor.
        """
        traces = self._traces
        if traces is not None and traces._blacklist:
            # The code that made a head unrecordable may just have
            # changed; re-discover from scratch.
            traces._blacklist.clear()
        pages = self._pages
        if not pages:
            return
        entries = self.decode_cache.entries
        for page in _pages_of(address, length):
            members = pages.pop(page, None)
            if not members:
                continue
            for member in members:
                if type(member) is int:
                    self.decode_cache.invalidations += 1
                    others = _pages_of(member, entries.pop(member)[1])
                else:
                    traces.kill(member)
                    others = member.pages
                for other in others:
                    if other != page:
                        neighbours = pages.get(other)
                        if neighbours is not None:
                            neighbours.discard(member)

    def _on_topology_change(self) -> None:
        if self._traces is not None:
            # Traces bake RAM-window bounds into their store guards.
            self._traces.flush()

    # -- MPU attachment -------------------------------------------------

    def attach_mpu(self, mpu):
        """Build a checker for ``mpu``; lookaside when it supports one."""
        if self._traces is not None:
            # Recorded traces bake the old MPU's masks and decision
            # memo; a new protection hook invalidates all of that.
            self._traces.flush()
        if getattr(mpu, "supports_lookaside", False):
            self.lookaside = MpuLookaside(mpu)
            return self.lookaside.check
        self.lookaside = None
        return mpu.check

    # -- fetch ----------------------------------------------------------

    def fetch(self) -> tuple:
        """Fetch/decode at ``cpu.ip``; returns (instr, length, cost).

        A hit replays the MPU fetch checks (same ``stats.checks``
        arithmetic as the slow path — one per fetched word) but skips
        the memory read and the decoder; safe because entries only
        cover side-effect-free RAM and every mutation path invalidates.
        """
        cpu = self.cpu
        ip = cpu.ip
        cache = self.decode_cache
        entry = cache.entries.get(ip)
        if entry is not None:
            cache.hits += 1
            cpu._check(ip, 4, AccessType.FETCH)
            if entry[1] == 8:
                cpu._check(ip + 4, 4, AccessType.FETCH)
            return entry
        cache.misses += 1
        instr, length = cpu._fetch()
        cost = cycle_cost(instr.op)
        if self.bus.is_ram_backed(ip, length):
            cache.entries[ip] = (instr, length, cost)
            self.index(ip, _pages_of(ip, length))
        return instr, length, cost
