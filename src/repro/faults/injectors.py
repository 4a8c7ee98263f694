"""Fault injectors over the simulated platform.

Each injector models one hardware- or systems-level failure and is a
pure function of its target and a caller-provided seeded
``random.Random`` (see :class:`repro.faults.plan.FaultPlan`) — the
same rng state always injects the same fault.  Injectors return a
JSON-ready description of what they did, so campaign reports can say
exactly which bit went where.

Injection routes deliberately mirror how the fault would arrive on
real silicon:

* **memory flips** go through the memories' host-side ``load`` port
  (the radiation/rowhammer analogue), which the bus reports to its
  write listeners like any store, so the fast path's decode cache and
  traces drop the flipped page — an injected flip is never hidden by
  a stale cache line;
* **MPU glitches** go through :class:`~repro.machine.snapshot.MpuState`
  capture/mutate/apply, the scan-chain path, which bumps the region
  file's generation and flushes the permission lookaside;
* **IRQ faults** wrap *instances*, leaving the classes untouched: the
  storm runs in device time (the bus's ``tick`` and the CPU's
  ``event_horizon``), drops wrap the interrupt controller (a glitching
  interrupt fabric);
* **blob corruption** mangles serialized snapshot bytes, modelling a
  torn write or bad sector under the fleet's provisioning path.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.errors import FaultError
from repro.machine.irq import Interrupt
from repro.machine.snapshot import MpuState
from repro.mpu.regions import unpack_attr

_MEMORIES = ("prom", "sram", "dram")

# The r/w/x bits of a region attribute word (repro.mpu.regions layout).
_PERM_BITS = {"r": 1 << 0, "w": 1 << 1, "x": 1 << 2}


def flip_memory_bits(
    platform,
    rng: random.Random,
    *,
    memory: str,
    flips: int = 1,
    lo: int = 0,
    hi: int | None = None,
) -> list[dict]:
    """Flip ``flips`` random bits in one memory of ``platform``.

    ``lo``/``hi`` bound the affected offset range (device-relative,
    ``hi`` exclusive; default the whole memory).  Uses the host-side
    ``load`` port, which works on PROM too and reaches the bus write
    listeners.  Returns one ``{"offset", "bit"}`` record per flip.
    """
    if memory not in _MEMORIES:
        raise FaultError(
            f"unknown memory {memory!r}; choose from {_MEMORIES}"
        )
    if flips < 1:
        raise FaultError(f"flips must be >= 1: {flips}")
    device = getattr(platform.soc, memory)
    hi = device.size if hi is None else hi
    if not 0 <= lo < hi <= device.size:
        raise FaultError(
            f"bad flip range [{lo:#x}, {hi:#x}) for {memory} "
            f"of {device.size:#x} bytes"
        )
    records = []
    for _ in range(flips):
        offset = rng.randrange(lo, hi)
        bit = rng.randrange(8)
        original = device.dump(offset, 1)[0]
        device.load(offset, bytes((original ^ (1 << bit),)))
        records.append({"offset": offset, "bit": bit})
    return records


def glitch_mpu_permissions(platform, rng: random.Random) -> dict:
    """Clear one random permission bit of one programmed MPU region.

    Routed through the snapshot scan chain (capture → mutate → apply),
    so the lookaside is flushed and the glitch takes effect on the
    very next check.  Only *clears* bits — a glitch that revokes a
    permission is always either harmless (the permission was unused)
    or loudly detected as an MPU fault; it can never silently widen
    access.  Returns the glitched region index and attribute words.
    """
    state = MpuState.capture(platform.mpu)
    candidates = [
        index for index, (_base, _end, attr) in enumerate(state.regions)
        if attr & 0x7
    ]
    if not candidates:
        raise FaultError("no programmed MPU region to glitch")
    index = candidates[rng.randrange(len(candidates))]
    base, end, attr = state.regions[index]
    set_bits = [
        name for name, bit in _PERM_BITS.items() if attr & bit
    ]
    victim = set_bits[rng.randrange(len(set_bits))]
    new_attr = attr & ~_PERM_BITS[victim]
    regions = list(state.regions)
    regions[index] = (base, end, new_attr)
    replace(state, regions=tuple(regions)).apply(platform.mpu)
    perm, _subjects = unpack_attr(attr)
    return {
        "region": index,
        "cleared": victim,
        "old_attr": attr,
        "new_attr": new_attr,
        "old_perm": perm.letters() if hasattr(perm, "letters") else str(perm),
    }


def inject_irq_storm(
    platform, rng: random.Random, *, mean_gap: int = 64
) -> dict:
    """Latch spurious (vectored) interrupt lines in simulated time.

    Arrivals come ``1 + rng.randrange(2 * mean_gap - 1)`` cycles apart
    and count down in device time, as the timer and watchdog do: the
    bus's ``tick`` and the CPU's ``event_horizon`` are wrapped on the
    *instances*, so a trace batch stops at the next arrival and every
    engine latches each line at the same cycle, after the devices' own
    events of that tick.  Lines are drawn only from those the exception
    engine has a handler for — a glitching fabric re-raising real
    lines, not inventing wiring.  The returned dict's ``"raised"``
    counts arrivals and keeps updating live.  A snapshot keeps the lines
    already latched but not the wrappers, so a clone starts storm-free;
    re-inject after cloning.
    """
    if mean_gap < 1:
        raise FaultError(f"mean_gap must be >= 1 cycle: {mean_gap}")
    soc = platform.soc
    lines = sorted(platform.engine.irq_vectors)
    state = {"kind": "irq_storm", "mean_gap": mean_gap, "raised": 0,
             "lines": lines}
    if not lines:
        return state
    device_tick, device_horizon = soc.bus.tick, soc.cpu.event_horizon
    countdown = 1 + rng.randrange(2 * mean_gap - 1)

    def stormy_tick(cycles: int) -> None:
        nonlocal countdown
        device_tick(cycles)
        while countdown <= cycles:
            cycles -= countdown
            countdown = 1 + rng.randrange(2 * mean_gap - 1)
            line = lines[rng.randrange(len(lines))]
            soc.irq.raise_line(Interrupt(line=line, source="fault:storm"))
            state["raised"] += 1
        countdown -= cycles

    def stormy_horizon() -> int:
        horizon = device_horizon()
        return countdown if horizon is None else min(horizon, countdown)

    soc.bus.tick, soc.cpu.event_horizon = stormy_tick, stormy_horizon
    return state


def inject_irq_drops(
    platform, rng: random.Random, *, rate: float = 0.5
) -> dict:
    """Swallow raised interrupt lines with probability ``rate``.

    Wraps ``raise_line`` on the instance: a dropped line simply never
    latches, modelling a flaky interrupt fabric.  NMIs are dropped
    too — the watchdog recovery tests check what that costs.  The
    returned dict's ``"dropped"``/``"delivered"`` counters update live.
    A snapshot does not keep the wrapper, so a clone drops nothing;
    re-inject after cloning.
    """
    if not 0.0 <= rate < 1.0:
        raise FaultError(f"rate must be in [0, 1): {rate}")
    irq = platform.soc.irq
    original = irq.raise_line
    state = {"kind": "irq_drop", "rate": rate, "dropped": 0,
             "delivered": 0}

    def lossy_raise(interrupt: Interrupt) -> None:
        if rng.random() < rate:
            state["dropped"] += 1
            return
        state["delivered"] += 1
        original(interrupt)

    irq.raise_line = lossy_raise
    return state


def corrupt_blob(
    blob: bytes,
    rng: random.Random,
    *,
    mode: str = "flip",
    flips: int = 4,
) -> bytes:
    """Corrupt a serialized snapshot blob.

    ``mode="truncate"`` cuts the blob at a random point (torn write);
    ``mode="flip"`` flips ``flips`` random bits in place (bad sector).
    Decoding the result must raise ``SnapcodecError`` or succeed —
    never crash with an untyped error; the campaign's codec scenario
    holds :func:`repro.machine.snapcodec.decode_snapshot` to that.
    """
    if not isinstance(blob, (bytes, bytearray)) or not blob:
        raise FaultError("need a non-empty blob to corrupt")
    if mode == "truncate":
        return bytes(blob[: rng.randrange(len(blob))])
    if mode == "flip":
        if flips < 1:
            raise FaultError(f"flips must be >= 1: {flips}")
        out = bytearray(blob)
        for _ in range(flips):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    raise FaultError(f"unknown corruption mode {mode!r}")
