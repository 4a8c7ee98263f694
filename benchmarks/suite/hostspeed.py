"""How fast the host runs Python, sampled while the program runs.

On a shared virtual machine a vCPU's speed changes by tens of percent
within seconds and by up to half over minutes.  CPU time slows with wall
time, so neither clock can tell a slower program from a slower host.  A
measured process therefore starts a :class:`Sampler`: every
:data:`PERIOD_S` a timer signal interrupts the program, and the handler
times a fixed pure-Python reference snippet in thread CPU time.  The
snippet never changes and never touches the program.

A window's *host factor* is the mean snippet time inside it over
:data:`REFERENCE_S`.  Host times divided by it are *reference
seconds*: what the window would have taken on a host where the snippet
takes exactly :data:`REFERENCE_S`.  Because the samples interleave
with the program on the same thread, they see the same host as the
program does, fast swings included.  Thread CPU rather than wall time
is sampled so that the program's own threads and worker processes,
which can hold the interpreter lock or the vCPU for a moment, do not
read as a slow host.

The snippet mixes what the program spends its time on: 32-bit
add-rotate-xor rounds over a list (the sponge), dispatch through a dict
of small functions over a bytearray (the instruction engine), and dict
and bytes churn (the fleet bookkeeping).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: The snippet's thread CPU time on the reference host, a 2-vCPU x86
#: virtual machine with Python 3.11, so host factors read about 1 there.
REFERENCE_S = 0.001
#: Wall time between samples.  A sample costs about REFERENCE_S, 2% of
#: the measured process's CPU, which is taken out of its CPU time.
PERIOD_S = 0.05

_MASK = 0xFFFFFFFF


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK


def _mix(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 12)


def _load(memory: bytearray, pc: int, acc: int) -> int:
    return (acc + int.from_bytes(memory[pc:pc + 4], "little")) & _MASK


def _store(memory: bytearray, pc: int, acc: int) -> int:
    memory[pc:pc + 4] = acc.to_bytes(4, "little")
    return acc


def _shift(memory: bytearray, pc: int, acc: int) -> int:
    return _rotl(acc, 7) ^ memory[pc]


_OPS = {0: _load, 1: _store, 2: _shift, 3: _load}


def snippet() -> int:
    """The reference work: about 1 ms of CPU on the reference host."""
    state = list(range(16))
    for _ in range(70):
        for column in range(4):
            _mix(state, column, column + 4, column + 8, column + 12)
        _mix(state, 0, 5, 10, 15)
        _mix(state, 3, 4, 9, 14)
    memory = bytearray(range(256)) * 4
    acc = 1
    for pc in range(0, 4 * 900, 4):
        pc &= 1019
        acc = _OPS[memory[pc] & 3](memory, pc, acc)
    table: dict[bytes, int] = {}
    for index in range(650):
        key = (index * 2654435761 & _MASK).to_bytes(4, "little")
        table[key[:2]] = table.get(key[:2], 0) + len(key)
    return acc ^ state[0] ^ len(table)


class Sampler:
    """Times :func:`snippet` from a ``SIGALRM`` handler every
    :data:`PERIOD_S` until :meth:`stop`.

    Interval timers are not inherited across ``fork``, so the program's
    worker processes are never sampled.
    """

    def __init__(self) -> None:
        #: ``(time.monotonic() at the end, thread CPU seconds)`` each.
        self.samples: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, _signum, _frame) -> None:
        # A collection here would walk the program's heap and time it.
        collecting = gc.isenabled()
        gc.disable()
        began = time.thread_time()
        snippet()
        cpu = time.thread_time() - began
        if collecting:
            gc.enable()
        self.samples.append((time.monotonic(), cpu))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, start: float, end: float) -> list[float]:
        return [cpu for at, cpu in self.samples if start <= at <= end]

    def factor(self, start: float, end: float) -> float:
        """The host factor over ``[start, end]`` in ``time.monotonic()``,
        or over every sample if none fell inside, or 1 if none was
        taken at all.

        It is the mean, not the median: the program pays for every
        short stall of the host, and samples spread evenly over the
        window meet those stalls as often as the program does.
        """
        inside = (self._inside(start, end)
                  or [cpu for _, cpu in self.samples] or [REFERENCE_S])
        return statistics.fmean(inside) / REFERENCE_S

    def cpu_s(self, start: float, end: float) -> float:
        """CPU the samples inside ``[start, end]`` took from the program."""
        return sum(self._inside(start, end))
