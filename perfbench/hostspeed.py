"""How fast the host runs Python right now, to take it out of the times.

On a shared host the same pass can take a fifth more processor time in
one minute than in the next: other tenants' work on the same physical
cores and caches slows every instruction, and no per-process clock
leaves that out.  So the benchmark times a fixed probe -- a tiny
register-machine interpreter written here, sharing no code with the
simulator -- just before every pass, and scales the passes' processor
time by how much slower than on the reference host the probe ran.  A
change to the simulator cannot move the probe.

    python3 perfbench/hostspeed.py

prints the median of 20 :func:`probe_s` readings on this host, the
figure :data:`REFERENCE_PROBE_S` was set from.
"""

from __future__ import annotations

import gc
import statistics
import time

#: What :func:`probe_s` reads on the reference host (2-core AMD EPYC,
#: Python 3.11, otherwise idle).  Only ratios of scaled times mean
#: anything, so this merely keeps them near seconds on that host.
REFERENCE_PROBE_S = 0.0196

#: Probes per measurement; :func:`probe_s` is the fastest.
PROBES = 10

#: Instructions one probe interprets.
STEPS = 200_000


class _Op:
    __slots__ = ("kind", "dst", "src", "imm")

    def __init__(self, kind: int, dst: int, src: int, imm: int):
        self.kind = kind
        self.dst = dst
        self.src = src
        self.imm = imm


class _Machine:
    """Registers, a sparse memory and a loop of 64 fixed instructions:
    add, store, load, shift-xor and a conditional skip."""

    def __init__(self):
        self.regs = [0] * 16
        self.mem = {}
        self.program = [_Op(i % 5, i % 7 + 1, (i * 3) % 11, i * 13 % 17)
                        for i in range(64)]

    def step(self, pc: int, count: int) -> int:
        op = self.program[pc]
        regs = self.regs
        kind = op.kind
        if kind == 0:
            regs[op.dst] = (regs[op.src] + op.imm + count) & 0xFFFF
        elif kind == 1:
            self.mem[(regs[op.dst] + op.imm) & 0x3FF] = regs[op.src]
        elif kind == 2:
            regs[op.dst] = self.mem.get((regs[op.src] + op.imm) & 0x3FF, 0)
        elif kind == 3:
            regs[op.dst] ^= regs[op.src] >> 1
        elif regs[op.src] & 1:
            return (pc + 2) & 63
        return (pc + 1) & 63


def probe() -> float:
    """Processor seconds to interpret :data:`STEPS` instructions."""
    machine = _Machine()
    started = time.process_time()
    pc = 0
    for count in range(STEPS):
        pc = machine.step(pc, count)
    return time.process_time() - started


def probe_s() -> float:
    """The fastest of :data:`PROBES` probes, with the garbage collector
    held off: a collection of a large heap would be timed with the
    probe.  The fastest, because right after a pass that wrote files the
    host slows the processor for a few tenths of a second, which the
    pass itself hardly sees."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(probe() for _ in range(PROBES))
    finally:
        if enabled:
            gc.enable()


def scale(probe: float) -> float:
    """Factor from processor seconds measured when :func:`probe_s` read
    ``probe`` to seconds at the reference host's speed."""
    return REFERENCE_PROBE_S / probe


if __name__ == "__main__":
    print(f"{statistics.median(probe_s() for _ in range(20)):.6f}")
