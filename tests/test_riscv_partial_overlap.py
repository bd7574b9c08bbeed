"""Partial-overlap store-to-load forwarding through the RV32 frontend.

Real-machine-code mirrors of the SFC unit expectations in
``tests/test_sfc.py``: a narrow load fully contained in a recent wider
store forwards from the SFC (``test_exact_match_forwards`` /
sub-word containment), while a wider load over a narrower store is a
*partial* match -- never silently forwarded
(``test_partial_match_on_wider_load``); the load replays or takes the
slow path and still retires the architecturally correct bytes.

Every (store width, load width, byte offset) combination runs through
decode -> translate -> pipeline, cross-checked against the interpreter
oracle under both the SFC/MDT design and the associative-LSQ baseline.
"""

from __future__ import annotations

import pytest

from repro.harness.configs import (
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.isa.interp import Interpreter
from repro.isa.riscv import RVAssembler
from repro.pipeline import Core

BASE = 0x1000
PATTERN = 0xDEADBEEF  # bytes EF BE AD DE, little-endian
MASK32 = (1 << 32) - 1

#: Hand-computed RV32 results of each narrow load over the word
#: pattern 0xDEADBEEF stored at BASE (cross-check for the oracle).
NARROW_LOAD_EXPECTED = {
    ("lb", 0): 0xFFFFFFEF, ("lb", 1): 0xFFFFFFBE,
    ("lb", 2): 0xFFFFFFAD, ("lb", 3): 0xFFFFFFDE,
    ("lbu", 0): 0xEF, ("lbu", 1): 0xBE, ("lbu", 2): 0xAD,
    ("lbu", 3): 0xDE,
    ("lh", 0): 0xFFFFBEEF, ("lh", 2): 0xFFFFDEAD,
    ("lhu", 0): 0xBEEF, ("lhu", 2): 0xDEAD,
}


def run_both(asm):
    """Interpret and pipeline-simulate; returns (oracle, results)."""
    program = asm.build(name="overlap-test")
    interp = Interpreter(program)
    interp.run(10_000)
    outcomes = {}
    for config in (baseline_sfc_mdt_config(), baseline_lsq_config()):
        core = Core(program, config)
        result = core.run()
        assert core.memory.digest() == interp.memory.digest()
        assert core.architectural_registers() == list(interp.regs)
        outcomes[config.name] = result
    return interp, outcomes


class TestNarrowLoadUnderWideStore:
    """sw then lb/lbu/lh/lhu at every byte offset: contained loads
    forward the correct slice of the store's bytes."""

    @pytest.mark.parametrize("load_op,offset",
                             sorted(NARROW_LOAD_EXPECTED))
    def test_all_offsets(self, load_op, offset):
        asm = RVAssembler()
        asm.li32(1, BASE)
        asm.li32(2, PATTERN)
        asm.emit("sw", rs1=1, rs2=2, imm=0)
        asm.emit(load_op, rd=3, rs1=1, imm=offset)
        asm.emit("ecall")
        interp, _ = run_both(asm)
        assert interp.regs[3] & MASK32 == \
            NARROW_LOAD_EXPECTED[(load_op, offset)]

    def test_contained_loads_do_forward_from_the_sfc(self):
        # Aggregate over all combinations: the SFC must satisfy at
        # least some of these loads by forwarding (the sfc unit tests
        # pin the per-case classification; this pins the end-to-end
        # integration through the frontend).
        asm = RVAssembler()
        asm.li32(1, BASE)
        asm.li32(2, PATTERN)
        rd = 3
        for load_op, offset in sorted(NARROW_LOAD_EXPECTED):
            asm.emit("sw", rs1=1, rs2=2, imm=0)
            asm.emit(load_op, rd=rd, rs1=1, imm=offset)
            rd = 3 + (rd - 2) % 10
        asm.emit("ecall")
        _, outcomes = run_both(asm)
        sfc = outcomes[baseline_sfc_mdt_config().name]
        assert sfc.counters.get("sfc_forwards") > 0


class TestWideLoadOverNarrowStore:
    """sb/sh then lw: a partial match -- the load must not forward a
    stale word, and must retire the byte-merged value."""

    @pytest.mark.parametrize("store_op,offset", [
        ("sb", 0), ("sb", 1), ("sb", 2), ("sb", 3),
        ("sh", 0), ("sh", 2),
    ])
    def test_all_offsets(self, store_op, offset):
        size = 1 if store_op == "sb" else 2
        poke = 0xA5 if size == 1 else 0xA55A
        shift = 8 * offset
        expected = (PATTERN & ~(((1 << (8 * size)) - 1) << shift)
                    | (poke << shift)) & MASK32
        asm = RVAssembler()
        asm.li32(1, BASE)
        asm.li32(2, PATTERN)
        asm.li32(3, poke)
        asm.emit("sw", rs1=1, rs2=2, imm=0)     # word underneath
        asm.emit(store_op, rs1=1, rs2=3, imm=offset)
        asm.emit("lw", rd=4, rs1=1, imm=0)      # wider than last store
        asm.emit("ecall")
        interp, _ = run_both(asm)
        assert interp.regs[4] & MASK32 == expected

    def test_partial_matches_are_detected_not_forwarded(self):
        asm = RVAssembler()
        asm.li32(1, BASE)
        asm.li32(2, PATTERN)
        asm.li32(3, 0xA5)
        for offset in range(4):
            asm.emit("sw", rs1=1, rs2=2, imm=0)
            asm.emit("sb", rs1=1, rs2=3, imm=offset)
            asm.emit("lw", rd=4 + offset, rs1=1, imm=0)
        asm.emit("ecall")
        _, outcomes = run_both(asm)
        sfc = outcomes[baseline_sfc_mdt_config().name]
        partials = (sfc.counters.get("sfc_partial_matches")
                    + sfc.counters.get("load_replays_sfc_partial"))
        assert partials > 0, (
            "a wider load over a narrower store must classify as a "
            "partial match (cf. tests/test_sfc.py::"
            "test_partial_match_on_wider_load)")


class TestMixedWidthChains:
    def test_store_load_store_load_chain(self):
        """Alternating widths on one word: every read sees the merge
        of everything before it (regression for byte-merge ordering)."""
        asm = RVAssembler()
        asm.li32(1, BASE)
        asm.li32(2, 0x11223344)
        asm.emit("sw", rs1=1, rs2=2, imm=0)
        asm.li32(3, 0x99)
        asm.emit("sb", rs1=1, rs2=3, imm=1)     # -> 0x11229944
        asm.emit("lhu", rd=4, rs1=1, imm=0)     # 0x9944
        asm.li32(5, 0x7777)
        asm.emit("sh", rs1=1, rs2=5, imm=2)     # -> 0x77779944
        asm.emit("lw", rd=6, rs1=1, imm=0)
        asm.emit("lb", rd=7, rs1=1, imm=3)      # 0x77
        asm.emit("ecall")
        interp, _ = run_both(asm)
        assert interp.regs[4] & MASK32 == 0x9944
        assert interp.regs[6] & MASK32 == 0x77779944
        assert interp.regs[7] & MASK32 == 0x77
