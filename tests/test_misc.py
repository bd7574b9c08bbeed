"""Tests for the small supporting modules: counters, violations, program
padding, and assorted pipeline edge cases."""

from repro import Core
from repro.core import ANTI_DEP, TRUE_DEP, Violation
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.isa import INSTRUCTION_BYTES, Program
from repro.isa import instructions as ops
from repro.isa.instructions import Instruction
from repro.isa.program import WRONG_PATH_PAD
from repro.stats import Counters
from tests.conftest import assemble


class TestCounters:
    def test_missing_counter_reads_zero(self):
        c = Counters()
        assert c.get("nope") == 0.0
        assert c["nope"] == 0.0
        assert "nope" not in c

    def test_incr_and_set(self):
        c = Counters()
        c.incr("a")
        c.incr("a", 2.5)
        c.set("b", 7)
        assert c.get("a") == 3.5
        assert c.get("b") == 7

    def test_rate_zero_denominator(self):
        c = Counters()
        c.incr("num", 5)
        assert c.rate("num", "denom") == 0.0

    def test_rate(self):
        c = Counters()
        c.incr("num", 5)
        c.incr("denom", 10)
        assert c.rate("num", "denom") == 0.5

    def test_merge(self):
        a = Counters()
        b = Counters()
        a.incr("x", 1)
        b.incr("x", 2)
        b.incr("y", 3)
        a.merge(b)
        assert a.get("x") == 3 and a.get("y") == 3

    def test_items_sorted(self):
        c = Counters()
        c.incr("zz")
        c.incr("aa")
        assert [k for k, _ in c.items()] == ["aa", "zz"]

    def test_as_dict_and_repr(self):
        c = Counters()
        c.incr("k", 2)
        assert c.as_dict() == {"k": 2}
        assert "k=2" in repr(c)


class TestViolation:
    def test_fields(self):
        v = Violation(TRUE_DEP, flush_after_seq=5, producer_pc=0x10,
                      consumer_pc=0x20)
        assert v.kind == TRUE_DEP
        assert v.flush_after_seq == 5
        assert "true" in repr(v)

    def test_repr_without_pcs(self):
        v = Violation(ANTI_DEP, flush_after_seq=3, producer_pc=None,
                      consumer_pc=None)
        assert "anti" in repr(v)


class TestProgramPadding:
    def test_out_of_range_fetch_pads_with_nops(self):
        program = Program([Instruction(ops.HALT)])
        pad = program.fetch(INSTRUCTION_BYTES)
        assert pad.op == ops.NOP

    def test_far_out_of_range_fetch_halts(self):
        program = Program([Instruction(ops.HALT)])
        far = (1 + WRONG_PATH_PAD + 1) * INSTRUCTION_BYTES
        assert program.fetch(far).op == ops.HALT

    def test_unaligned_fetch_is_nop(self):
        program = Program([Instruction(ops.HALT)])
        assert program.fetch(2).op == ops.NOP

    def test_pc_of(self):
        program = Program([Instruction(ops.NOP), Instruction(ops.HALT)])
        assert program.pc_of(1) == 4

    def test_disassemble(self):
        program = Program([Instruction(ops.ADD, rd=1, rs1=2, rs2=3),
                           Instruction(ops.HALT)])
        text = program.disassemble()
        assert "add" in text and "halt" in text and "0x0004" in text


class TestPipelineEdgeCases:
    def test_jal_discarding_link_register(self, any_config):
        def build(a):
            a.jal("r0", "next")      # call that discards the link
            a.label("next")
            a.halt()
        result = Core(assemble(build), any_config).run()
        assert result.instructions == 2

    def test_division_heavy_program(self, any_config):
        def build(a):
            a.li("r1", 1000)
            a.li("r2", 7)
            a.div("r3", "r1", "r2")
            a.rem("r4", "r1", "r2")
            a.div("r5", "r1", "r0")   # division by zero
            a.rem("r6", "r1", "r0")
            a.halt()
        Core(assemble(build), any_config).run()

    def test_store_to_load_different_widths(self):
        """Narrow store under a wide in-flight store (partial coverage)."""
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0x1111111111111111)
            a.li("r3", 0xAB)
            a.sd("r2", "r1", 0)
            a.sb("r3", "r1", 2)
            a.ld("r4", "r1", 0)
            a.halt()
        for config in (baseline_lsq_config(), baseline_sfc_mdt_config()):
            Core(assemble(build), config).run()

    def test_back_to_back_branches(self, any_config):
        def build(a):
            a.li("r1", 1)
            a.beq("r1", "r0", "a")
            a.bne("r1", "r0", "b")
            a.label("a")
            a.li("r2", 9)
            a.label("b")
            a.halt()
        Core(assemble(build), any_config).run()

    def test_self_modifying_address_patterns(self, any_config):
        """Loads whose base registers come from other loads."""
        def build(a):
            a.data_words(0x1000, [0x2000])
            a.data_words(0x2000, [77])
            a.li("r1", 0x1000)
            a.ld("r2", "r1", 0)     # pointer load
            a.ld("r3", "r2", 0)     # dependent load
            a.halt()
        Core(assemble(build), any_config).run()

    def test_long_quiet_stretch_uses_clock_skip(self):
        """A cold L2 miss leaves the machine idle; the clock must skip."""
        def build(a):
            a.li("r1", 0x9000)
            a.ld("r2", "r1", 0)     # cold: 111 cycles
            a.add("r3", "r2", "r2")
            a.halt()
        result = Core(assemble(build), baseline_lsq_config()).run()
        assert result.counters.get("idle_cycles_skipped") > 50

    def test_counters_exposed_on_result(self):
        result = Core(assemble(lambda a: a.halt()),
                      baseline_lsq_config()).run()
        assert result.counters.get("retired_instructions") == 1
        assert result.counters.get("cycles") == result.cycles
