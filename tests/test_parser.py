"""Tests for the text-format assembly parser."""

import pytest

from repro.isa import Interpreter, run_program
from repro.isa.parser import AsmSyntaxError, parse_asm


def run_regs(text):
    interp = Interpreter(parse_asm(text))
    interp.run()
    return interp.regs


class TestBasics:
    def test_minimal_program(self):
        program = parse_asm("halt")
        assert len(program) == 1

    def test_alu_and_immediates(self):
        regs = run_regs("""
            li   r1, 6
            li   r2, 7
            mul  r3, r1, r2
            addi r4, r3, -2
            and  r5, r3, r4
            halt
        """)
        assert regs[3] == 42 and regs[4] == 40 and regs[5] == 40

    def test_memory_operands(self):
        regs = run_regs("""
            li r1, 0x1000
            li r2, 0xABCD
            sd r2, 8(r1)
            ld r3, 8(r1)
            lhu r4, 8(r1)
            halt
        """)
        assert regs[3] == 0xABCD and regs[4] == 0xABCD

    def test_negative_offset(self):
        regs = run_regs("""
            li r1, 0x1010
            li r2, 5
            sd r2, -16(r1)
            ld r3, -16(r1)
            halt
        """)
        assert regs[3] == 5

    def test_loop_with_labels(self):
        regs = run_regs("""
            li r1, 0
            li r2, 10
            li r3, 0
        loop:
            add  r3, r3, r1
            addi r1, r1, 1
            bne  r1, r2, loop
            halt
        """)
        assert regs[3] == 45

    def test_label_on_same_line(self):
        regs = run_regs("""
            li r1, 1
            j end
            li r1, 99
        end: halt
        """)
        assert regs[1] == 1

    def test_comments_ignored(self):
        regs = run_regs("""
            # full-line comment
            li r1, 3      # trailing comment
            li r2, 4      ; alternative comment marker
            add r3, r1, r2
            halt
        """)
        assert regs[3] == 7

    def test_call_and_return(self):
        regs = run_regs("""
            jal r31, fn
            li r2, 7
            halt
        fn:
            li r1, 3
            jr r31
        """)
        assert regs[1] == 3 and regs[2] == 7

    def test_numeric_branch_target(self):
        program = parse_asm("""
            beq r0, r0, 0x8
            halt
            halt
        """)
        assert program.instructions[0].imm == 0x8


class TestDataDirectives:
    def test_data_words(self):
        regs = run_regs("""
            .data 0x2000 words 11 22 33
            li r1, 0x2000
            ld r2, 8(r1)
            halt
        """)
        assert regs[2] == 22

    def test_data_bytes(self):
        regs = run_regs("""
            .data 0x2000 bytes 0xAA 0xBB
            li r1, 0x2000
            lbu r2, 1(r1)
            halt
        """)
        assert regs[2] == 0xBB


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmSyntaxError, match="unknown mnemonic"):
            parse_asm("frobnicate r1, r2")

    def test_wrong_operand_count(self):
        with pytest.raises(AsmSyntaxError, match="expects 3 operands"):
            parse_asm("add r1, r2")

    def test_bad_memory_operand(self):
        with pytest.raises(AsmSyntaxError, match="bad memory operand"):
            parse_asm("ld r1, r2")

    def test_bad_integer(self):
        with pytest.raises(AsmSyntaxError, match="bad integer"):
            parse_asm("li r1, zork")

    def test_bad_data_directive(self):
        with pytest.raises(AsmSyntaxError, match="expected"):
            parse_asm(".data 0x1000 frob 1 2")

    def test_error_carries_line_number(self):
        with pytest.raises(AsmSyntaxError) as exc:
            parse_asm("li r1, 1\nbogus r2\nhalt")
        assert exc.value.line_number == 2

    def test_bad_register_name(self):
        with pytest.raises(AsmSyntaxError):
            parse_asm("add x1, r2, r3")


class TestRoundTrip:
    def test_parsed_program_runs_on_pipeline(self):
        from repro import Core
        from repro.harness import baseline_sfc_mdt_config
        program = parse_asm("""
            li r1, 0x1000
            li r2, 0
            li r3, 30
        loop:
            slli r4, r2, 3
            add  r4, r4, r1
            sd   r2, 0(r4)
            ld   r5, 0(r4)
            add  r6, r6, r5
            addi r2, r2, 1
            bne  r2, r3, loop
            halt
        """)
        trace = run_program(program)
        result = Core(program, baseline_sfc_mdt_config()).run()
        assert result.instructions == len(trace)
