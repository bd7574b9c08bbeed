"""Integration tests: the out-of-order pipeline end to end.

Every test runs a program to completion; the pipeline validates each
retired instruction against the golden ISS trace internally, so merely
finishing is a strong correctness statement.  The tests then check the
microarchitectural *events* the paper's mechanisms are about.
"""

import pytest

from repro import Assembler, Core, Interpreter
from repro.harness.configs import (
    NOT_ENF,
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from tests.conftest import assemble, counted_loop_program, store_load_program


def run(prog, config):
    return Core(prog, config).run()


class TestBasicExecution:
    def test_store_load_roundtrip(self, any_config):
        result = run(assemble(store_load_program), any_config)
        assert result.instructions == 5

    def test_counted_loop(self, any_config):
        result = run(assemble(counted_loop_program), any_config)
        assert result.ipc > 0.5

    def test_empty_program_halts(self, any_config):
        a = Assembler()
        a.halt()
        assert run(a.build(), any_config).instructions == 1

    def test_ipc_bounded_by_width(self):
        prog = assemble(counted_loop_program)
        result = run(prog, baseline_lsq_config())
        assert result.ipc <= 4.0

    def test_alu_widths_and_latencies(self, any_config):
        def build(a):
            a.li("r1", 7)
            a.li("r2", 3)
            a.mul("r3", "r1", "r2")
            a.div("r4", "r1", "r2")
            a.rem("r5", "r1", "r2")
            a.fadd("r6", "r1", "r2")
            a.fdiv("r7", "r1", "r2")
            a.halt()
        result = run(assemble(build), any_config)
        assert result.instructions == 8

    def test_all_memory_widths(self, any_config):
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0x1122334455667788)
            for st in ("sb", "sh", "sw", "sd"):
                getattr(a, st)("r2", "r1", 0x40)
            for ld in ("lb", "lbu", "lh", "lhu", "lw", "lwu", "ld"):
                getattr(a, ld)("r3", "r1", 0x40)
            a.halt()
        run(assemble(build), any_config)

    def test_deterministic_cycles(self, any_config):
        prog = assemble(counted_loop_program)
        first = run(prog, any_config)
        second = run(prog, any_config)
        assert first.cycles == second.cycles


class TestBranchRecovery:
    def test_unpredictable_branches_recover(self, any_config):
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0)       # i
            a.li("r3", 60)      # n
            a.li("r7", 0)
            a.label("loop")
            a.mul("r4", "r2", "r2")
            a.andi("r5", "r4", 4)
            a.beq("r5", "r0", "skip")
            a.sd("r2", "r1", 0)
            a.ld("r6", "r1", 0)
            a.add("r7", "r7", "r6")
            a.label("skip")
            a.addi("r2", "r2", 1)
            a.bne("r2", "r3", "loop")
            a.halt()
        result = run(assemble(build), any_config)
        assert result.counters.get("branch_mispredict_flushes") > 0

    def test_jal_jr_call_return(self, any_config):
        def build(a):
            a.li("r2", 0)
            a.li("r3", 20)
            a.label("loop")
            a.jal("r31", "inc")
            a.bne("r2", "r3", "loop")
            a.halt()
            a.label("inc")
            a.addi("r2", "r2", 1)
            a.jr("r31")
        run(assemble(build), any_config)

    def test_wrong_path_instructions_never_retire(self):
        """A wrong path that would corrupt state if retired."""
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 1)
            a.li("r3", 0xBAD)
            a.beq("r2", "r0", "poison")   # never taken, maybe predicted
            a.j("end")
            a.label("poison")
            a.sd("r3", "r1", 0)
            a.label("end")
            a.ld("r4", "r1", 0)
            a.halt()
        for config in (baseline_lsq_config(), baseline_sfc_mdt_config()):
            run(assemble(build), config)   # validation would catch it


class TestMemoryOrderingRecovery:
    @staticmethod
    def late_store_program(a):
        """Store data fed by a long chain: younger loads issue first."""
        a.li("r1", 0x1000)
        a.li("r2", 0)
        a.li("r3", 40)
        a.li("r7", 3)
        a.label("loop")
        a.mul("r4", "r2", "r7")
        a.mul("r4", "r4", "r7")
        a.sd("r4", "r1", 0)
        a.ld("r5", "r1", 0)
        a.add("r6", "r6", "r5")
        a.addi("r2", "r2", 1)
        a.bne("r2", "r3", "loop")
        a.halt()

    def test_true_violations_detected_and_recovered(self):
        prog = assemble(self.late_store_program)
        result = run(prog, baseline_sfc_mdt_config())
        # The first iterations violate; the predictor then serialises.
        assert result.counters.get("violation_flushes_true") >= 1

    def test_lsq_detects_violations_too(self):
        prog = assemble(self.late_store_program)
        result = run(prog, baseline_lsq_config())
        assert result.counters.get("lsq_true_violations") >= 1

    def test_predictor_quenches_violations(self):
        """ENF enforcement keeps the violation count far below the
        iteration count -- the store-set learning effect."""
        prog = assemble(self.late_store_program)
        result = run(prog, baseline_sfc_mdt_config())
        violations = result.counters.get("violation_flushes_true")
        assert violations <= 6

    def test_mdt_tag_check_penalty_applied(self):
        prog = assemble(self.late_store_program)
        result = run(prog, baseline_sfc_mdt_config())
        assert result.counters.get("partial_flushes") >= 1


class TestSfcCorruptionScenario:
    def test_paper_section23_example(self):
        """ST / LD / mispredicted BR / wrong-path ST, then a correct-path
        LD: the load must obtain store [1]'s value, not store [3]'s."""
        def build(a):
            a.li("r1", 0xB000)
            a.li("r2", 0xA1A1)
            a.li("r3", 0xB2B2)
            a.li("r4", 1)
            a.sd("r2", "r1", 0)          # store [1]
            a.ld("r5", "r1", 0)          # load [2]
            a.beq("r4", "r0", "wrong")   # never taken
            a.j("join")
            a.label("wrong")
            a.sd("r3", "r1", 0)          # store [3], wrong path only
            a.label("join")
            a.ld("r6", "r1", 0)          # load [4]
            a.halt()
        # Run under the SFC/MDT on both cores; retirement validation
        # guarantees r6 == 0xA1A1 architecturally.
        for config in (baseline_sfc_mdt_config(),
                       aggressive_sfc_mdt_config()):
            run(assemble(build), config)

    def test_corruption_replays_occur(self):
        """Mispredicted branches over dense store traffic force loads to
        replay on corruption marks."""
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0)
            a.li("r3", 200)
            a.li("r5", 88172645463325252)
            a.label("loop")
            a.div("r11", "r5", "r3")     # slow op delays retirement
            a.andi("r4", "r2", 0x78)
            a.add("r4", "r4", "r1")
            a.sd("r2", "r4", 0)
            # xorshift noise: unpredictable branch -> partial flushes
            a.slli("r6", "r5", 13)
            a.xor("r5", "r5", "r6")
            a.srli("r6", "r5", 7)
            a.xor("r5", "r5", "r6")
            a.andi("r6", "r5", 16)
            a.beq("r6", "r0", "skip")
            a.addi("r7", "r7", 1)
            a.label("skip")
            # Read the slot stored one iteration ago: its writer is
            # completed but (behind the slow divide) unretired, so after
            # a flush it reads corrupt.
            a.addi("r10", "r2", -1)
            a.andi("r10", "r10", 0x78)
            a.add("r10", "r10", "r1")
            a.ld("r8", "r10", 0)
            a.add("r9", "r9", "r8")
            a.addi("r2", "r2", 1)
            a.bne("r2", "r3", "loop")
            a.halt()
        result = run(assemble(build), baseline_sfc_mdt_config())
        assert result.counters.get("load_replays_sfc_corrupt") > 0


class TestStructuralConflicts:
    def test_sfc_conflicts_replay_and_recover(self):
        config = baseline_sfc_mdt_config(sfc_sets=1, sfc_assoc=1)
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0x2000)
            a.li("r3", 0x3000)
            for reg in ("r1", "r2", "r3"):
                a.sd("r9", reg, 0)
            for reg in ("r1", "r2", "r3"):
                a.ld("r10", reg, 0)
            a.halt()
        result = run(assemble(build), config)
        assert result.counters.get("store_replays_sfc_conflict") > 0

    def test_mdt_conflicts_replay_and_recover(self):
        config = baseline_sfc_mdt_config(mdt_sets=1, mdt_assoc=1)
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0x2000)
            a.li("r3", 0x3000)
            for reg in ("r1", "r2", "r3"):
                a.ld("r10", reg, 0)
            a.add("r4", "r10", "r10")
            a.halt()
        result = run(assemble(build), config)
        assert result.counters.get("load_replays_mdt_conflict") > 0

    def test_rob_head_bypass_guarantees_progress(self):
        """With a degenerate 1-entry SFC/MDT, the machine still finishes
        (Section 2.2's ROB-lockup avoidance)."""
        config = baseline_sfc_mdt_config(sfc_sets=1, sfc_assoc=1,
                                         mdt_sets=1, mdt_assoc=1)
        result = run(assemble(counted_loop_program), config)
        assert result.instructions > 0

    def test_store_fifo_full_stalls_dispatch(self):
        config = baseline_sfc_mdt_config()
        config.store_fifo_capacity = 2
        def build(a):
            a.li("r1", 0x1000)
            for i in range(12):
                a.sd("r1", "r1", 8 * i)
            a.halt()
        result = run(assemble(build), config)
        assert result.counters.get("dispatch_stalls_sq") > 0

    def test_small_lsq_stalls_dispatch(self):
        config = baseline_lsq_config(lq_size=2, sq_size=2)
        result = run(assemble(counted_loop_program), config)
        assert result.counters.get("dispatch_stalls_lq") > 0 or \
            result.counters.get("dispatch_stalls_sq") > 0


class TestForwardingBehaviour:
    def test_sfc_forwards_in_flight_values(self):
        result = run(assemble(counted_loop_program),
                     baseline_sfc_mdt_config())
        assert result.counters.get("sfc_forwards") > 0

    def test_lsq_forwards_in_flight_values(self):
        result = run(assemble(counted_loop_program), baseline_lsq_config())
        assert result.counters.get("lsq_full_forwards") > 0

    def test_subword_partial_match_resolves(self):
        """A byte store followed by a word load of the same word."""
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0xAB)
            a.sb("r2", "r1", 0)
            a.ld("r3", "r1", 0)
            a.halt()
        for config in (baseline_sfc_mdt_config(), baseline_lsq_config()):
            run(assemble(build), config)

    def test_sfc_partial_replay_counted(self):
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0xAB)
            # Pad so the store completes before its retire while the
            # load is in flight.
            a.sb("r2", "r1", 0)
            a.mul("r4", "r2", "r2")
            a.mul("r4", "r4", "r4")
            a.ld("r3", "r1", 0)
            a.halt()
        result = run(assemble(build), baseline_sfc_mdt_config())
        assert result.counters.get("load_replays_sfc_partial") >= 1


class TestEnforcementModes:
    def test_not_enf_ignores_output_violations(self):
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0)
            a.li("r3", 60)
            a.li("r7", 3)
            a.label("loop")
            a.mul("r4", "r2", "r7")      # slow data
            a.sd("r4", "r1", 0)          # slow store
            a.sd("r2", "r1", 0)          # fast store, same address
            a.addi("r2", "r2", 1)
            a.bne("r2", "r3", "loop")
            a.halt()
        prog = assemble(build)
        enf = run(prog, baseline_sfc_mdt_config())
        not_enf = run(prog, baseline_sfc_mdt_config(mode=NOT_ENF,
                                                    name="notenf"))
        assert not_enf.counters.get("violation_flushes_output") >= \
            enf.counters.get("violation_flushes_output")

    def test_aggressive_configs_run(self):
        prog = assemble(counted_loop_program)
        for config in (aggressive_lsq_config(),
                       aggressive_sfc_mdt_config()):
            result = run(prog, config)
            assert result.instructions > 0


class TestSimulationGuards:
    def test_max_cycles_guard(self):
        from repro.pipeline import SimulationError
        config = baseline_lsq_config()
        config.max_cycles = 3
        with pytest.raises(SimulationError):
            run(assemble(counted_loop_program), config)

    def test_validation_catches_wrong_trace(self):
        """An oracle running another program must abort the
        simulation."""
        from repro.pipeline import SimulationError
        prog = assemble(store_load_program)
        other = Assembler()
        other.li("r1", 1)
        other.halt()
        with pytest.raises(SimulationError):
            Core(prog, baseline_lsq_config(),
                 oracle=Interpreter(other.build())).run()

    def test_result_repr_and_rates(self):
        result = run(assemble(counted_loop_program), baseline_lsq_config())
        assert "IPC" in repr(result)
        assert 0 <= result.rate("l1d_misses", "l1d_accesses") <= 1
