"""Tests for the value-based retirement-replay subsystem (paper §4)."""

from repro import Core
from repro.core import LoadReplaySubsystem, LSQConfig
from repro.harness import aggressive_load_replay_config
from repro.harness.configs import SUBSYSTEM_LOAD_REPLAY
from repro.memory import MainMemory, paper_hierarchy
from repro.stats import Counters
from repro.workloads import random_program
from tests.conftest import assemble, counted_loop_program


def make_subsystem(lq=8, sq=8):
    memory = MainMemory()
    return LoadReplaySubsystem(LSQConfig(lq, sq), memory,
                               paper_hierarchy(), Counters()), memory


def baseline_load_replay_config():
    config = aggressive_load_replay_config()
    config.width = 4
    config.rob_size = config.sched_size = 128
    config.num_fus = 4
    config.fetch_branches_per_cycle = 1
    config.name = "baseline-load-replay"
    return config


class TestUnit:
    def test_store_execute_never_flags(self):
        sub, _ = make_subsystem()
        sub.dispatch_store(1, 0x10)
        sub.dispatch_load(2, 0x14)
        sub.execute_load(2, 0x14, 0x100, 8, watermark=0)   # stale read
        outcome = sub.execute_store(1, 0x10, 0x100, 8, 42, watermark=0)
        assert not outcome.violations      # detection deferred to retire

    def test_clean_load_retires_without_correction(self):
        sub, memory = make_subsystem()
        memory.write_int(0x100, 8, 7)
        sub.dispatch_load(1, 0x14)
        sub.execute_load(1, 0x14, 0x100, 8, watermark=0)
        corrected, violations = sub.retire_load(1, 0x100, 8)
        assert corrected is None and not violations

    def test_stale_load_corrected_at_retire(self):
        sub, memory = make_subsystem()
        sub.dispatch_store(1, 0x10)
        sub.dispatch_load(2, 0x14)
        sub.execute_load(2, 0x14, 0x100, 8, watermark=0)   # reads 0
        sub.execute_store(1, 0x10, 0x100, 8, 42, watermark=0)
        # Store retires first (in order), committing to memory.
        addr, size, data, _ = sub.retire_store(1, 0x100, 8)
        memory.write_int(addr, size, data)
        corrected, violations = sub.retire_load(2, 0x100, 8)
        assert corrected == 42
        assert violations and violations[0].flush_after_seq == 2

    def test_every_load_reexecutes(self):
        sub, memory = make_subsystem()
        for seq in (1, 2, 3):
            sub.dispatch_load(seq, 0x14)
            sub.execute_load(seq, 0x14, 0x100 + 8 * seq, 8, watermark=0)
            sub.retire_load(seq, 0x100 + 8 * seq, 8)
        assert sub.counters.get("lsq_retire_replays") == 3

    def test_forwarding_still_works_at_execute(self):
        sub, _ = make_subsystem()
        sub.dispatch_store(1, 0x10)
        sub.dispatch_load(2, 0x14)
        sub.execute_store(1, 0x10, 0x100, 8, 9, watermark=0)
        outcome = sub.execute_load(2, 0x14, 0x100, 8, watermark=0)
        assert outcome.value == 9 and outcome.latency == 1


class TestPipeline:
    def test_config_constructs(self):
        config = aggressive_load_replay_config()
        assert config.subsystem == SUBSYSTEM_LOAD_REPLAY
        assert (config.lsq.lq_size, config.lsq.sq_size) == (120, 80)

    def test_counted_loop_runs_exactly(self):
        result = Core(assemble(counted_loop_program),
                      baseline_load_replay_config()).run()
        assert result.instructions > 0

    def test_random_programs_retire_exactly(self):
        for seed in (5, 55, 555):
            prog = random_program(seed, max_blocks=15)
            Core(prog, aggressive_load_replay_config(),
                 max_instructions=500_000).run()

    def test_violation_detected_at_retirement(self):
        """A late store is only caught when the stale load retires."""
        def build(a):
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
        result = Core(assemble(build),
                      baseline_load_replay_config()).run()
        assert result.counters.get("retire_replay_violations") >= 1

    def test_reexecution_traffic_counted(self):
        result = Core(assemble(counted_loop_program),
                      baseline_load_replay_config()).run()
        assert result.counters.get("lsq_retire_replays") == \
            result.counters.get("retired_loads")
