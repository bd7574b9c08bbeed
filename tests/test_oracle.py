"""Tests for the lockstep golden oracle.

Every detailed core runs its own :class:`~repro.isa.interp.Interpreter`
just ahead of right-path fetch and keeps only a bounded window of its
retire records, so oracle memory must not grow with run length.  Cells
ship program + config to pool workers instead of a pickled trace, so a
program that does not halt fails only its own cells, and a program the
parent already fast-forwarded must still pickle.
"""

from __future__ import annotations

import pickle

import pytest

from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import ExperimentRunner
from repro.isa import instructions as ops
from repro.isa.interp import ExecutionLimitExceeded, Interpreter, RetireRecord
from repro.pipeline.core import ORACLE_CHUNK, ORACLE_TRIM, Core
from repro.workloads import random_program, suites
from tests.conftest import assemble, counted_loop_program


def _loop_length(n: int) -> int:
    """Instructions ``counted_loop_program(n)`` retires: four set-up
    instructions, seven per iteration, and the HALT."""
    return 4 + 7 * n + 1


def _step_tuples(program):
    interp = Interpreter(program)
    records = []
    while True:
        record = interp.step()
        if record is None:
            return records
        records.append(tuple(getattr(record, field)
                             for field in RetireRecord.__slots__))


class TestRecordsEmitter:
    @pytest.mark.parametrize("program", [
        suites.build("gzip", 1_500), suites.build("mcf", 1_500),
        suites.build("equake", 1_500), random_program(11),
        random_program(12)], ids=["gzip", "mcf", "equake", "rand11",
                                  "rand12"])
    def test_records_match_step_field_for_field(self, program):
        interp = Interpreter(program)
        records = []
        while interp.records(37, records):
            pass
        assert interp.halted
        assert records == _step_tuples(program)

    def test_records_stop_at_halt_and_count(self):
        program = assemble(counted_loop_program)
        interp = Interpreter(program)
        out = []
        total = _loop_length(50)
        assert interp.records(total - 1, out) == total - 1
        assert not interp.halted
        assert interp.records(10, out) == 1
        assert interp.halted and len(out) == total
        assert interp.records(10, out) == 0
        last = RetireRecord(*out[-1])
        assert last.op == ops.HALT and last.next_pc == last.pc

    def test_run_is_the_records_stream(self):
        program = random_program(5)
        trace = Interpreter(program).run(500_000)
        assert [tuple(getattr(r, f) for f in RetireRecord.__slots__)
                for r in trace] == _step_tuples(program)


class TestLockstepWindow:
    @staticmethod
    def _window_high_water(n: int) -> int:
        core = Core(assemble(lambda a: counted_loop_program(a, n)),
                    baseline_sfc_mdt_config())
        fill = core._fill_window
        high = [0]

        def tracked(trace_index):
            offset = fill(trace_index)
            high[0] = max(high[0], len(core._window))
            return offset

        core._fill_window = tracked
        result = core.run()
        assert result.instructions == _loop_length(n)
        return high[0]

    def test_high_water_independent_of_run_length(self):
        """The oracle window of a 20k- and a 200k-instruction run peaks
        at the same size, within ROB + one fill chunk + the trim
        threshold."""
        short = self._window_high_water(2_857)    # ~20k instructions
        long = self._window_high_water(28_571)    # ~200k instructions
        bound = baseline_sfc_mdt_config().rob_size + ORACLE_CHUNK + \
            ORACLE_TRIM
        assert short == long
        assert long <= bound

    def test_budget_exhausted_raises_execution_limit(self):
        program = assemble(counted_loop_program)
        total = _loop_length(50)
        result = Core(program, baseline_lsq_config(),
                      max_instructions=total).run()
        assert result.instructions == total
        with pytest.raises(ExecutionLimitExceeded):
            Core(program, baseline_lsq_config(),
                 max_instructions=total - 1).run()


class TestNonHaltingBenchmark:
    """gap halts at 1,995 instructions at scale 2000 and gzip needs
    2,619: with a 2,000-instruction oracle budget only the gzip cells
    may fail."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_halting_cell_fails_alone(self, monkeypatch, jobs):
        from repro.harness import experiment
        monkeypatch.setattr(experiment, "TRACE_LIMIT", 2_000)
        runner = ExperimentRunner(scale=2_000, use_cache=False,
                                  max_retries=0, retry_backoff=0.0)
        configs = [baseline_lsq_config(), baseline_sfc_mdt_config()]
        results = runner.run_suite(["gap", "gzip"], configs, jobs=jobs)
        assert sorted(results) == [("gap", c.name) for c in configs]
        failed = [e for e in runner.manifest if e["status"] != "ok"]
        assert sorted(e["config_name"] for e in failed) == \
            sorted(c.name for c in configs)
        assert all(e["benchmark"] == "gzip" and
                   "ExecutionLimitExceeded" in e["error"] for e in failed)


class TestProgramPickle:
    def test_fast_forwarded_program_round_trips(self):
        program = suites.build("gzip", 2_000)
        Interpreter(program).fast_forward(1_000)  # compiles blocks
        clone = pickle.loads(pickle.dumps(program))
        assert clone.digest() == program.digest()
        assert not hasattr(clone, "_predecode_memo")
        assert Core(clone, baseline_lsq_config()).run().instructions == 2_619

    def test_pool_after_sampled_run(self, tmp_path):
        runner = ExperimentRunner(scale=2_000, cache_dir=tmp_path,
                                  max_retries=0, retry_backoff=0.0)
        runner.run_sampled("gzip", baseline_lsq_config(), intervals=2,
                           warmup_insts=100, interval_insts=200)
        configs = [baseline_lsq_config(), baseline_sfc_mdt_config()]
        results = runner.run_suite(["gzip", "gap"], configs, jobs=2)
        assert runner.failures == 0
        assert len(results) == 4
