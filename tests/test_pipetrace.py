"""Tests for the pipeline event tracer."""

import json

import pytest

from repro import Core
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.pipeline.pipetrace import PipeTracer, trace_run
from tests.conftest import assemble, counted_loop_program, store_load_program


def traced(build_fn, config=None):
    processor = Core(assemble(build_fn),
                     config or baseline_lsq_config())
    return trace_run(processor)


class TestLifecycle:
    def test_every_retired_instruction_traced(self):
        tracer = traced(store_load_program)
        retired = tracer.retired()
        assert len(retired) == 5
        for trace in retired:
            assert trace.dispatch_cycle <= trace.issue_cycles[0]
            assert trace.issue_cycles[0] <= trace.complete_cycle
            assert trace.complete_cycle <= trace.retire_cycle

    def test_retirement_is_in_order(self):
        tracer = traced(counted_loop_program)
        cycles = [t.retire_cycle for t in tracer.retired()]
        assert cycles == sorted(cycles)

    def test_latency_query(self):
        tracer = traced(store_load_program)
        first = tracer.retired()[0]
        assert tracer.latency_of(first.seq) == \
            first.retire_cycle - first.dispatch_cycle
        assert tracer.latency_of(999_999) is None

    def test_tracing_does_not_change_timing(self):
        prog = assemble(counted_loop_program)
        plain = Core(prog, baseline_lsq_config()).run()
        proc = Core(prog, baseline_lsq_config())
        tracer = PipeTracer(proc)
        traced_result = proc.run()
        assert plain.cycles == traced_result.cycles
        assert len(tracer.retired()) == traced_result.instructions


class TestSpeculationEvents:
    @staticmethod
    def wrong_path_program(a):
        a.li("r1", 1)
        a.li("r2", 0x1000)
        a.li("r5", 88172645463325252)
        a.li("r3", 0)
        a.li("r4", 60)
        a.label("loop")
        a.slli("r6", "r5", 13)
        a.xor("r5", "r5", "r6")
        a.srli("r6", "r5", 7)
        a.xor("r5", "r5", "r6")
        a.andi("r6", "r5", 8)
        a.beq("r6", "r0", "skip")
        a.sd("r3", "r2", 0)
        a.label("skip")
        a.addi("r3", "r3", 1)
        a.bne("r3", "r4", "loop")
        a.halt()

    def test_squashes_recorded(self):
        tracer = traced(self.wrong_path_program)
        squashed = tracer.squashed()
        assert squashed, "mispredicted branches should squash something"
        for trace in squashed:
            assert trace.retire_cycle is None
            assert any(e.startswith("squash@") for e in trace.events)

    def test_replays_recorded(self):
        config = baseline_sfc_mdt_config(sfc_sets=1, sfc_assoc=1,
                                         mdt_sets=1, mdt_assoc=1)
        def build(a):
            a.li("r1", 0x1000)
            a.li("r2", 0x2000)
            a.li("r3", 0x3000)
            for reg in ("r1", "r2", "r3"):
                a.sd("r9", reg, 0)
            a.halt()
        tracer = traced(build, config)
        assert any(t.replays > 0 for t in tracer.traces.values())

    def test_format_renders_rows(self):
        tracer = traced(store_load_program)
        text = tracer.format()
        assert "instruction" in text
        assert "ld r3" in text
        assert "sd r2" in text

    def test_format_window(self):
        tracer = traced(counted_loop_program)
        text = tracer.format(first=0, count=3)
        # header + separator + 3 rows
        assert len(text.splitlines()) == 5


class TestRingBuffer:
    def test_ring_keeps_youngest(self):
        full = traced(counted_loop_program)
        proc = Core(assemble(counted_loop_program),
                    baseline_lsq_config())
        ringed = trace_run(proc, ring_size=16)
        assert len(ringed.traces) == 16
        # The survivors are exactly the 16 youngest sequence numbers.
        assert sorted(ringed.traces) == sorted(full.traces)[-16:]

    def test_ring_rejects_nonpositive(self):
        proc = Core(assemble(counted_loop_program),
                    baseline_lsq_config())
        with pytest.raises(ValueError):
            PipeTracer(proc, ring_size=0)

    def test_ring_does_not_change_timing(self):
        prog = assemble(counted_loop_program)
        plain = Core(prog, baseline_lsq_config()).run()
        proc = Core(prog, baseline_lsq_config())
        tracer = PipeTracer(proc, ring_size=8)
        ringed = proc.run()
        assert plain.cycles == ringed.cycles
        assert plain.counters.as_dict() == ringed.counters.as_dict()
        assert len(tracer.traces) == 8


class TestEpochSnapshots:
    def run_with_epochs(self, epoch_cycles=100):
        proc = Core(assemble(counted_loop_program),
                    baseline_sfc_mdt_config())
        return trace_run(proc, epoch_cycles=epoch_cycles), proc

    def test_snapshots_sampled(self):
        tracer, proc = self.run_with_epochs()
        assert tracer.epochs
        assert tracer.epochs[-1].cycle <= proc.cycle
        epochs = [s.epoch for s in tracer.epochs]
        assert epochs == sorted(epochs)
        for snapshot in tracer.epochs:
            assert 0 <= snapshot.rob_occupancy
            assert snapshot.retired >= 0

    def test_retired_is_monotonic(self):
        tracer, _ = self.run_with_epochs()
        retired = [s.retired for s in tracer.epochs]
        assert retired == sorted(retired)

    def test_jsonl_export_parses(self):
        tracer, _ = self.run_with_epochs()
        lines = tracer.epochs_jsonl().splitlines()
        assert len(lines) == len(tracer.epochs)
        for line in lines:
            snapshot = json.loads(line)
            assert {"epoch", "cycle", "retired", "rob_occupancy",
                    "stalls", "violation_rate"} <= set(snapshot)

    def test_write_epochs(self, tmp_path):
        tracer, _ = self.run_with_epochs()
        path = tmp_path / "epochs.jsonl"
        tracer.write_epochs(path)
        assert len(path.read_text().splitlines()) == len(tracer.epochs)

    def test_epoch_sampling_does_not_change_timing(self):
        prog = assemble(counted_loop_program)
        plain = Core(prog, baseline_sfc_mdt_config()).run()
        proc = Core(prog, baseline_sfc_mdt_config())
        PipeTracer(proc, epoch_cycles=64)
        sampled = proc.run()
        assert plain.cycles == sampled.cycles
        assert plain.counters.as_dict() == sampled.counters.as_dict()
