"""The RV32 conformance suite: every committed real program retires to
the interpreter oracle's exact architectural state on every registered
memory subsystem -- the tier-1 gate behind the RISC-V frontend.

Also covers the machinery the gate rests on: the declared-suite
registry (duplicate rejection, no cherry-picking) and the
program-frontend registry whose ``missing_coverage`` rule makes an
unfuzzed frontend a tier-1 failure, mirroring the subsystem registry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.configs import (
    baseline_lsq_config,
    baseline_sfc_mdt_config,
    fuzz_config_matrix,
)
from repro.isa.interp import Interpreter
from repro.isa.program import Program
from repro.verify import (
    ConformanceReport,
    DifferentialFuzzer,
    conformance_records,
    frontend_names,
    interleaved_builder,
    register_frontend,
    run_conformance,
)
from repro.verify.conformance import register_digest
from repro.verify.frontends import missing_coverage
from repro.workloads import RISCV_BENCHMARKS, register_suite, suite
from repro.workloads.suites import build

FIXTURES = Path(__file__).parent / "data" / "riscv"


class TestConformanceSuite:
    """The centerpiece: full corpus x full differential matrix."""

    def test_every_program_conforms_on_every_subsystem(self):
        report = run_conformance()
        assert isinstance(report, ConformanceReport)
        assert report.ok, report.format()
        # The whole declared suite ran -- no cherry-picking.
        assert sorted(report.oracle) == suite("riscv-conformance")
        matrix = fuzz_config_matrix()
        assert len(report.cells) == len(report.oracle) * len(matrix)
        # Every cell carries the digests it was compared on.
        for cell in report.cells:
            assert cell.register_digest
            assert cell.memory_digest
            assert cell.instructions == \
                report.oracle[cell.benchmark]["instructions"]

    def test_report_serializes_and_yields_records(self):
        report = run_conformance(configs=[baseline_sfc_mdt_config()])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["kind"] == "conformance"
        assert payload["ok"] is True
        records = conformance_records(report)
        assert len(records) == len(report.cells)
        for record in records:
            assert record.benchmark in report.oracle
            assert record.ipc > 0

    def test_mismatch_is_reported_not_swallowed(self):
        report = ConformanceReport("riscv-conformance", ["cfg"])
        from repro.verify.conformance import ConformanceCell
        report.cells.append(ConformanceCell(
            "rv-x", "cfg", ok=False, detail="final registers differ"))
        assert not report.ok
        assert "NONCONFORMING" in report.format()


class TestStlHazardFixture:
    """The committed synapse32-style store-to-load hazard program, with
    its expected final register values asserted under the oracle and
    under the default subsystems."""

    def load(self):
        program = Program.from_riscv(FIXTURES / "stl_hazard.hex")
        expected = json.loads(
            (FIXTURES / "stl_hazard_expected.json").read_text())
        return program, {int(name[1:]): value
                         for name, value in expected.items()}

    def test_oracle_reaches_expected_registers(self):
        program, expected = self.load()
        interp = Interpreter(program)
        interp.run(10_000)
        for index, value in expected.items():
            assert interp.regs[index] == value, f"x{index}"

    @pytest.mark.parametrize("config_fn", [baseline_sfc_mdt_config,
                                           baseline_lsq_config])
    def test_pipeline_reaches_expected_registers(self, config_fn):
        from repro.pipeline import Core

        program, expected = self.load()
        interp = Interpreter(program)
        interp.run(10_000)
        core = Core(program, config_fn())
        core.run()
        regs = core.architectural_registers()
        for index, value in expected.items():
            assert regs[index] == value, f"x{index}"
        assert register_digest(regs) == register_digest(interp.regs)

    def test_fixture_is_in_the_declared_suite(self):
        assert "rv-stl_hazard" in suite("riscv-conformance")
        assert build("rv-stl_hazard", scale=0).name == "rv-stl_hazard"


class TestSuiteRegistry:
    def test_riscv_suite_is_the_whole_corpus(self):
        assert suite("riscv-conformance") == sorted(RISCV_BENCHMARKS)
        assert len(RISCV_BENCHMARKS) >= 6

    def test_duplicate_suite_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate suite"):
            register_suite("riscv-conformance", sorted(RISCV_BENCHMARKS))

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            register_suite("bogus-suite", ["no-such-benchmark"])

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            register_suite("empty-suite", [])

    def test_unknown_suite_name_rejected(self):
        with pytest.raises(KeyError):
            suite("no-such-suite")

    def test_suite_returns_a_copy(self):
        members = suite("riscv-conformance")
        members.append("tampered")
        assert "tampered" not in suite("riscv-conformance")


class TestFrontendCoverage:
    """An unfuzzed frontend must fail tier-1, like an unfuzzed
    subsystem."""

    def test_riscv_frontend_is_registered(self):
        assert "riscv" in frontend_names()
        assert "native" in frontend_names()

    def test_missing_coverage_flags_uncovered_frontends(self):
        assert missing_coverage(frontend_names()) == []
        assert missing_coverage(["native"]) == ["riscv"]

    def test_default_fuzz_builder_covers_every_frontend(self):
        fuzzer = DifferentialFuzzer()
        covered = set(fuzzer.builder.frontend_names)
        assert missing_coverage(covered) == [], (
            "the DifferentialFuzzer default builder must round-robin "
            "over every registered frontend")

    def test_interleaved_builder_visits_each_frontend(self):
        builder = interleaved_builder()
        names = {builder(seed).name.split("-")[0]
                 for seed in range(len(builder.frontend_names) * 2)}
        # Native fuzz programs are named random-..., RV32 ones rv-random-...
        assert len(names) == len(builder.frontend_names)

    def test_duplicate_frontend_rejected(self):
        with pytest.raises(ValueError, match="duplicate frontend"):
            register_frontend("riscv", lambda seed: None)

    def test_riscv_fuzz_programs_pass_the_differential_check(self):
        fuzzer = DifferentialFuzzer(
            builder=interleaved_builder(["riscv"]))
        report = fuzzer.run(iterations=8, seed=123)
        assert report.ok, report.format()
