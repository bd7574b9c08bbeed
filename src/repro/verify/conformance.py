"""RISC-V conformance harness: real programs, every subsystem, one truth.

The standing check behind the ``riscv-conformance`` suite: every
committed RV32 program (``src/repro/workloads/riscv/*.hex``, loaded
through the :mod:`repro.isa.riscv` frontend) is executed on the in-order
interpreter oracle *and* on every configuration of the differential
matrix (one per registered memory subsystem), asserting that all of them
retire to the identical architectural state:

* **register digest** -- sha256 over the final architectural register
  file (:meth:`repro.pipeline.core.Core.architectural_registers` vs the
  interpreter's ``regs``);
* **memory digest** -- the content hash of the final memory image;
* **retire count** -- every run retires exactly the oracle trace length
  (the pipeline's built-in golden-trace validation already compares
  each retired value on the way).

A tier-1 test and a CI lane run this over the whole suite, so the
frontend is a conformance harness, not a one-off loader.
"""

from __future__ import annotations

import hashlib
import time
from typing import List, Optional, Sequence

from ..harness.configs import fuzz_config_matrix
from ..isa.interp import Interpreter
from ..obs.runrecord import SCHEMA_VERSION, RunRecord
from ..pipeline.config import ProcessorConfig
from ..pipeline.core import Core, SimulationError
from ..workloads import suites

#: ``kind`` discriminator for conformance report envelopes.
KIND_CONFORMANCE = "conformance"

#: Architectural execution budget per conformance program.
TRACE_LIMIT = 2_000_000


def register_digest(regs: Sequence[int]) -> str:
    """sha256 hex over an architectural register file."""
    hasher = hashlib.sha256()
    for value in regs:
        hasher.update(value.to_bytes(8, "little"))
    return hasher.hexdigest()


class ConformanceCell:
    """One (program, config) comparison against the oracle."""

    __slots__ = ("benchmark", "config_name", "ok", "detail", "cycles",
                 "instructions", "ipc", "register_digest", "memory_digest")

    def __init__(self, benchmark: str, config_name: str, ok: bool,
                 detail: str = "", cycles: int = 0, instructions: int = 0,
                 ipc: float = 0.0, register_digest: str = "",
                 memory_digest: str = ""):
        self.benchmark = benchmark
        self.config_name = config_name
        self.ok = ok
        self.detail = detail
        self.cycles = cycles
        self.instructions = instructions
        self.ipc = ipc
        self.register_digest = register_digest
        self.memory_digest = memory_digest

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark,
                "config_name": self.config_name,
                "ok": self.ok, "detail": self.detail,
                "cycles": self.cycles,
                "instructions": self.instructions,
                "ipc": self.ipc,
                "register_digest": self.register_digest,
                "memory_digest": self.memory_digest}


class ConformanceReport:
    """Outcome of one conformance sweep (suite x config matrix)."""

    def __init__(self, suite_name: str, config_names: List[str]):
        self.suite_name = suite_name
        self.config_names = config_names
        self.cells: List[ConformanceCell] = []
        self.oracle: dict = {}  # benchmark -> digests + trace length
        self.elapsed = 0.0

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[ConformanceCell]:
        return [cell for cell in self.cells if not cell.ok]

    def geo_mean_ipc(self) -> dict:
        """Per-config geometric-mean IPC over the suite's programs."""
        from ..harness.experiment import geometric_mean
        means = {}
        for name in self.config_names:
            ipcs = [cell.ipc for cell in self.cells
                    if cell.config_name == name and cell.ok]
            means[name] = geometric_mean(ipcs) if ipcs else 0.0
        return means

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": KIND_CONFORMANCE,
            "suite": self.suite_name,
            "configurations": list(self.config_names),
            "ok": self.ok,
            "elapsed": self.elapsed,
            "oracle": dict(self.oracle),
            "geo_mean_ipc": self.geo_mean_ipc(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def format(self) -> str:
        lines = [
            f"riscv conformance: suite {self.suite_name!r}, "
            f"{len(self.oracle)} programs x {len(self.config_names)} "
            f"configurations in {self.elapsed:.1f}s",
        ]
        for name, mean in sorted(self.geo_mean_ipc().items()):
            lines.append(f"  {name}: geo-mean IPC {mean:.3f}")
        if self.ok:
            lines.append("all register/memory digests identical to the "
                         "interpreter oracle")
        else:
            lines.append(f"{len(self.failures)} NONCONFORMING CELL(S):")
            for cell in self.failures:
                lines.append(f"  {cell.benchmark} @ {cell.config_name}: "
                             f"{cell.detail}")
        return "\n".join(lines)


def conformance_records(report: ConformanceReport) -> List[RunRecord]:
    """Per-cell RunRecords (manifest form) for the reporting pipeline."""
    records = []
    for cell in report.cells:
        if not cell.ok:
            continue
        records.append(RunRecord(
            benchmark=cell.benchmark, config_name=cell.config_name,
            config={}, scale=0, key="", cycles=cell.cycles,
            instructions=cell.instructions, ipc=cell.ipc, counters={}))
    return records


def run_conformance(suite_name: str = "riscv-conformance",
                    configs: Optional[Sequence[ProcessorConfig]] = None,
                    benchmarks: Optional[Sequence[str]] = None,
                    max_instructions: int = TRACE_LIMIT
                    ) -> ConformanceReport:
    """Run the conformance sweep.

    ``configs`` defaults to the differential fuzz matrix, which is
    guaranteed (and asserted by the fuzzer) to cover every registered
    memory subsystem; ``benchmarks`` defaults to the declared suite
    membership -- no cherry-picking.
    """
    if configs is None:
        configs = fuzz_config_matrix()
    if benchmarks is None:
        benchmarks = suites.suite(suite_name)
    report = ConformanceReport(suite_name, [c.name for c in configs])
    started = time.perf_counter()
    for benchmark in benchmarks:
        program = suites.build(benchmark, scale=0)
        interp = Interpreter(program)
        trace = interp.run(max_instructions)
        oracle_regs = register_digest(interp.regs)
        oracle_mem = interp.memory.digest()
        report.oracle[benchmark] = {
            "instructions": len(trace),
            "register_digest": oracle_regs,
            "memory_digest": oracle_mem,
        }
        for config in configs:
            try:
                core = Core(program, config,
                            max_instructions=max_instructions)
                result = core.run()
            except SimulationError as exc:
                report.cells.append(ConformanceCell(
                    benchmark, config.name, ok=False,
                    detail=f"trace divergence: {exc}"))
                continue
            regs = register_digest(core.architectural_registers())
            mem = core.memory.digest()
            problems = []
            if regs != oracle_regs:
                problems.append("final registers differ from oracle")
            if mem != oracle_mem:
                problems.append("final memory image differs from oracle")
            if result.instructions != len(trace):
                problems.append(
                    f"retired {result.instructions} instructions, "
                    f"oracle trace has {len(trace)}")
            report.cells.append(ConformanceCell(
                benchmark, config.name, ok=not problems,
                detail="; ".join(problems), cycles=result.cycles,
                instructions=result.instructions,
                ipc=result.instructions / result.cycles
                if result.cycles else 0.0,
                register_digest=regs, memory_digest=mem))
    report.elapsed = time.perf_counter() - started
    return report
