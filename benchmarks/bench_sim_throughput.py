"""Simulator-throughput benchmark (engineering, not a paper artifact).

Times the cycle-level simulator itself on one representative kernel per
configuration class, reporting simulated instructions per second.  Useful
for tracking performance regressions in the simulator.
"""

import pytest

from repro import Core
from repro.harness import (
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.isa import run_program
from repro.workloads import build

SCALE = 4000


@pytest.fixture(scope="module")
def workload():
    prog = build("gap", scale=SCALE)
    return prog, run_program(prog, 1_000_000)


def _simulate(prog, trace, config):
    return Core(prog, config, trace=trace).run()


def test_throughput_baseline_lsq(benchmark, workload):
    prog, trace = workload
    result = benchmark(_simulate, prog, trace, baseline_lsq_config())
    benchmark.extra_info["ipc"] = result.ipc
    benchmark.extra_info["instructions"] = result.instructions


def test_throughput_baseline_sfc_mdt(benchmark, workload):
    prog, trace = workload
    result = benchmark(_simulate, prog, trace, baseline_sfc_mdt_config())
    benchmark.extra_info["ipc"] = result.ipc


def test_throughput_aggressive_sfc_mdt(benchmark, workload):
    prog, trace = workload
    result = benchmark(_simulate, prog, trace, aggressive_sfc_mdt_config())
    benchmark.extra_info["ipc"] = result.ipc


def test_throughput_architectural_iss(benchmark, workload):
    prog, _ = workload
    trace = benchmark(run_program, prog, 1_000_000)
    benchmark.extra_info["instructions"] = len(trace)
