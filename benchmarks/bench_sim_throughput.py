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
    return build("gap", scale=SCALE)


def _simulate(prog, config):
    return Core(prog, config, max_instructions=1_000_000).run()


def test_throughput_baseline_lsq(benchmark, workload):
    result = benchmark(_simulate, workload, baseline_lsq_config())
    benchmark.extra_info["ipc"] = result.ipc
    benchmark.extra_info["instructions"] = result.instructions


def test_throughput_baseline_sfc_mdt(benchmark, workload):
    result = benchmark(_simulate, workload, baseline_sfc_mdt_config())
    benchmark.extra_info["ipc"] = result.ipc


def test_throughput_aggressive_sfc_mdt(benchmark, workload):
    result = benchmark(_simulate, workload, aggressive_sfc_mdt_config())
    benchmark.extra_info["ipc"] = result.ipc


def test_throughput_architectural_iss(benchmark, workload):
    trace = benchmark(run_program, workload, 1_000_000)
    benchmark.extra_info["instructions"] = len(trace)
