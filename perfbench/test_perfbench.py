"""Tests for the benchmark itself, mostly at tiny scale.

    python3 -m pytest perfbench -q

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from make_reference import full_run_references  # noqa: E402

TINY = 400
#: ``sampled`` needs room for a warm-up and a measured window.
SAMPLED_TINY = 20_000
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class BrokenCell:
    """``_cell_fn`` that raises for one (benchmark, config) cell."""

    def __init__(self, inner, benchmark: str, config_name: str):
        self.inner = inner
        self.benchmark = benchmark
        self.config_name = config_name

    def __call__(self, program, trace, config):
        if program.name == self.benchmark and \
                config.name == self.config_name:
            raise RuntimeError("injected cell failure")
        return self.inner(program, trace, config)


def breaker(benchmark: str, config_name: str):
    """Runner hook injecting a :class:`BrokenCell`, without retry
    back-off."""
    def hook(runner):
        runner.retry_backoff = 0.0
        runner._cell_fn = BrokenCell(runner._cell_fn, benchmark,
                                     config_name)
    return hook


@pytest.fixture(scope="module")
def tiny_reference():
    """Full-run references for ``sampled`` at the tiny scale; the other
    workloads pin each cell to its first result."""
    probe = workloads.Sampled(scale=SAMPLED_TINY)
    return {"digests": {},
            "full_run_ipc": {str(SAMPLED_TINY): full_run_references(probe)}}


def tiny(name: str) -> int:
    return SAMPLED_TINY if name == "sampled" else TINY


def test_broken_cell_counts_in_failed_frac(tmp_path, tiny_reference):
    record = run.run("exact-grid", workloads.DEFAULT_SEED, 0, True,
                     ROOT, out=tmp_path, reference=tiny_reference,
                     scale=TINY, runner_hook=breaker("gzip", "NOT-ENF"))
    passes = record["passes"]
    assert not record["correct"]
    assert record["attempted"] == 136 * len(passes)
    assert record["failed"] == len(passes)
    assert record["metrics"]["harness.failed_frac"]["value"] == \
        pytest.approx(1 / 136)
    # The broken cell was retried to the runner's default budget.
    assert all(row["layers"]["harness.retries"] == 2 for row in passes
               if "layers" in row)


def test_broken_pool_cell_counts_as_failed(tmp_path):
    hook = breaker("gzip", workloads.baseline_lsq_config().name)
    workload = workloads.SuitePool(scale=TINY, workdir=tmp_path,
                                   runner_hook=hook)
    result = workload.score(workload.run_pass())
    assert result.attempted == 40
    assert result.failed == 1


def test_pool_pass_counts_worker_processor_time(tmp_path):
    workload = workloads.SuitePool(scale=TINY, workdir=tmp_path)
    result = workload.run_pass()
    worker_cpu = result.extra["worker_cpu_s"]
    if result.extra["jobs"] > 1:
        assert worker_cpu > 0
    else:  # cells run in the benchmark process itself
        assert worker_cpu == 0
    assert result.cpu_s > worker_cpu


def test_host_speed_scales_to_the_reference_probe():
    reference = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scale(reference) == pytest.approx(1.0)
    # A host running the probe at half speed halves the scaled times.
    assert hostspeed.scale(2 * reference) == pytest.approx(0.5)
    assert hostspeed.probe_s() > 0


def test_digest_mismatch_counts_as_failed(tmp_path):
    workload = workloads.Multicore(scale=TINY, workdir=tmp_path)
    first = workload.score(workload.run_pass())
    assert first.failed == 0
    cell = sorted(workload.expected)[0]
    workload.expected[cell] = "0" * 16
    second = workload.score(workload.run_pass())
    assert second.failed == 1


def test_default_seed_matches_stored_digests(tmp_path):
    workload = run.make_workload("multicore", workloads.DEFAULT_SEED,
                                 tmp_path)
    stored = run.load_reference()["digests"]["multicore"]
    assert set(workload.expected) == \
        set(stored[str(workload.scale)]["cells"])
    result = workload.score(workload.run_pass())
    assert result.failed == 0, result.errors


def test_every_seed_scale_has_stored_references():
    reference = run.load_reference()
    for name, cls in workloads.WORKLOADS.items():
        for variant in range(workloads.VARIANTS):
            scale = str(workloads.variant_scale(cls.base_scale, variant))
            assert scale in reference["digests"][name], (name, scale)
            if name == "sampled":
                cells = reference["full_run_ipc"][scale]
                assert len(cells) == len(cls.benchmarks) * 3


def test_seed_varies_scale_and_default_seed_is_base():
    for name, cls in workloads.WORKLOADS.items():
        assert cls(seed=workloads.DEFAULT_SEED).scale == cls.base_scale
        scales = {cls(seed=seed).scale for seed in range(1, 20)}
        assert len(scales) > 1
        assert cls.base_scale not in scales
        assert cls(seed=7).scale == cls(seed=7).scale


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(
        name, tmp_path, tiny_reference):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run(name, workloads.DEFAULT_SEED, 0, trace, ROOT,
                         out=tmp_path, reference=tiny_reference,
                         scale=tiny(name))
        assert record["correct"], record["passes"]
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        emitted = {key: metric["unit"]
                   for key, metric in record["metrics"].items()}
        assert emitted == declared
        for metric in record["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if not trace:
            assert all(metric["value"] > 0
                       for metric in record["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_account_for_traced_wall(name, tmp_path,
                                            tiny_reference):
    tracer = tracing.Tracer()
    workload = run.make_workload(name, workloads.DEFAULT_SEED, tmp_path,
                                 tiny_reference, scale=tiny(name),
                                 runner_hook=tracer.hook_runner)
    tracer.install()
    try:
        rows = run.run_passes(workload, 0, tracer)
    finally:
        tracer.uninstall()
    roots = [i for i, span in enumerate(tracer.spans)
             if span[0] == "pass"]
    assert len(roots) == len(rows)
    ends = roots[1:] + [len(tracer.spans)]
    for row, first, end in zip(rows, roots, ends):
        _name, started, finished, _parent = tracer.spans[first]
        self_s = tracer.self_times(first, end)
        # Self times partition the pass exactly ...
        assert sum(self_s.values()) == pytest.approx(finished - started,
                                                     rel=1e-9)
        # ... and layer spans cover all but a stated share of it.
        assert row["layers"]["trace.unattributed_frac"] <= \
            tracing.MAX_UNATTRIBUTED


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
