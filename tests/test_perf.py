"""Tests for the profiling/throughput module and the bit-exactness gate."""

import pytest

from repro import perf
from repro.cli import main
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import ExperimentRunner


def _fake_manifest(counter=7.0, extra=None):
    entry = {
        "benchmark": "gzip",
        "config_name": "baseline",
        "config": {"rob_size": 48},
        "scale": 1000,
        "cycles": 2500,
        "instructions": 1000,
        "ipc": 0.4,
        "counters": {"retired_loads": counter},
    }
    if extra:
        entry.update(extra)
    return [entry]


class TestManifestDigest:
    def test_stable_for_identical_manifests(self):
        assert perf.manifest_digest(_fake_manifest()) == \
            perf.manifest_digest(_fake_manifest())

    def test_counter_change_changes_digest(self):
        assert perf.manifest_digest(_fake_manifest(counter=7.0)) != \
            perf.manifest_digest(_fake_manifest(counter=8.0))

    def test_ignores_non_architected_fields(self):
        """Wall-clock style bookkeeping must not perturb the digest."""
        noisy = _fake_manifest(extra={"wall_seconds": 1.23,
                                      "cache_hit": True})
        assert perf.manifest_digest(noisy) == \
            perf.manifest_digest(_fake_manifest())

    def test_is_sha256_hex(self):
        digest = perf.manifest_digest(_fake_manifest())
        assert len(digest) == 64
        int(digest, 16)


class TestMeasureThroughput:
    def test_reports_positive_throughput(self):
        report = perf.measure_throughput(
            ["gzip"], [baseline_lsq_config()], scale=800)
        assert len(report.samples) == 1
        assert report.total_instructions > 0
        assert report.insts_per_sec > 0
        assert report.usec_per_inst > 0

    def test_grid_covers_every_cell(self):
        configs = [baseline_lsq_config(), baseline_sfc_mdt_config()]
        report = perf.measure_throughput(["gzip", "gap"], configs,
                                         scale=600)
        cells = {(s.benchmark, s.config_name) for s in report.samples}
        assert len(cells) == 4

    def test_timed_cells_bypass_result_cache(self, tmp_path):
        """Regression: a pre-warmed result cache used to serve timing
        cells as ~instant cache hits, inflating reported simulator
        throughput by orders of magnitude.  measure_throughput must
        re-simulate every cell and prove it via cache_hits == 0."""
        runner = ExperimentRunner(scale=800, cache_dir=tmp_path)
        runner.run("gzip", baseline_lsq_config())  # warm the cache
        report = perf.measure_throughput(
            ["gzip"], [baseline_lsq_config()], scale=800, runner=runner)
        assert report.cache_hits == 0
        timed = runner.manifest[1:]
        assert timed and all(not entry["cache_hit"] for entry in timed)
        assert runner.cache is not None, \
            "the runner's cache must be restored after measurement"

    def test_format_mentions_throughput_and_digest(self):
        report = perf.measure_throughput(
            ["gzip"], [baseline_lsq_config()], scale=600)
        text = report.format()
        assert "insts/s" in text
        assert report.manifest_digest in text


class TestBitExactness:
    def test_repeated_runs_are_bit_identical(self):
        """The regression gate itself: the simulator is deterministic,
        so back-to-back uncached runs must hash identically."""
        digests = set()
        for _ in range(2):
            runner = ExperimentRunner(scale=800, jobs=1, use_cache=False)
            runner.run("mcf", baseline_sfc_mdt_config())
            runner.run("mcf", baseline_lsq_config())
            digests.add(perf.manifest_digest(runner.manifest))
        assert len(digests) == 1


class TestProfileSuite:
    def test_finds_hot_simulator_functions(self):
        report = perf.profile_suite(["gzip"], [baseline_sfc_mdt_config()],
                                    scale=800)
        assert report.total_instructions > 0
        assert report.total_seconds > 0
        names = " ".join(fn.name for fn in report.top(50))
        # The pipeline's hot loops live in pipeline/core.py.
        assert "core.py" in names

    def test_top_limits_rows(self):
        report = perf.profile_suite(["gzip"], [baseline_lsq_config()],
                                    scale=600)
        assert len(report.top(5)) == 5
        assert "function" in report.format(top_n=5)


class TestBenchCli:
    def test_bench_smoke(self, capsys):
        assert main(["bench", "--benchmarks", "gzip",
                     "--configs", "baseline-lsq", "--scale", "600"]) == 0
        out = capsys.readouterr().out
        assert "insts/s" in out
        assert "manifest sha256:" in out

    def test_bench_profile(self, capsys):
        assert main(["bench", "--benchmarks", "gzip",
                     "--configs", "baseline-lsq", "--scale", "600",
                     "--profile", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cProfile" in out
        assert "cumtime" in out
