"""Tests for the parallel experiment engine and its persistent cache."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.checkpoint import ensure_train, train_key
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import (
    CACHE_FORMAT,
    ExperimentRunner,
    ResultCache,
    cache_key,
)
from repro.harness.figures import manifest_table
from repro.isa.interp import Interpreter
from repro.pipeline.config import SystemConfig
from repro.workloads import suites

BENCHMARKS = ["gap", "crafty"]
SCALE = 1200


def configs():
    return [baseline_lsq_config(), baseline_sfc_mdt_config()]


def grid_snapshot(results):
    """Comparable view of a RunRecord grid: every architected number."""
    return {
        f"{benchmark}/{name}": (record.cycles, record.instructions,
                                record.ipc, sorted(record.counters.items()))
        for (benchmark, name), record in results.items()
    }


class TestCacheKey:
    def test_key_is_deterministic(self):
        assert cache_key("gap", SCALE, baseline_lsq_config()) == \
            cache_key("gap", SCALE, baseline_lsq_config())

    def test_key_ignores_display_name(self):
        named = baseline_lsq_config(name="a-pretty-label")
        assert cache_key("gap", SCALE, named) == \
            cache_key("gap", SCALE, baseline_lsq_config())

    def test_key_covers_benchmark_and_scale(self):
        config = baseline_lsq_config()
        base = cache_key("gap", SCALE, config)
        assert cache_key("crafty", SCALE, config) != base
        assert cache_key("gap", SCALE + 1, config) != base

    def test_keys_and_layout_pinned(self, tmp_path):
        """Keys, file names and directory layout are what earlier builds
        wrote, so an existing cache directory is still served as hits."""
        sampling = {"intervals": 4, "warmup_insts": 100,
                    "interval_insts": 400, "checkpoint_every": 0,
                    "warm": True}
        assert cache_key("gap", SCALE, baseline_lsq_config()) == \
            "d9a61682cc1eae95320d4c6d5b32745a550d4c5f694981f133393a01a5e21f75"
        assert cache_key("gzip", 2000, baseline_sfc_mdt_config(),
                         sampling=sampling) == \
            "b2fdae83431a0a1ed2ce8aa63d5daaf5b959b99e56fd2820ca0a290215bf92c8"
        assert cache_key("gap", SCALE, SystemConfig(
            baseline_sfc_mdt_config(), cores=2)) == \
            "bbf66365f62aebca3c06ecad297aa9067b921abd2886d8694d9013dd4df72156"
        assert train_key("0" * 64, 700, True) == \
            "c4a933957df45e54c4a20514c3bc1146a960c0ea9db7d177ff440ff251a606cc"
        assert train_key("ab" * 32, 500, False) == \
            "09a401415a3d50d67ced2ee3c68c22edce1c14ffe1ed4f829304ef5cfb555740"
        cache = ResultCache(tmp_path)
        assert cache.path("k") == tmp_path / "k.json"
        assert cache.trains.path("k") == \
            tmp_path / "checkpoints" / "k.ckpt.json"

    def test_key_stable_across_processes(self):
        """The content hash must not depend on interpreter state (dict
        order, hash randomization, object ids)."""
        config = baseline_sfc_mdt_config()
        here = cache_key("gap", SCALE, config)
        script = (
            "from repro.harness import baseline_sfc_mdt_config\n"
            "from repro.harness.experiment import cache_key\n"
            f"print(cache_key('gap', {SCALE}, baseline_sfc_mdt_config()))\n")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        there = subprocess.run(
            [sys.executable, "-c", script], env=env, text=True,
            capture_output=True, check=True).stdout.strip()
        assert there == here

    def test_key_changes_when_any_config_field_changes(self):
        """Every simulation parameter participates in the cache key."""
        def perturbed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value * 2 + 2  # preserves power-of-two-ness
            if isinstance(value, float):
                return value / 2 + 0.01
            if isinstance(value, str):
                perturbations = {"lsq": "sfc_mdt", "flush": "corrupt",
                                 "LSQ": "ENF", "mask": "endpoints"}
                return perturbations[value]
            raise AssertionError(f"unhandled field type: {value!r}")

        base = cache_key("gap", SCALE, baseline_lsq_config())
        reference = baseline_lsq_config().to_dict()
        seen = set()
        for field, value in reference.items():
            if field == "name":
                continue
            config = baseline_lsq_config()
            if isinstance(value, dict):  # nested config record
                nested = getattr(config, field)
                for sub_field in value:
                    setattr(nested, sub_field,
                            perturbed(value[sub_field]))
                    key = cache_key("gap", SCALE, config)
                    assert key != base, f"{field}.{sub_field}"
                    assert key not in seen, f"{field}.{sub_field}"
                    seen.add(key)
                    setattr(nested, sub_field, value[sub_field])
            else:
                setattr(config, field, perturbed(value))
                key = cache_key("gap", SCALE, config)
                assert key != base, field
                assert key not in seen, field
                seen.add(key)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"format": 1, "cycles": 7}
        cache.store("k" * 64, payload)
        assert cache.load("k" * 64) == payload

    def test_temp_names_are_collision_proof(self, tmp_path, monkeypatch):
        """Two stores of one key from one pid must never share a temp
        name (pid-only suffixes collide across hosts sharing a cache
        directory over NFS)."""
        cache = ResultCache(tmp_path)
        seen = []
        original = Path.replace

        def spy(self, target):
            seen.append(self.name)
            return original(self, target)

        monkeypatch.setattr(Path, "replace", spy)
        cache.store("k" * 64, {"format": 1})
        cache.store("k" * 64, {"format": 1})
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(f".tmp.{os.getpid()}." in name for name in seen)

    def test_stale_temps_swept_on_open(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        stale = tmp_path / ("a" * 64 + ".json.tmp.999.deadbeef")
        stale.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = tmp_path / ("b" * 64 + ".json.tmp.999.cafef00d")
        fresh.write_text("{")
        ResultCache(tmp_path)
        assert not stale.exists(), "hour-old orphan temp must be swept"
        assert fresh.exists(), "a concurrent writer's temp must survive"

    def test_future_mtime_temp_survives_timed_sweep(self, tmp_path):
        """Regression: a temp whose mtime lies in the future (clock
        skew across hosts sharing a cache dir) used to compute a huge
        *negative* age that compared as stale under unsigned handling
        variants -- it must read as brand new instead."""
        cache = ResultCache(tmp_path)
        skewed = tmp_path / ("c" * 64 + ".json.tmp.999.0ddba11")
        skewed.write_text("{")
        ahead = time.time() + 86_400
        os.utime(skewed, (ahead, ahead))
        removed = cache.sweep_stale_temps()
        assert removed == 0
        assert skewed.exists(), \
            "future-dated temp must be treated as age zero, not stale"

    def test_timed_sweep_floors_aggressive_max_age(self, tmp_path):
        """Regression: callers passing a tiny max_age could sweep a
        concurrent writer's seconds-old temp mid-write.  Timed sweeps
        floor the horizon at MIN_STALE_TEMP_SECONDS."""
        from repro.store import MIN_STALE_TEMP_SECONDS

        cache = ResultCache(tmp_path)
        young = tmp_path / ("d" * 64 + ".json.tmp.999.aa")
        young.write_text("{")
        recent = time.time() - 10
        os.utime(young, (recent, recent))
        old = tmp_path / ("e" * 64 + ".json.tmp.999.bb")
        old.write_text("{")
        past = time.time() - (MIN_STALE_TEMP_SECONDS + 300)
        os.utime(old, (past, past))
        removed = cache.sweep_stale_temps(max_age=1.0)
        assert removed == 1
        assert young.exists(), \
            "sub-floor max_age must not sweep a seconds-old temp"
        assert not old.exists()

    def test_gc_removes_fresh_and_future_temps(self, tmp_path):
        """gc() is the explicit remove-everything form: the clamp and
        floor protections must not apply to it."""
        cache = ResultCache(tmp_path)
        fresh = tmp_path / ("f" * 64 + ".json.tmp.999.cc")
        fresh.write_text("")
        skewed = tmp_path / ("a" * 63 + "b.json.tmp.999.dd")
        skewed.write_text("")
        ahead = time.time() + 86_400
        os.utime(skewed, (ahead, ahead))
        assert cache.gc() == 2
        assert not fresh.exists() and not skewed.exists()

    def test_gc_drops_unreadable_and_foreign_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("good", {"format": 1, "cycles": 7})
        cache.store("old", {"format": -1})
        cache.path("corrupt").write_text("{not json")
        (tmp_path / "x.json.tmp.1.ff").write_text("")
        removed = cache.gc()
        assert removed == 3
        assert cache.load("good") == {"format": 1, "cycles": 7}
        assert not cache.path("old").exists()
        assert not cache.path("corrupt").exists()

    def test_missing_entry_is_none(self, tmp_path):
        assert ResultCache(tmp_path).load("nope") is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").parent.mkdir(parents=True, exist_ok=True)
        cache.path("bad").write_text("{not json")
        assert cache.load("bad") is None

    def test_foreign_format_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("old", {"format": -1, "cycles": 7})
        assert cache.load("old") is None


class TestTrainsNamespace:
    """Opening the cache and gc() cover the checkpoint trains nested
    under it, each namespace judged by its own format tag."""

    @staticmethod
    def _file(tmp_path, name, text="{", age=0.0):
        path = tmp_path / "checkpoints" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def test_open_sweeps_stale_train_temp_only(self, tmp_path):
        stale = self._file(tmp_path, "a" * 64 + ".ckpt.json.tmp.9.dead",
                           age=36_000)
        fresh = self._file(tmp_path, "b" * 64 + ".ckpt.json.tmp.9.cafe",
                           age=5)
        ResultCache(tmp_path)
        assert not stale.exists(), "ten-hour-old train temp must go"
        assert fresh.exists(), "a concurrent writer's temp must survive"

    def test_gc_drops_foreign_and_corrupt_trains(self, tmp_path):
        foreign = self._file(tmp_path, "c" * 64 + ".ckpt.json",
                             json.dumps({"format": -1}))
        corrupt = self._file(tmp_path, "d" * 64 + ".ckpt.json")
        assert ResultCache(tmp_path).gc() == 2
        assert not foreign.exists() and not corrupt.exists()

    def test_valid_train_survives_gc_and_is_served(self, tmp_path,
                                                   monkeypatch):
        program = suites.build("gzip", 2_000)
        cache = ResultCache(tmp_path)
        cache.store("e" * 64, {"format": CACHE_FORMAT, "cycles": 7})
        train = ensure_train(program, 300, True, store=cache.trains)
        path = cache.trains.path(train_key(program.digest(), 300, True))
        mtime = path.stat().st_mtime_ns

        assert ResultCache(tmp_path).gc() == 0
        assert cache.load("e" * 64) == {"format": CACHE_FORMAT, "cycles": 7}

        def no_fast_forward(*_args, **_kwargs):
            raise AssertionError("a stored train was recaptured")

        monkeypatch.setattr(Interpreter, "fast_forward", no_fast_forward)
        served = ensure_train(program, 300, True,
                              store=ResultCache(tmp_path).trains)
        assert served["total_instructions"] == train["total_instructions"]
        assert len(served["checkpoints"]) == len(train["checkpoints"])
        assert path.stat().st_mtime_ns == mtime


class TestEngineGrids:
    def test_serial_and_parallel_grids_identical(self, tmp_path):
        serial = ExperimentRunner(scale=SCALE, use_cache=False)
        parallel = ExperimentRunner(scale=SCALE, use_cache=False)
        a = serial.run_suite(BENCHMARKS, configs(), jobs=1)
        b = parallel.run_suite(BENCHMARKS, configs(), jobs=4)
        assert grid_snapshot(a) == grid_snapshot(b)
        assert serial.cache_misses == parallel.cache_misses == 4

    def test_warm_cache_grid_identical_and_simulation_free(self, tmp_path):
        cold = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        a = cold.run_suite(BENCHMARKS, configs(), jobs=2)
        assert cold.cache_hits == 0 and cold.cache_misses == 4

        warm = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        b = warm.run_suite(BENCHMARKS, configs(), jobs=2)
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        assert grid_snapshot(a) == grid_snapshot(b)
        # No program was ever built on the warm path.
        assert not warm._programs

    def test_single_run_fills_and_hits_cache(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        first = runner.run("gap", baseline_lsq_config())
        second = runner.run("gap", baseline_lsq_config())
        assert second.cycles == first.cycles
        assert [e["cache_hit"] for e in runner.manifest] == [False, True]

    def test_cache_shared_between_run_and_run_suite(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        runner.run_suite(["gap"], configs())
        hits = [e["cache_hit"] for e in runner.manifest]
        assert hits == [False, True, False]

    def test_config_field_change_invalidates_cache(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        changed = baseline_lsq_config()
        changed.rob_size = 64
        runner.run("gap", changed)
        assert [e["cache_hit"] for e in runner.manifest] == [False, False]

    def test_jobs_default_comes_from_cpu_count(self):
        assert ExperimentRunner(scale=SCALE).jobs == (os.cpu_count() or 1)
        assert ExperimentRunner(scale=SCALE, jobs=3).jobs == 3

    def test_parallel_serial_cached_manifests_equivalent(self, tmp_path):
        """jobs=1, jobs=N, and a warm-cache rerun must agree on every
        architected field of every manifest entry (wall_time and
        cache-provenance fields excepted)."""
        def normalized(runner):
            entries = []
            for entry in sorted(runner.manifest,
                                key=lambda e: (e["benchmark"],
                                               e["config_name"])):
                entry = dict(entry)
                for volatile in ("wall_time", "engine", "cache_hit"):
                    entry.pop(volatile)
                entries.append(entry)
            return entries

        serial = ExperimentRunner(scale=SCALE, use_cache=False)
        parallel = ExperimentRunner(scale=SCALE, use_cache=False)
        cold = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        a = serial.run_suite(BENCHMARKS, configs(), jobs=1)
        b = parallel.run_suite(BENCHMARKS, configs(), jobs=4)
        cold.run_suite(BENCHMARKS, configs(), jobs=2)
        warm = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        c = warm.run_suite(BENCHMARKS, configs(), jobs=2)
        assert grid_snapshot(a) == grid_snapshot(b) == grid_snapshot(c)
        assert normalized(serial) == normalized(parallel) == \
            normalized(warm)
        assert all(e["status"] == "ok" for e in serial.manifest)


def _cells_run(runner):
    return [runner.run("gap", baseline_lsq_config())]


def _cells_run_system(runner):
    config = SystemConfig(baseline_sfc_mdt_config(), cores=2,
                          memory_mode="private")
    return [runner.run_system("gap", config)]


def _cells_run_sampled(runner):
    return [runner.run_sampled("gzip", baseline_sfc_mdt_config(),
                               intervals=2, warmup_insts=100,
                               interval_insts=300)]


def _cells_run_suite_serial(runner):
    return list(runner.run_suite(BENCHMARKS, configs(), jobs=1).values())


def _cells_run_suite_pool(runner):
    return list(runner.run_suite(BENCHMARKS, configs(), jobs=2).values())


class TestOneCellPath:
    """Every entry point returns the very RunRecord it appends to the
    manifest, and a warm-cache repeat returns an equal record."""

    KINDS = [_cells_run, _cells_run_system, _cells_run_sampled,
             _cells_run_suite_serial, _cells_run_suite_pool]

    @staticmethod
    def stable(records):
        """Record dicts minus what a cache hit may change, in grid
        order (a pool completes cells in any order)."""
        out = []
        for record in records:
            entry = record.to_dict()
            entry.pop("cache_hit")
            entry.pop("wall_time")
            out.append(entry)
        return sorted(out, key=lambda e: (e["benchmark"],
                                          e["config_name"]))

    @pytest.mark.parametrize("cells", KINDS,
                             ids=lambda fn: fn.__name__[len("_cells_"):])
    def test_returned_record_is_manifest_entry(self, tmp_path, cells):
        cold = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        records = cells(cold)
        assert records and all(not r.cache_hit for r in records)
        assert [r.to_dict() for r in records] == cold.manifest

        warm = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        again = cells(warm)
        assert all(r.cache_hit for r in again)
        assert [r.to_dict() for r in again] == warm.manifest
        assert self.stable(again) == self.stable(records)


class TestBatchDedup:
    def test_identical_duplicate_configs_simulate_once(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        calls = []
        original = runner._cell_fn

        def counting(program, trace, config):
            calls.append(config.name)
            return original(program, trace, config)

        runner._cell_fn = counting
        results = runner.run_suite(
            ["gap"], [baseline_lsq_config(), baseline_lsq_config()],
            jobs=1)
        assert len(results) == 1
        assert len(calls) == 1
        assert len(runner.manifest) == 1

    def test_same_payload_different_names_share_one_simulation(self):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        calls = []
        original = runner._cell_fn

        def counting(program, trace, config):
            calls.append(config.name)
            return original(program, trace, config)

        runner._cell_fn = counting
        results = runner.run_suite(
            ["gap"], [baseline_lsq_config(name="alpha"),
                      baseline_lsq_config(name="beta")], jobs=1)
        assert len(calls) == 1, "one cache key must simulate once"
        assert set(results) == {("gap", "alpha"), ("gap", "beta")}
        assert results[("gap", "alpha")].cycles == \
            results[("gap", "beta")].cycles
        names = [e["config_name"] for e in runner.manifest]
        assert sorted(names) == ["alpha", "beta"]

    def test_duplicate_name_with_different_payload_raises(self):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        changed = baseline_lsq_config()
        changed.rob_size = 64
        with pytest.raises(ValueError, match="duplicate config name"):
            runner.run_suite(["gap"], [baseline_lsq_config(), changed])


class TestEngineProvenance:
    def test_run_suite_records_effective_jobs(self, tmp_path):
        """run_suite(jobs=...) must be what the manifest reports, not
        the constructor default."""
        runner = ExperimentRunner(scale=SCALE, jobs=8, use_cache=False)
        runner.run_suite(["gap"], [baseline_lsq_config()], jobs=1)
        assert runner.manifest[-1]["engine"]["jobs"] == 1
        runner.run_suite(["crafty"], [baseline_lsq_config()], jobs=2)
        assert runner.manifest[-1]["engine"]["jobs"] == 2

    def test_cache_hit_records_effective_jobs(self, tmp_path):
        cold = ExperimentRunner(scale=SCALE, jobs=8, cache_dir=tmp_path)
        cold.run_suite(["gap"], [baseline_lsq_config()], jobs=1)
        warm = ExperimentRunner(scale=SCALE, jobs=8, cache_dir=tmp_path)
        warm.run_suite(["gap"], [baseline_lsq_config()], jobs=3)
        assert warm.manifest[-1]["cache_hit"] is True
        assert warm.manifest[-1]["engine"]["jobs"] == 3


class TestManifest:
    def test_manifest_entry_schema(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        result = runner.run("gap", baseline_lsq_config())
        (entry,) = runner.manifest
        assert entry["benchmark"] == "gap"
        assert entry["config_name"] == baseline_lsq_config().name
        assert entry["config"] == baseline_lsq_config().to_dict()
        assert entry["cycles"] == result.cycles
        assert entry["ipc"] == pytest.approx(result.ipc)
        assert entry["counters"] == result.counters
        assert entry["wall_time"] > 0
        assert entry["cache_hit"] is False
        assert entry["key"] == cache_key("gap", SCALE,
                                         baseline_lsq_config())

    def test_write_manifest_json(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        path = runner.write_manifest(tmp_path / "out" / "manifest.json")
        loaded = json.loads(path.read_text())
        assert len(loaded) == 1 and loaded[0]["benchmark"] == "gap"

    def test_manifest_table_renders(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        runner.run("gap", baseline_lsq_config())
        text = manifest_table(runner)
        assert "gap" in text
        assert "hit" in text and "miss" in text
        assert "1 cache hits, 1 simulated" in text


class TestRunSystem:
    def make_config(self, cores=2, memory_mode="private"):
        from repro.pipeline import SystemConfig
        return SystemConfig(core=baseline_sfc_mdt_config(), cores=cores,
                            memory_mode=memory_mode)

    def test_multicore_cell_cached(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        cold = runner.run_system("gap", self.make_config())
        warm = runner.run_system("gap", self.make_config())
        assert [e["cache_hit"] for e in runner.manifest] == [False, True]
        assert cold.cycles == warm.cycles
        assert cold.counters == warm.counters
        assert warm.cores == 2

    def test_system_key_distinct_from_core_key(self):
        core = baseline_sfc_mdt_config()
        assert cache_key("gap", SCALE, core) != \
            cache_key("gap", SCALE, self.make_config(cores=1))

    def test_key_varies_with_cores_and_mode(self):
        keys = {cache_key("gap", SCALE, self.make_config(cores=n,
                                                         memory_mode=m))
                for n in (1, 2) for m in ("shared", "private")}
        assert len(keys) == 4

    def test_litmus_cell_via_engine(self, tmp_path):
        from repro.pipeline import SystemConfig
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        config = SystemConfig(core=baseline_sfc_mdt_config(), cores=2,
                              memory_mode="shared")
        record = runner.run_system("litmus-mp", config)
        assert record.benchmark == "litmus-mp"
        assert record.cores == 2

    def test_litmus_config_mismatch_rejected(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="needs exactly 2"):
            runner.run_system("litmus-mp", self.make_config(
                cores=3, memory_mode="shared"))
        with pytest.raises(ValueError, match="shared"):
            runner.run_system("litmus-mp", self.make_config(
                cores=2, memory_mode="private"))
