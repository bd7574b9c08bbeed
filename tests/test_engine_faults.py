"""Failure-injection tests for the fault-tolerant experiment engine.

Each test swaps the engine's per-cell worker function (``_cell_fn``)
for a double that crashes, hangs, or raises on marked configurations,
then proves the recovery path: every other cell still completes and
checkpoints to the cache, exactly one structured failure entry lands in
the manifest, and a resumed run simulates only the missing cell.

The doubles live at module level so the process pool can pickle them;
they dispatch on ``config.name`` prefixes.  The marked configs carry
distinct parameter payloads (``rob_size``) so in-batch cache-key dedup
does not merge a faulty cell with a healthy one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.harness import baseline_lsq_config
from repro.harness.experiment import ExperimentRunner, _simulate_cell

SCALE = 800
BENCH = "gap"

# The doubles are pickled by reference into forked workers; under a
# spawn start method the child would have to re-import this test module,
# which is not on its path.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker doubles require the fork start method")


def cfg(name: str, rob: int):
    """A config whose payload (not just name) is unique in the grid."""
    config = baseline_lsq_config(name=name)
    config.rob_size = rob
    return config


def _crash_on_marked(program, limit, config):
    if config.name.startswith("crash"):
        os._exit(23)
    return _simulate_cell(program, limit, config)


def _hang_on_marked(program, limit, config):
    if config.name.startswith("hang"):
        time.sleep(60)
    return _simulate_cell(program, limit, config)


def _raise_on_marked(program, limit, config):
    if config.name.startswith("boom"):
        raise RuntimeError("injected cell failure")
    return _simulate_cell(program, limit, config)


def _raise_once_on_marked(program, limit, config):
    """Raises on the marked cell's first attempt only: the sentinel
    file (path via environment, inherited by workers) records that the
    first attempt happened."""
    if config.name.startswith("flaky"):
        sentinel = Path(os.environ["REPRO_TEST_FLAKY_SENTINEL"])
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # retry attempt: succeed normally
        else:
            os.close(fd)
            raise RuntimeError("injected first-attempt failure")
    return _simulate_cell(program, limit, config)


def _chaos_on_marked(program, limit, config):
    if config.name.startswith("crash"):
        os._exit(23)
    if config.name.startswith("boom"):
        raise RuntimeError("injected cell failure")
    if config.name.startswith("hang"):
        time.sleep(60)
    return _simulate_cell(program, limit, config)


def _crash_once_on_marked(program, limit, config):
    if config.name.startswith("flaky"):
        sentinel = Path(os.environ["REPRO_TEST_FLAKY_SENTINEL"])
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os._exit(23)
    return _simulate_cell(program, limit, config)


def runner(tmp_path, **kwargs):
    kwargs.setdefault("retry_backoff", 0.0)
    return ExperimentRunner(scale=SCALE, cache_dir=tmp_path / "cache",
                            **kwargs)


def failure_entries(engine):
    return [e for e in engine.manifest if e["status"] != "ok"]


@fork_only
class TestCrashRecovery:
    def test_crash_loses_only_the_crashing_cell(self, tmp_path):
        engine = runner(tmp_path, max_retries=1)
        engine._cell_fn = _crash_on_marked
        configs = [cfg("ok1", 128), cfg("crash-me", 64),
                   cfg("ok2", 96), cfg("ok3", 160)]
        results = engine.run_suite([BENCH], configs, jobs=2)

        assert set(results) == {(BENCH, "ok1"), (BENCH, "ok2"),
                                (BENCH, "ok3")}
        failures = failure_entries(engine)
        assert len(failures) == 1
        (entry,) = failures
        assert entry["config_name"] == "crash-me"
        assert entry["status"] == "failed"
        assert entry["attempts"] == 2  # first try + one retry
        assert "BrokenProcessPool" in entry["error"]
        # The three healthy cells checkpointed to cache as they
        # finished, despite the crash.
        cache_files = list((tmp_path / "cache").glob("*.json"))
        assert len(cache_files) == 3

    def test_resume_completes_only_the_missing_cell(self, tmp_path):
        configs = [cfg("ok1", 128), cfg("crash-me", 64),
                   cfg("ok2", 96), cfg("ok3", 160)]
        crashed = runner(tmp_path, max_retries=0)
        crashed._cell_fn = _crash_on_marked
        crashed.run_suite([BENCH], configs, jobs=2)
        assert len(failure_entries(crashed)) == 1

        resumed = runner(tmp_path)  # healthy worker this time
        results = resumed.run_suite([BENCH], configs, jobs=2)
        assert len(results) == 4
        assert resumed.cache_hits == 3, \
            "completed cells must come back from the checkpoint cache"
        assert resumed.cache_misses == 1, \
            "only the previously crashed cell may re-simulate"
        assert not failure_entries(resumed)

    def test_crash_once_then_succeed_on_retry(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_SENTINEL",
                           str(tmp_path / "sentinel"))
        engine = runner(tmp_path, max_retries=2)
        engine._cell_fn = _crash_once_on_marked
        results = engine.run_suite(
            [BENCH], [cfg("flaky", 64), cfg("ok1", 128)], jobs=2)
        assert len(results) == 2
        assert not failure_entries(engine)
        assert all(e["status"] == "ok" for e in engine.manifest)


@fork_only
class TestHangRecovery:
    def test_hung_worker_times_out_and_grid_survives(self, tmp_path):
        engine = runner(tmp_path, max_retries=0, cell_timeout=0.5)
        engine._cell_fn = _hang_on_marked
        configs = [cfg("ok1", 128), cfg("hang-me", 64), cfg("ok2", 96)]
        started = time.monotonic()
        results = engine.run_suite([BENCH], configs, jobs=2)
        elapsed = time.monotonic() - started

        assert set(results) == {(BENCH, "ok1"), (BENCH, "ok2")}
        failures = failure_entries(engine)
        assert len(failures) == 1
        (entry,) = failures
        assert entry["config_name"] == "hang-me"
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 1
        assert "timeout" in entry["error"]
        # The 60s sleeper was reclaimed, not waited out.
        assert elapsed < 30

    def test_timeout_resume_completes_only_the_hung_cell(self, tmp_path):
        configs = [cfg("ok1", 128), cfg("hang-me", 64), cfg("ok2", 96)]
        hung = runner(tmp_path, max_retries=0, cell_timeout=0.5)
        hung._cell_fn = _hang_on_marked
        hung.run_suite([BENCH], configs, jobs=2)

        resumed = runner(tmp_path)
        results = resumed.run_suite([BENCH], configs, jobs=2)
        assert len(results) == 3
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 1


@fork_only
class TestExceptionRetry:
    def test_persistent_exception_becomes_failure_entry(self, tmp_path):
        engine = runner(tmp_path, max_retries=2)
        engine._cell_fn = _raise_on_marked
        results = engine.run_suite(
            [BENCH], [cfg("boom", 64), cfg("ok1", 128)], jobs=2)
        assert set(results) == {(BENCH, "ok1")}
        (entry,) = failure_entries(engine)
        assert entry["status"] == "failed"
        assert entry["attempts"] == 3  # first try + two retries
        assert "RuntimeError: injected cell failure" in entry["error"]

    def test_transient_exception_retries_to_success(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_SENTINEL",
                           str(tmp_path / "sentinel"))
        engine = runner(tmp_path, max_retries=2)
        engine._cell_fn = _raise_once_on_marked
        results = engine.run_suite(
            [BENCH], [cfg("flaky", 64), cfg("ok1", 128)], jobs=2)
        assert len(results) == 2
        assert not failure_entries(engine)
        by_name = {e["config_name"]: e for e in engine.manifest}
        assert by_name["flaky"]["attempts"] == 2
        assert by_name["ok1"]["attempts"] == 1


class TestSerialPaths:
    def test_serial_exception_is_recorded_not_raised(self, tmp_path):
        engine = runner(tmp_path, max_retries=1)
        engine._cell_fn = _raise_on_marked
        results = engine.run_suite(
            [BENCH], [cfg("boom", 64), cfg("ok1", 128)], jobs=1)
        assert set(results) == {(BENCH, "ok1")}
        (entry,) = failure_entries(engine)
        assert entry["status"] == "failed"
        assert entry["attempts"] == 2

    def test_unusable_pool_degrades_to_serial(self, tmp_path):
        engine = runner(tmp_path, max_retries=0, max_pool_rebuilds=1)

        def broken_factory(workers):
            raise OSError("no processes available")

        engine._pool_factory = broken_factory
        configs = [cfg("ok1", 128), cfg("ok2", 64),
                   cfg("ok3", 96), cfg("ok4", 160)]
        results = engine.run_suite([BENCH], configs, jobs=4)
        assert len(results) == 4, \
            "serial degradation must complete the whole grid"
        assert not failure_entries(engine)
        assert all(e["engine"]["jobs"] == 4 for e in engine.manifest)


@fork_only
@pytest.mark.slow
class TestFaultStress:
    def test_mixed_fault_grid_converges(self, tmp_path):
        """A grid mixing a crasher, a raiser, a hanger, and healthy
        cells converges to N-3 results and 3 structured failures."""
        engine = runner(tmp_path, max_retries=1, cell_timeout=1.0,
                        max_pool_rebuilds=8)
        engine._cell_fn = _chaos_on_marked
        configs = [cfg("ok1", 128), cfg("crash-a", 64),
                   cfg("boom-b", 96), cfg("hang-c", 160),
                   cfg("ok2", 256), cfg("ok3", 48), cfg("ok4", 72)]
        results = engine.run_suite([BENCH], configs, jobs=3)
        assert set(results) == {(BENCH, n)
                                for n in ("ok1", "ok2", "ok3", "ok4")}
        failures = {e["config_name"]: e["status"]
                    for e in failure_entries(engine)}
        assert failures == {"crash-a": "failed", "boom-b": "failed",
                            "hang-c": "timeout"}
        # ...and a resumed healthy run completes exactly the missing 3.
        resumed = runner(tmp_path)
        resumed.run_suite([BENCH], configs, jobs=3)
        assert resumed.cache_hits == 4
        assert resumed.cache_misses == 3
        assert not failure_entries(resumed)
