"""The benchmark's four workloads, each a repeatable *pass* over the
simulator's public API.

A pass is the unit that gets timed: it builds a fresh
:class:`~repro.harness.experiment.ExperimentRunner` (and fresh on-disk
stores where the workload uses them), runs the workload's declared
grid, and returns a :class:`PassResult` with the per-cell result
digests, the instruction counts behind the throughput metrics, and the
raw manifest entries the traced run derives per-layer ratios from.

Correctness is judged per cell: a cell passes when it completed and its
digest equals the expected one -- the digest stored in
``reference.json`` for this workload at this scale, or (for a scale
with no stored digests) the digest the cell produced the first time in
this run.  Exceptions, failed or timed-out cells, cache-resume misses
and digest mismatches all count as failed cells instead of aborting.

Each pass is timed twice: by the wall clock and by the processor time
it used, its own plus (for the pool) its workers'.  The end-to-end
metrics use processor time, which a shared host's other tenants hardly
move; wall time goes to the run record beside it.

The workload seed selects one of :data:`VARIANTS` input scales.  The
default seed runs the base scale; every other seed runs one of the
slightly larger ones (half a percent apart), which changes every
kernel's loop trip counts and therefore every simulated outcome.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.isa.predecode as predecode
from repro.core.predictors import NOT_ENF
from repro.harness import figures
from repro.harness.configs import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import ExperimentRunner
from repro.obs.runrecord import STATUS_OK
from repro.pipeline.config import MEMORY_PRIVATE, SystemConfig
from repro.workloads import suites

#: Seed whose inputs are the base scale of every workload.
DEFAULT_SEED = 0

#: Number of input scales a seed can select (the base scale included).
VARIANTS = 4

#: Result fields a cell digest covers: the architected outcome, as in
#: :func:`repro.perf.manifest_digest`, plus the sampled-mode block.
DIGEST_FIELDS = ("benchmark", "config_name", "config", "scale", "cycles",
                 "instructions", "ipc", "counters", "sampling")

RunnerHook = Callable[[ExperimentRunner], None]


def variant_scale(base: int, variant: int) -> int:
    """Input scale of one variant: ``base`` plus half a percent per step."""
    return base + variant * (base // 200)


def seed_variant(name: str, seed: int) -> int:
    """The variant a seed selects: 0 for :data:`DEFAULT_SEED`, otherwise
    a deterministic pick among the others."""
    if seed == DEFAULT_SEED:
        return 0
    return random.Random(f"{name}:{seed}").randint(1, VARIANTS - 1)


def cell_digest(entry: dict) -> str:
    """Short SHA-256 over one manifest entry's architected outcome."""
    fields = {name: entry.get(name) for name in DIGEST_FIELDS}
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class PassResult:
    """What one timed pass produced."""

    def __init__(self, timer: "PassTimer", attempted: int,
                 digests: Dict[str, str], entries: List[dict],
                 simulated_insts: int, covered_insts: int,
                 errors: List[str], extra: Optional[dict] = None):
        self.wall_s = timer.wall_s
        #: Processor seconds of this process and its pool workers.
        self.cpu_s = timer.cpu_s + (extra or {}).get("worker_cpu_s", 0.0)
        #: Declared cells of the pass.
        self.attempted = attempted
        #: Cell id -> digest, for every cell that completed.
        self.digests = digests
        #: Manifest entries of every simulated or cache-served cell.
        self.entries = entries
        #: Instructions retired by detailed simulation in this pass.
        self.simulated_insts = simulated_insts
        #: Program span the pass's results stand for.
        self.covered_insts = covered_insts
        #: Cells the workload itself rejected (exceptions, resume misses).
        self.errors = errors
        #: Workload-specific figures (pool wall, worker peaks, accuracy).
        self.extra = extra or {}
        #: Set by :meth:`Workload.score`.
        self.failed = attempted


def _shared_kb() -> int:
    """Kilobytes of this process's resident pages that another process
    maps too (Linux ``/proc/self/smaps_rollup``)."""
    shared = 0
    with open("/proc/self/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(("Shared_Clean:", "Shared_Dirty:")):
                shared += int(line.split()[1])
    return shared


class PassTimer:
    """Wall and processor time of this process since construction; call
    :meth:`stop` at the end of the timed region."""

    def __init__(self):
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        self.wall_s = self.cpu_s = 0.0

    def stop(self) -> "PassTimer":
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu
        return self


class WorkerUsageCell:
    """Picklable ``_cell_fn`` wrapper that records, after every cell, the
    pool worker's own peak memory (kilobytes) and processor seconds so
    far in a new file ``directory/<pid>-<n>``, so the parent can add its
    workers' usage to its own.  Each record is a new file because
    truncating an existing one can cost more than a small cell.

    A forked worker's processor time starts at zero, so its last record
    holds all it used up to the end of its last cell.  Cells the runner
    runs in the parent itself (one job, or a pool fallback) record
    nothing: the parent counts its own usage.

    A forked worker's peak resident set starts at the parent's, and the
    pages it still shares with the parent (or any other process) are
    counted in the parent's figure already.  So the record is the peak
    resident set minus the pages shared now.  Sharing only shrinks after
    the fork, so this errs slightly high, never counting a shared page
    twice."""

    def __init__(self, inner, directory: str):
        self.inner = inner
        self.directory = directory
        self.parent = os.getpid()

    def __call__(self, *args):
        try:
            return self.inner(*args)
        finally:
            if os.getpid() != self.parent:
                self._record()

    def _record(self) -> None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            - _shared_kb()
        name = f"{os.getpid()}-{time.monotonic_ns()}"
        with open(os.path.join(self.directory, name), "x") as handle:
            handle.write(f"{peak} {time.process_time()!r}")


def _worker_usage(directory: Path) -> Tuple[int, float]:
    """Sums over workers of each one's highest recorded peak (kilobytes)
    and processor seconds."""
    usage: Dict[str, Tuple[int, float]] = {}
    for path in directory.iterdir():
        pid = path.name.split("-")[0]
        peak, cpu = path.read_text().split()
        old_peak, old_cpu = usage.get(pid, (0, 0.0))
        usage[pid] = (max(old_peak, int(peak)), max(old_cpu, float(cpu)))
    return (sum(peak for peak, _ in usage.values()),
            sum(cpu for _, cpu in usage.values()))


def _ok_entries(entries: List[dict]) -> List[dict]:
    return [entry for entry in entries if entry["status"] == STATUS_OK]


def _cell(entry: dict) -> str:
    return f"{entry['benchmark']}/{entry['config_name']}"


class Workload:
    """Base class: seed-selected scale, runner construction, scoring."""

    name = ""
    base_scale = 0
    benchmarks: List[str] = []

    def __init__(self, seed: int = DEFAULT_SEED, scale: Optional[int] = None,
                 workdir: Path = Path(".perfbench_out") / "work",
                 runner_hook: Optional[RunnerHook] = None):
        self.seed = seed
        self.scale = scale if scale is not None else variant_scale(
            self.base_scale, seed_variant(self.name, seed))
        self.workdir = Path(workdir)
        #: Called on every runner the workload creates (tracing, tests).
        self.runner_hook = runner_hook
        #: Cell id -> expected digest; cells missing here are pinned to
        #: their first result in this run.
        self.expected: Dict[str, str] = {}
        self._fresh = 0
        self._scratch: List[Path] = []

    def setup(self) -> None:
        """Build and predecode every program the workload simulates."""
        for benchmark in self.benchmarks:
            suites.build(benchmark, self.scale).predecoded()

    def reset(self) -> None:
        """Drop the process-wide predecode cache, and with it every
        compiled fast-forward block, so that the next pass predecodes
        and compiles as a fresh run of the simulator does.  Callers do
        this outside the pass."""
        predecode._CACHE.clear()

    def runner(self, **kwargs) -> ExperimentRunner:
        runner = ExperimentRunner(self.scale, **kwargs)
        if self.runner_hook is not None:
            self.runner_hook(runner)
        return runner

    def fresh_dir(self, label: str) -> Path:
        self._fresh += 1
        path = self.workdir / f"{self.name}-{os.getpid()}-{label}-" \
                              f"{self._fresh}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        self._scratch.append(path)
        return path

    def cleanup(self) -> None:
        """Wait for the last pass's pool workers to end and remove its
        scratch stores; callers do this outside the pass so that it is
        neither timed nor traced.  The runner shuts its pool down
        without waiting, and a worker still exiting would slow whatever
        is measured next."""
        for child in multiprocessing.active_children():
            child.join(timeout=60)
        while self._scratch:
            shutil.rmtree(self._scratch.pop(), ignore_errors=True)

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def score(self, result: PassResult) -> PassResult:
        """Count the pass's failed cells against the expected digests."""
        matched = 0
        for cell, digest in result.digests.items():
            expected = self.expected.setdefault(cell, digest)
            if expected == digest:
                matched += 1
            else:
                result.errors.append(f"{cell}: digest {digest}, expected "
                                     f"{expected}")
        result.failed = result.attempted - matched
        return result


class ExactGrid(Workload):
    """Figures 5 and 6 exactly as :mod:`repro.harness.figures` declares
    them, serial and in-process with the result cache off."""

    name = "exact-grid"
    base_scale = 3_000
    benchmarks = list(suites.ALL_BENCHMARKS)
    #: Configurations per benchmark in ``figure5`` and ``figure6``.
    FIGURES = (("fig5", figures.figure5, suites.FIGURE5_BENCHMARKS, 3),
               ("fig6", figures.figure6, suites.FIGURE6_BENCHMARKS, 4))

    def run_pass(self) -> PassResult:
        runner = self.runner(jobs=1, use_cache=False)
        digests: Dict[str, str] = {}
        errors: List[str] = []
        attempted = 0
        timer = PassTimer()
        for label, figure, benchmarks, configs in self.FIGURES:
            attempted += len(benchmarks) * configs
            first = len(runner.manifest)
            try:
                figure(self.scale, runner=runner)
            except Exception as exc:  # noqa: BLE001 -- counted per cell
                # A failed cell leaves a hole the figure cannot
                # normalise; the cells that did complete still count.
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
            for entry in _ok_entries(runner.manifest[first:]):
                digests[f"{label}/{_cell(entry)}"] = cell_digest(entry)
        timer.stop()
        entries = _ok_entries(runner.manifest)
        insts = sum(entry["instructions"] for entry in entries)
        return PassResult(timer, attempted, digests, runner.manifest, insts,
                          insts, errors)


class SuitePool(Workload):
    """Figure-5 benchmarks x baseline LSQ and SFC/MDT through the worker
    pool into a fresh result cache, then a resume pass from the cache."""

    name = "suite-pool"
    base_scale = 7_500
    benchmarks = suites.FIGURE5_BENCHMARKS

    def configs(self):
        return [baseline_lsq_config(), baseline_sfc_mdt_config()]

    def run_pass(self) -> PassResult:
        work = self.fresh_dir("pool")
        cache = work / "cache"
        peaks = work / "workers"
        peaks.mkdir()
        jobs = len(os.sched_getaffinity(0))  # nproc
        configs = self.configs()
        attempted = len(self.benchmarks) * len(configs)
        errors: List[str] = []

        timer = PassTimer()
        started = time.perf_counter()
        pool = ExperimentRunner(self.scale, jobs=jobs, cache_dir=cache)
        pool._cell_fn = WorkerUsageCell(pool._cell_fn, str(peaks))
        if self.runner_hook is not None:
            self.runner_hook(pool)
        try:
            pool.run_suite(self.benchmarks, configs)
        except Exception as exc:  # noqa: BLE001 -- counted per cell
            errors.append(f"pool: {type(exc).__name__}: {exc}")
        pool_wall = time.perf_counter() - started
        resume = self.runner(jobs=jobs, cache_dir=cache)
        try:
            resume.run_suite(self.benchmarks, configs)
        except Exception as exc:  # noqa: BLE001 -- counted per cell
            errors.append(f"resume: {type(exc).__name__}: {exc}")
        timer.stop()

        digests = {_cell(e): cell_digest(e)
                   for e in _ok_entries(pool.manifest)}
        # The resume pass must serve every cell from the cache, with the
        # very result the pool pass produced.
        resumed = {_cell(e): e for e in _ok_entries(resume.manifest)}
        for cell in list(digests):
            entry = resumed.get(cell)
            if entry is None or not entry["cache_hit"] or \
                    cell_digest(entry) != digests[cell]:
                errors.append(f"resume: {cell} not served unchanged "
                              f"from the cache")
                del digests[cell]
        simulated = [e for e in _ok_entries(pool.manifest)
                     if not e["cache_hit"]]
        insts = sum(e["instructions"] for e in simulated)
        worker_peak_kb, worker_cpu_s = _worker_usage(peaks)
        extra = {
            "jobs": jobs,
            "pool_wall_s": pool_wall,
            "worker_busy_s": sum(e["wall_time"] for e in simulated),
            "worker_peak_kb": worker_peak_kb,
            "worker_cpu_s": worker_cpu_s,
            "cache_hits": pool.cache_hits + resume.cache_hits,
            "cache_misses": pool.cache_misses + resume.cache_misses,
        }
        return PassResult(timer, attempted, digests,
                          pool.manifest + resume.manifest, insts, insts,
                          errors, extra)


class Multicore(Workload):
    """Two lockstepped cores in private memory mode on the baseline
    SFC/MDT config over the Figure-5 benchmarks."""

    name = "multicore"
    base_scale = 6_000
    benchmarks = suites.FIGURE5_BENCHMARKS

    def run_pass(self) -> PassResult:
        runner = self.runner(jobs=1, use_cache=False)
        config = SystemConfig(baseline_sfc_mdt_config(), cores=2,
                              memory_mode=MEMORY_PRIVATE)
        errors: List[str] = []
        timer = PassTimer()
        for benchmark in self.benchmarks:
            try:
                runner.run_system(benchmark, config)
            except Exception as exc:  # noqa: BLE001 -- counted per cell
                errors.append(f"{benchmark}: {type(exc).__name__}: {exc}")
        timer.stop()
        entries = _ok_entries(runner.manifest)
        digests = {_cell(e): cell_digest(e) for e in entries}
        insts = sum(e["instructions"] for e in entries)
        return PassResult(timer, len(self.benchmarks), digests,
                          runner.manifest, insts, insts, errors)


class Sampled(Workload):
    """Checkpointed interval sampling on the sampling validation's
    declared kernels: one config against a cold checkpoint store, then a
    fresh runner on the warm store with the remaining configs."""

    name = "sampled"
    base_scale = 2_000_000
    benchmarks = ["gzip", "mcf", "equake"]
    #: Sampling parameters of ``benchmarks/measure_sampling.py``.
    PARAMS = {"intervals": 10, "warmup_insts": 1_000,
              "interval_insts": 5_000}

    #: Cell id -> full-run IPC from exact detailed simulation; set by
    #: the caller from the stored references.
    references: Dict[str, float] = {}

    def cold_config(self):
        return baseline_sfc_mdt_config()

    def warm_configs(self):
        return [baseline_lsq_config(),
                baseline_sfc_mdt_config(mode=NOT_ENF, name="NOT-ENF")]

    def configs(self):
        return [self.cold_config()] + self.warm_configs()

    def run_pass(self) -> PassResult:
        work = self.fresh_dir("store")
        errors: List[str] = []
        timer = PassTimer()
        cold = self.runner(jobs=1, cache_dir=work)
        for benchmark in self.benchmarks:
            self._sample(cold, benchmark, self.cold_config(), errors)
        warm = self.runner(jobs=1, cache_dir=work)
        for benchmark in self.benchmarks:
            for config in self.warm_configs():
                self._sample(warm, benchmark, config, errors)
        timer.stop()

        entries = _ok_entries(cold.manifest + warm.manifest)
        digests = {}
        errors_pct, ci_pct = [], []
        for entry in entries:
            cell = _cell(entry)
            full = self.references.get(cell)
            if not full:
                # Accuracy cannot be checked without ground truth.
                errors.append(f"{cell}: no full-run IPC reference at "
                              f"scale {self.scale}")
                continue
            digests[cell] = cell_digest(entry)
            errors_pct.append(100.0 * abs(entry["ipc"] - full) / full)
            ci_pct.append(100.0 * entry["sampling"]["ipc_ci95"]
                          / entry["ipc"])
        extra = {
            "ipc_err_pct": sum(errors_pct) / max(len(errors_pct), 1),
            "ci95_pct": sum(ci_pct) / max(len(ci_pct), 1),
            "windows": sum(len(e["sampling"]["intervals"])
                           for e in entries),
        }
        return PassResult(
            timer, len(self.benchmarks) * len(self.configs()), digests,
            cold.manifest + warm.manifest,
            sum(e["sampling"]["detailed_instructions"] for e in entries),
            sum(e["sampling"]["total_instructions"] for e in entries),
            errors, extra)

    def _sample(self, runner, benchmark, config, errors) -> None:
        try:
            runner.run_sampled(benchmark, config, **self.PARAMS)
        except Exception as exc:  # noqa: BLE001 -- counted per cell
            errors.append(f"{benchmark}/{config.name}: "
                          f"{type(exc).__name__}: {exc}")


WORKLOADS = {cls.name: cls for cls in (ExactGrid, Sampled, SuitePool,
                                       Multicore)}
