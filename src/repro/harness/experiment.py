"""Experiment engine: (benchmark x configuration) grids, in parallel,
with golden-trace reuse, a persistent on-disk result cache, and a
fault-tolerant, resumable scheduler.

One :class:`ExperimentRunner` owns three layers of reuse:

* **golden traces** -- each workload's architectural execution happens
  once per (benchmark, scale) no matter how many processor
  configurations are measured against it, and is shipped to worker
  processes so they never re-interpret the program;
* **process-pool scheduling** -- ``run_suite`` farms uncached grid cells
  out to a ``ProcessPoolExecutor`` (``jobs`` workers, default
  ``os.cpu_count()``; ``jobs=1`` preserves the serial in-process path
  for determinism tests and debugging);
* **persistent result cache** -- completed cells are stored as JSON
  under ``.repro_cache/`` (override with ``cache_dir`` or the
  ``REPRO_CACHE_DIR`` environment variable), keyed by a content hash of
  the benchmark name, the scale, and the full canonical
  ``ProcessorConfig.to_dict()``, so identical cells are never
  re-simulated across runs, benches, or processes.

The simulator is fully deterministic, so all three paths (serial,
parallel, cached) produce identical :class:`SimResult` grids.

Fault tolerance (``run_suite``)
-------------------------------

Long sweeps must survive worker crashes, hangs, and restarts instead of
losing every completed-but-unreported cell.  ``run_suite`` therefore
dispatches cells with ``submit``/``wait`` instead of an eager ordered
``pool.map``:

* completed cells **checkpoint to the persistent cache as they finish**,
  so an interrupted sweep resumes from the cache (``repro suite
  --resume``) instead of re-simulating everything;
* each failing cell is retried with exponential backoff up to
  ``max_retries`` extra attempts; a worker crash
  (``BrokenProcessPool``) triggers pool re-creation and requeues every
  in-flight cell, re-running ambiguous crash victims solo so the crash
  is attributed to exactly one cell;
* an optional per-cell wall-clock timeout (``cell_timeout``) reclaims
  hung workers by tearing the pool down and rescheduling the innocent
  in-flight cells;
* when the pool repeatedly fails without making progress
  (``max_pool_rebuilds``), the engine degrades gracefully to serial
  in-process execution of the remaining cells;
* cells that exhaust their budget land in the manifest as structured
  failure entries (``status`` failed/timeout, ``attempts``, ``error``)
  instead of raising away the rest of the grid.

Every cell additionally appends one versioned
:class:`~repro.obs.runrecord.RunRecord` dict to :attr:`ExperimentRunner.
manifest` -- schema version, config dict, cycles, IPC, metric snapshot,
wall-time, engine/cache provenance, and the fault-tolerance outcome --
which the figure layer, the benches, ``repro.api``, and the CLI's
``--format json`` all consume instead of ad-hoc prints (see
:func:`repro.harness.figures.manifest_table` and
:meth:`ExperimentRunner.records`).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from ..checkpoint.sampling import sample_run
from ..checkpoint.store import CheckpointStore
from ..isa.interp import RetireRecord, run_program
from ..isa.program import Program
from ..obs.runrecord import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
)
from ..pipeline.config import ProcessorConfig, SystemConfig
from ..pipeline.processor import Processor, SimResult
from ..pipeline.system import System
from ..stats.counters import Counters
from ..store import Namespace, content_key
from ..workloads import litmus, suites

#: Default dynamic instruction budget per benchmark run.  Small enough for
#: a pure-Python cycle-level simulator, large enough for the rates the
#: paper reports to stabilise.
DEFAULT_SCALE = 20_000

#: Upper bound on architectural execution (guards against kernel bugs).
TRACE_LIMIT = 5_000_000

#: Bump whenever the simulator's observable behaviour or the cached
#: payload layout changes; every existing cache entry is invalidated.
CACHE_FORMAT = 1

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Default retry budget: extra attempts after the first per grid cell.
DEFAULT_MAX_RETRIES = 2

#: First retry delay in seconds; doubles per attempt, capped at 4s.
DEFAULT_RETRY_BACKOFF = 0.25

#: Consecutive pool failures without a completed cell before the engine
#: degrades to serial in-process execution.
DEFAULT_MAX_POOL_REBUILDS = 6

_CRASH_ERROR = "worker process crashed (BrokenProcessPool)"


def cache_key(benchmark: str, scale: int, config,
              sampling: Optional[dict] = None) -> str:
    """Content hash identifying one grid cell.

    The hash covers the benchmark name, the scale, the cache format
    version, and the full canonical config dict *except* ``name``:
    the name is a display label, so two differently named but otherwise
    identical configurations share one cache entry.  ``config`` is a
    :class:`~repro.pipeline.config.CoreConfig` for single-core cells or
    a :class:`~repro.pipeline.config.SystemConfig` for multicore ones
    (whose dict nests the core config, so the two namespaces can never
    collide).

    ``sampling`` (the sampled-mode parameter dict) is folded in only
    when present, so every pre-existing exact-mode key is byte-stable
    and sampled cells can never collide with exact cells.
    """
    payload = config.to_dict()
    payload.pop("name", None)
    body = {"format": CACHE_FORMAT, "benchmark": benchmark,
            "scale": scale, "config": payload}
    if sampling is not None:
        body["sampling"] = sampling
    return content_key(body)


class ResultCache(Namespace):
    """One-JSON-file-per-result cache under a directory, with the
    checkpoint trains (:attr:`trains`) nested under its
    ``checkpoints/``.

    Both are namespaces of the atomic store in :mod:`repro.store`:
    concurrent runners sharing a cache directory -- even across hosts
    -- only ever observe complete entries, and unreadable or corrupt
    entries read as misses.  Opening the cache sweeps temp files
    orphaned by crashed writers in both namespaces; :meth:`gc`
    additionally drops entries this build can never read, each judged
    by its own namespace's format tag.
    """

    FORMAT = CACHE_FORMAT

    def __init__(self, directory: Union[str, Path]):
        super().__init__(directory)
        self.trains = CheckpointStore(self.directory / "checkpoints")
        self.sweep_stale_temps()

    def namespaces(self) -> List[Namespace]:
        return [self, self.trains]

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        return self._read(key)

    def store(self, key: str, payload: dict) -> None:
        self._write(key, payload)


def _simulate_cell(program: Program, trace: List[RetireRecord],
                   config: ProcessorConfig) -> dict:
    """Simulate one grid cell; returns the cacheable payload dict.

    Module-level so ``ProcessPoolExecutor`` can pickle it; the golden
    trace arrives prebuilt from the parent process.
    """
    started = time.perf_counter()
    result = Processor(program, config, trace=trace).run()
    return {
        "format": CACHE_FORMAT,
        "program_name": result.program_name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "counters": result.counters.as_dict(),
        "wall_time": time.perf_counter() - started,
    }


def _simulate_system_cell(programs, traces, config: SystemConfig) -> dict:
    """Simulate one N-core system cell; returns the cacheable payload."""
    started = time.perf_counter()
    result = System(programs, config, traces=traces).run()
    return {
        "format": CACHE_FORMAT,
        "program_name": result.program_name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "counters": dict(result.counters),
        "wall_time": time.perf_counter() - started,
        "cores": config.cores,
    }


class _Cell:
    """One uncached grid cell: a unique cache key plus every
    (benchmark, config) alias that hashes to it, and its retry state."""

    __slots__ = ("benchmark", "configs", "key", "attempts", "timeouts",
                 "error")

    def __init__(self, benchmark: str, config: ProcessorConfig, key: str):
        self.benchmark = benchmark
        self.configs = [config]  # aliases sharing one cache entry
        self.key = key
        self.attempts = 0        # submissions charged to this cell
        self.timeouts = 0        # how many of those hit the timeout
        self.error = ""

    @property
    def primary(self) -> ProcessorConfig:
        return self.configs[0]


class _PoolUnusable(Exception):
    """The process pool failed repeatedly without completing any cell;
    the caller should degrade to serial execution."""


class ExperimentRunner:
    """Runs (benchmark x configuration) grids with golden-trace reuse,
    fault-tolerant process-pool parallelism, and persistent result
    caching."""

    def __init__(self, scale: int = DEFAULT_SCALE, verbose: bool = False,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 use_cache: bool = True,
                 cell_timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS):
        self.scale = scale
        self.verbose = verbose
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        #: Per-cell wall-clock timeout in seconds (None/0 disables).
        self.cell_timeout = cell_timeout
        #: Extra attempts per failing cell beyond the first.
        self.max_retries = DEFAULT_MAX_RETRIES if max_retries is None \
            else max_retries
        self.retry_backoff = retry_backoff
        self.max_pool_rebuilds = max_pool_rebuilds
        if use_cache:
            self.cache: Optional[ResultCache] = ResultCache(
                cache_dir or os.environ.get("REPRO_CACHE_DIR",
                                            DEFAULT_CACHE_DIR))
        else:
            self.cache = None
        #: One dict per completed cell, in completion order.
        self.manifest: List[dict] = []
        self._programs: Dict[str, Program] = {}
        self._traces: Dict[str, List[RetireRecord]] = {}
        #: Checkpoint trains for sampled mode, memoized in-process and
        #: (when the result cache is enabled) persisted inside it.
        self._checkpoints = self.cache.trains if self.cache \
            else CheckpointStore(None)
        #: Injection points for failure testing: the per-cell worker
        #: function (must stay picklable) and the pool constructor.
        self._cell_fn = _simulate_cell
        self._pool_factory = lambda workers: ProcessPoolExecutor(
            max_workers=workers)

    # ------------------------------------------------------------ workloads

    def program(self, benchmark: str) -> Program:
        if benchmark not in self._programs:
            self._programs[benchmark] = suites.build(benchmark, self.scale)
        return self._programs[benchmark]

    def trace(self, benchmark: str) -> List[RetireRecord]:
        if benchmark not in self._traces:
            self._traces[benchmark] = run_program(self.program(benchmark),
                                                  TRACE_LIMIT)
        return self._traces[benchmark]

    # ------------------------------------------------------------ single cell

    def run(self, benchmark: str, config: ProcessorConfig) -> SimResult:
        """Simulate one benchmark under one configuration (serial,
        in-process), consulting and filling the result cache."""
        key = cache_key(benchmark, self.scale, config)
        payload = self.cache.load(key) if self.cache else None
        hit = payload is not None
        if payload is None:
            payload = _simulate_cell(self.program(benchmark),
                                     self.trace(benchmark), config)
            if self.cache:
                self.cache.store(key, payload)
        self._record(benchmark, config, payload, key, hit)
        return self._rehydrate(config, payload)

    def run_system(self, benchmark: str,
                   config: SystemConfig) -> RunRecord:
        """Simulate one N-core system cell (serial, in-process) and
        return its versioned record (schema v3 when ``cores > 1``).

        ``benchmark`` is either a regular suite benchmark -- replicated
        across every core in ``private`` memory mode for N-up
        throughput -- or a litmus name (``litmus-mp``, ...), whose
        per-thread programs run over shared memory.  Cells consult and
        fill the same persistent result cache as single-core runs (the
        key hashes the full nested system config)."""
        key = cache_key(benchmark, self.scale, config)
        payload = self.cache.load(key) if self.cache else None
        hit = payload is not None
        if payload is None:
            if litmus.is_litmus(benchmark):
                test = litmus.get_litmus(benchmark)
                if config.cores != test.cores:
                    raise ValueError(
                        f"litmus test {test.name!r} needs exactly "
                        f"{test.cores} cores, got {config.cores}")
                if not config.shared_memory:
                    raise ValueError(
                        f"litmus test {test.name!r} requires shared "
                        f"memory mode, got {config.memory_mode!r}")
                programs = test.programs()
                traces = None
            else:
                programs = [self.program(benchmark)] * config.cores
                traces = [self.trace(benchmark)] * config.cores
            payload = _simulate_system_cell(programs, traces, config)
            if self.cache:
                self.cache.store(key, payload)
        self._record(benchmark, config, payload, key, hit,
                     cores=config.cores)
        return self.last_record()

    def run_sampled(self, benchmark: str, config: ProcessorConfig, *,
                    intervals: int = 10, warmup_insts: int = 1_000,
                    interval_insts: int = 5_000,
                    checkpoint_every: Optional[int] = None,
                    warm: bool = True,
                    horizon: Optional[int] = None) -> RunRecord:
        """Sampled simulation of one cell: checkpointed fast-forward
        with ``intervals`` detailed windows (see
        :func:`repro.checkpoint.sampling.sample_run`).

        The record's ``ipc`` is the per-interval mean; its ``sampling``
        block carries the confidence interval and the interval table.
        Sampled cells get their own cache keys (the sampling parameters
        are folded into the key), so they can never shadow or be
        shadowed by exact-mode entries, and the checkpoint train is
        shared content-addressed across every config of a benchmark --
        and, when ``horizon`` limits the sampled span, across horizons
        too (prefix reuse / in-place extension, so different scales
        never recapture).
        """
        params = {"intervals": intervals, "warmup_insts": warmup_insts,
                  "interval_insts": interval_insts,
                  "checkpoint_every": checkpoint_every or 0,
                  "warm": warm}
        if horizon is not None:
            # Folded in only when present so pre-existing sampled-cell
            # cache keys stay byte-stable.
            params["horizon"] = horizon
        key = cache_key(benchmark, self.scale, config, sampling=params)
        payload = self.cache.load(key) if self.cache else None
        hit = payload is not None
        if payload is None:
            program = self.program(benchmark)
            started = time.perf_counter()
            sampled = sample_run(
                program, config, intervals=intervals,
                warmup_insts=warmup_insts, interval_insts=interval_insts,
                checkpoint_every=checkpoint_every, warm=warm,
                store=self._checkpoints, limit=TRACE_LIMIT,
                horizon=horizon)
            payload = {
                "format": CACHE_FORMAT,
                "program_name": program.name,
                "cycles": sampled.cycles,
                "instructions": sampled.instructions,
                "counters": dict(sampled.counters),
                "wall_time": time.perf_counter() - started,
                "sampling": sampled.sampling_dict(),
            }
            if self.cache:
                self.cache.store(key, payload)
        self._record(benchmark, config, payload, key, hit,
                     sampling=payload.get("sampling"))
        return self.last_record()

    # ------------------------------------------------------------ grids

    def run_suite(self, benchmarks: Iterable[str],
                  configs: Iterable[ProcessorConfig],
                  jobs: Optional[int] = None,
                  cell_timeout: Optional[float] = None,
                  max_retries: Optional[int] = None
                  ) -> Dict[Tuple[str, str], SimResult]:
        """Run the full grid; keys are ``(benchmark, config.name)``.

        Cached cells are resolved up front; the remainder is simulated
        serially (``jobs=1``) or farmed out to a fault-tolerant process
        pool.  The returned grid is identical in all modes.  Cells that
        exhaust their retry budget are *omitted* from the returned grid
        and appear in :attr:`manifest` as structured failure entries
        (``status`` failed/timeout, ``attempts``, ``error``) -- one
        crashed or hung worker no longer discards every other cell.

        Duplicate configurations are deduplicated by cache key within
        the batch (each unique cell simulates once); reusing a
        ``config.name`` for a *different* parameterisation raises
        ``ValueError``, since grid keys would silently collide.
        """
        benchmarks = list(benchmarks)
        configs = self._dedup_configs(configs)
        jobs = self.jobs if jobs is None else jobs
        cell_timeout = self.cell_timeout if cell_timeout is None \
            else cell_timeout
        max_retries = self.max_retries if max_retries is None \
            else max_retries
        results: Dict[Tuple[str, str], SimResult] = {}
        cells: Dict[str, _Cell] = {}
        order: List[_Cell] = []
        for benchmark in benchmarks:
            for config in configs:
                key = cache_key(benchmark, self.scale, config)
                payload = self.cache.load(key) if self.cache else None
                if payload is not None:
                    self._record(benchmark, config, payload, key, True,
                                 jobs=jobs)
                    results[(benchmark, config.name)] = \
                        self._rehydrate(config, payload)
                    continue
                cell = cells.get(key)
                if cell is None:
                    cells[key] = cell = _Cell(benchmark, config, key)
                    order.append(cell)
                else:
                    # identical payload under another display name:
                    # simulate once, record per alias
                    cell.configs.append(config)

        if not order:
            return results
        if len(order) <= 1 or jobs <= 1:
            self._run_cells_serial(order, results, jobs, max_retries)
            return results
        self._run_cells_pool(order, results, jobs, cell_timeout,
                             max_retries)
        return results

    @staticmethod
    def _dedup_configs(configs: Iterable[ProcessorConfig]
                       ) -> List[ProcessorConfig]:
        out: List[ProcessorConfig] = []
        seen: Dict[str, dict] = {}
        for config in configs:
            payload = config.to_dict()
            prior = seen.get(config.name)
            if prior is None:
                seen[config.name] = payload
                out.append(config)
            elif prior != payload:
                raise ValueError(
                    f"duplicate config name {config.name!r} with "
                    f"differing parameters; grid cells are keyed by "
                    f"(benchmark, config.name) and would silently "
                    f"overwrite each other")
            # else: exact duplicate occurrence -- run once, not twice
        return out

    # ------------------------------------------------------------ execution

    def _run_cells_serial(self, cells: List[_Cell],
                          results: Dict[Tuple[str, str], SimResult],
                          jobs: int, max_retries: int) -> None:
        """In-process execution with the same retry/failure-record
        semantics as the pool path (no timeout enforcement: a hang
        cannot be reclaimed in-process, so cells that already timed out
        in a worker are recorded as timeouts instead of re-run)."""
        for cell in cells:
            if cell.timeouts:
                self._fail_cell(cell, STATUS_TIMEOUT, jobs)
                continue
            program = self.program(cell.benchmark)
            trace = self.trace(cell.benchmark)
            while True:
                cell.attempts += 1
                try:
                    payload = self._cell_fn(program, trace, cell.primary)
                except Exception as exc:  # noqa: BLE001 -- isolate cells
                    cell.error = f"{type(exc).__name__}: {exc}"
                    if cell.attempts > max_retries:
                        self._fail_cell(cell, STATUS_FAILED, jobs)
                        break
                    self._sleep_backoff(cell.attempts)
                else:
                    self._finish_cell(cell, payload, results, jobs)
                    break

    def _run_cells_pool(self, cells: List[_Cell],
                        results: Dict[Tuple[str, str], SimResult],
                        jobs: int, cell_timeout: Optional[float],
                        max_retries: int) -> None:
        """Fault-tolerant ``submit``/``wait`` scheduler over a process
        pool; degrades to :meth:`_run_cells_serial` when the pool
        repeatedly fails without progress."""
        workers = min(jobs, len(cells))
        # Build every needed golden trace once, in the parent, before
        # the pool forks, so workers inherit/receive them instead of
        # re-interpreting the program per cell.
        for cell in cells:
            self.program(cell.benchmark)
            self.trace(cell.benchmark)

        queue: Deque[_Cell] = deque(cells)
        # Cells re-run strictly solo: crash victims awaiting
        # attribution and cells between retry attempts.
        quarantine: Deque[_Cell] = deque()
        inflight: Dict[object, Tuple[_Cell, Optional[float]]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        rebuilds = 0  # consecutive pool deaths with no completed cell

        def kill_pool() -> None:
            """Tear down a poisoned pool (hung or crashed workers)."""
            nonlocal pool
            if pool is None:
                return
            procs = getattr(pool, "_processes", None) or {}
            for proc in list(procs.values()):
                try:
                    proc.terminate()
                except Exception:  # noqa: BLE001 -- already dying
                    pass
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except TypeError:  # Python < 3.9 signature
                pool.shutdown(wait=False)
            pool = None

        def recover_inflight() -> None:
            """The pool died under these cells through no proven fault
            of their own: refund the charged attempt and reschedule
            solo so any repeat offender is unambiguous."""
            for cell, _ in inflight.values():
                cell.attempts -= 1
                quarantine.append(cell)
            inflight.clear()

        def submit_one(cell: _Cell) -> bool:
            nonlocal rebuilds
            try:
                fut = pool.submit(self._cell_fn,
                                  self._programs[cell.benchmark],
                                  self._traces[cell.benchmark],
                                  cell.primary)
            except Exception:  # noqa: BLE001 -- pool already broken
                quarantine.appendleft(cell)
                recover_inflight()
                kill_pool()
                rebuilds += 1
                return False
            cell.attempts += 1
            deadline = (time.monotonic() + cell_timeout) \
                if cell_timeout else None
            inflight[fut] = (cell, deadline)
            return True

        def retry_or_fail(cell: _Cell, status: str) -> None:
            if cell.attempts > max_retries:
                self._fail_cell(cell, status, jobs)
            else:
                self._sleep_backoff(cell.attempts)
                quarantine.append(cell)

        try:
            while queue or quarantine or inflight:
                if pool is None:
                    if rebuilds > self.max_pool_rebuilds:
                        raise _PoolUnusable()
                    try:
                        pool = self._pool_factory(workers)
                    except Exception:  # noqa: BLE001 -- env failure
                        rebuilds += 1
                        self._sleep_backoff(rebuilds)
                        continue
                submitted = True
                if quarantine:
                    if not inflight:
                        submitted = submit_one(quarantine.popleft())
                else:
                    while submitted and queue and len(inflight) < workers:
                        submitted = submit_one(queue.popleft())
                if not submitted or not inflight:
                    continue

                timeout = None
                deadlines = [dl for _, dl in inflight.values()
                             if dl is not None]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)

                if not done:
                    # A deadline elapsed with the worker still running.
                    now = time.monotonic()
                    overdue = [fut for fut, (_, dl) in inflight.items()
                               if dl is not None and now >= dl]
                    if not overdue:
                        continue
                    for fut in overdue:
                        cell, _ = inflight.pop(fut)
                        cell.timeouts += 1
                        cell.error = (f"cell exceeded the "
                                      f"{cell_timeout:g}s timeout "
                                      f"(attempt {cell.attempts})")
                        retry_or_fail(cell, STATUS_TIMEOUT)
                    # The hung worker cannot be reclaimed: tear the
                    # pool down and recover the innocent cells.
                    recover_inflight()
                    kill_pool()
                    rebuilds += 1
                    continue

                crashed: List[_Cell] = []
                for fut in done:
                    cell, _ = inflight.pop(fut)
                    try:
                        payload = fut.result()
                    except BrokenProcessPool:
                        crashed.append(cell)
                    except Exception as exc:  # noqa: BLE001
                        cell.error = f"{type(exc).__name__}: {exc}"
                        retry_or_fail(cell, STATUS_FAILED)
                    else:
                        self._finish_cell(cell, payload, results, jobs)
                        rebuilds = 0
                if crashed:
                    if len(crashed) == 1 and not inflight:
                        # Sole running cell: the crash is its.
                        cell = crashed[0]
                        cell.error = _CRASH_ERROR
                        retry_or_fail(cell, STATUS_FAILED)
                    else:
                        # Ambiguous: nobody is charged; every victim
                        # re-runs solo so a crasher convicts itself.
                        for cell in crashed:
                            cell.attempts -= 1
                            quarantine.append(cell)
                    recover_inflight()
                    kill_pool()
                    rebuilds += 1
        except _PoolUnusable:
            remaining = list(queue) + list(quarantine) + \
                [cell for cell, _ in inflight.values()]
            inflight.clear()
            self._run_cells_serial(remaining, results, jobs, max_retries)
        finally:
            if pool is not None:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except TypeError:
                    pool.shutdown(wait=False)

    def _sleep_backoff(self, attempt: int) -> None:
        delay = self.retry_backoff * (2 ** (attempt - 1))
        if delay > 0:
            time.sleep(min(delay, 4.0))

    # ------------------------------------------------------------ manifest

    def write_manifest(self, path: Union[str, Path]) -> Path:
        """Archive the run manifest (a list of versioned
        :class:`~repro.obs.runrecord.RunRecord` dicts) as JSON; returns
        the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.manifest, indent=2,
                                   sort_keys=True) + "\n")
        return path

    def records(self) -> List[RunRecord]:
        """Every completed cell as a validated :class:`RunRecord`."""
        return [RunRecord.from_dict(entry) for entry in self.manifest]

    def last_record(self) -> RunRecord:
        """The most recently completed cell as a :class:`RunRecord`."""
        if not self.manifest:
            raise IndexError("no cells have completed yet")
        return RunRecord.from_dict(self.manifest[-1])

    @property
    def cache_hits(self) -> int:
        return sum(1 for entry in self.manifest if entry["cache_hit"])

    @property
    def cache_misses(self) -> int:
        """Cells that simulated successfully (no cache entry)."""
        return sum(1 for entry in self.manifest
                   if not entry["cache_hit"]
                   and entry["status"] == STATUS_OK)

    @property
    def failures(self) -> int:
        """Cells recorded as failed/timed-out (no result produced)."""
        return sum(1 for entry in self.manifest
                   if entry["status"] != STATUS_OK)

    # ------------------------------------------------------------ internals

    def _finish_cell(self, cell: _Cell, payload: dict,
                     results: Dict[Tuple[str, str], SimResult],
                     jobs: int) -> None:
        """Checkpoint one completed cell immediately: persist to cache,
        then record/rehydrate every (benchmark, config) alias."""
        if self.cache:
            self.cache.store(cell.key, payload)
        for config in cell.configs:
            self._record(cell.benchmark, config, payload, cell.key, False,
                         jobs=jobs, attempts=max(cell.attempts, 1))
            results[(cell.benchmark, config.name)] = \
                self._rehydrate(config, payload)

    def _fail_cell(self, cell: _Cell, status: str, jobs: int) -> None:
        """Record a structured failure entry for every alias of a cell
        that exhausted its retry budget."""
        for config in cell.configs:
            record = RunRecord.failure(
                benchmark=cell.benchmark, config_name=config.name,
                config=config.to_dict(), scale=self.scale, key=cell.key,
                status=status, attempts=max(cell.attempts, 1),
                error=cell.error,
                engine=self._engine_provenance(jobs))
            self.manifest.append(record.to_dict())
            if self.verbose:
                print(f"  {cell.benchmark:<10s} {config.name:<28s} "
                      f"{status.upper()} after {record.attempts} "
                      f"attempt(s): {cell.error}")

    def _rehydrate(self, config: ProcessorConfig,
                   payload: dict) -> SimResult:
        return SimResult(payload["program_name"], config,
                         payload["cycles"], payload["instructions"],
                         Counters.from_dict(payload["counters"]))

    def _engine_provenance(self, jobs: Optional[int]) -> dict:
        return {"jobs": self.jobs if jobs is None else jobs,
                "cache_enabled": self.cache is not None}

    def _record(self, benchmark: str, config,
                payload: dict, key: str, hit: bool,
                jobs: Optional[int] = None, attempts: int = 1,
                cores: int = 1, sampling: Optional[dict] = None) -> None:
        cycles = payload["cycles"]
        instructions = payload["instructions"]
        if sampling is not None:
            # Sampled cell: the headline IPC is the per-interval mean
            # (the estimator the confidence interval is stated for),
            # not the ratio of summed measured spans.
            ipc = sampling["ipc_mean"]
        else:
            ipc = instructions / cycles if cycles else 0.0
        record = RunRecord(
            benchmark=benchmark,
            config_name=config.name,
            config=config.to_dict(),
            scale=self.scale,
            key=key,
            cycles=cycles,
            instructions=instructions,
            ipc=ipc,
            counters=dict(payload["counters"]),
            wall_time=payload["wall_time"],
            cache_hit=hit,
            engine=self._engine_provenance(jobs),
            status=STATUS_OK,
            attempts=attempts,
            cores=cores,
            sampling=sampling)
        entry = record.to_dict()
        self.manifest.append(entry)
        if self.verbose:
            origin = "cache" if hit else f"{entry['wall_time']:.2f}s"
            print(f"  {benchmark:<10s} {config.name:<28s} "
                  f"IPC={entry['ipc']:.3f} [{origin}]")


def normalized_ipc(results: Dict[Tuple[str, str], SimResult],
                   benchmark: str, config_name: str,
                   baseline_name: str) -> float:
    """IPC of one run normalized to the baseline configuration's run."""
    baseline = results[(benchmark, baseline_name)].ipc
    if not baseline:
        return 0.0
    return results[(benchmark, config_name)].ipc / baseline


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; 0.0 for an empty sequence *or* any non-positive
    value.  Silently dropping non-positive values would let a failed or
    zero-IPC cell *inflate* a suite average, so a poisoned input
    poisons the mean instead."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def suite_average(results: Dict[Tuple[str, str], SimResult],
                  benchmarks: Iterable[str], config_name: str,
                  baseline_name: str) -> float:
    """Geometric mean of normalized IPCs over a benchmark list (0.0 if
    any cell is missing-equivalent, i.e. normalizes non-positive)."""
    return geometric_mean(
        normalized_ipc(results, benchmark, config_name, baseline_name)
        for benchmark in benchmarks)
