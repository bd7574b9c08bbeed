#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-grid --seed 0 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the simulator is imported from
``src/`` there, and the run fails (exit code 2, no result) when it is
missing.  The workloads are defined in ``workloads.py`` and declared,
with their metrics, in ``BENCHMARK.json`` at the checkout root.

The run builds its inputs from ``--seed``, measures the set-up cost
(import plus program build and predecode, in fresh processes), then
runs timed passes of the workload for ``--seconds`` seconds, checking
every cell of every pass against its expected digest.

Times are processor seconds (user plus system) of the benchmark process
and its pool workers, not wall seconds: on a shared host the wall clock
also counts the time other tenants hold the cores, which moves it by
tens of percent from run to run.  They are then scaled to the reference
host's speed, because other tenants slow the processor too: a fixed
probe (see ``hostspeed.py``) is timed before each pass, and a phase's
times are scaled by how much slower than on the reference host the
fastest probe of the phase ran.  Each pass's wall time, raw processor
time and probe time are kept in the run record.

* ``--trace 0`` reports every end-to-end metric: the median over the
  passes of scaled processor time, throughput and peak memory, plus
  set-up time.
* ``--trace 1`` spends half the time on untraced passes and half on
  passes traced from outside (see ``tracing.py``) and reports every
  per-layer metric, each the median over the traced passes, together
  with the tracing overhead against the untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
-- per-pass values, failures and provenance (host, git revision, seed,
scale, ``src/`` line count) -- and, when tracing, every span go to
``.perfbench_out/`` in the checkout.  The exit code is 0 when every
cell was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15

#: Fewest passes per measured phase, however long a pass takes.
MIN_PASSES = 3

_SETUP_CHILD = """\
import sys, time
started = time.process_time()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](scale=int(sys.argv[4])).setup()
print(repr(time.process_time() - started))
"""


def measure_setup(root: Path, workload) -> float:
    """Median processor seconds, over fresh processes, to import the
    simulator and build and predecode the workload's programs."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(root / "src"),
             str(HERE), workload.name, str(workload.scale)],
            capture_output=True, text=True, timeout=120, check=True,
            cwd=root)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(workload, seconds: float, tracer=None) -> List[dict]:
    """Timed passes for ``seconds`` (at least :data:`MIN_PASSES`), each
    from a cold predecode cache and after a host-speed probe; each row
    holds the scored :class:`workloads.PassResult`, the probe, this
    process's peak resident set so far and, when tracing, the per-layer
    metrics."""
    rows = []
    deadline = time.perf_counter() + seconds
    while len(rows) < MIN_PASSES or time.perf_counter() < deadline:
        workload.reset()
        probe = hostspeed.probe_s()
        gc.collect()
        if tracer is None:
            result = workload.score(workload.run_pass())
            layers = None
        else:
            first = len(tracer.spans)
            before = dict(tracer.counts)
            root = tracer.open("pass")
            try:
                result = workload.run_pass()
            finally:
                tracer.close(root)
            workload.score(result)
            layers = layer_metrics(tracer, first, before, result)
        workload.cleanup()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rows.append({"result": result, "layers": layers, "probe_s": probe,
                     "peak_kb": peak_kb})
    return rows


def host_speed(rows: List[dict]) -> float:
    """Factor from the processor seconds of these passes to seconds at
    the reference host's speed, from their fastest probe: a probe slowed
    by a passing disturbance says little about the passes, a slowdown
    that lasts the whole phase slows every probe."""
    return hostspeed.scale(min(row["probe_s"] for row in rows))


# ---------------------------------------------------------------- metrics

def _counter(entries: List[dict], name: str) -> float:
    """Sum of one simulator counter over simulated (not cache-served)
    cells; multicore cells sum their per-core ``core<N>_`` counters."""
    total = 0.0
    for entry in entries:
        if entry["status"] != "ok" or entry["cache_hit"]:
            continue
        counters = entry["counters"]
        cores = entry.get("cores", 1)
        if cores > 1:
            total += sum(counters.get(f"core{i}_{name}", 0)
                         for i in range(cores))
        else:
            total += counters.get(name, 0)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(row: dict, setup_s: float, speed: float) -> Dict[str, float]:
    """End-to-end metrics of one untraced pass, with its processor time
    and ``setup_s`` scaled by ``speed``: the process's processor time and
    peak memory include the pass's pool workers."""
    result = row["result"]
    cpu_s = result.cpu_s * speed
    peak_kb = row["peak_kb"] + result.extra.get("worker_peak_kb", 0)
    return {
        "setup_s": setup_s * speed,
        "ref_cpu_s": cpu_s,
        "sim_kips": result.simulated_insts / cpu_s / 1e3,
        "covered_mips": result.covered_insts / cpu_s / 1e6,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }


def layer_metrics(tracer, first: int, before: Dict[str, float],
                  result) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (spans ``first`` onwards)."""
    self_s = tracer.self_times(first)
    counts = {name: value - before.get(name, 0.0)
              for name, value in tracer.counts.items()}
    entries = result.entries
    extra = result.extra
    wall = tracer.spans[first][2] - tracer.spans[first][1]
    ff_s = self_s["isa.fast_forward"]
    ff_insts = counts.get("isa.ff_insts", 0.0)
    detailed_s = self_s["pipeline.detailed"]
    system_s = self_s["pipeline.system"]
    retired = _counter(entries, "retired_instructions")
    trains = tracer.reused_trains(first)
    pool_wall = extra.get("pool_wall_s", 0.0)
    return {
        "workloads.build_s": self_s["workloads.build"],
        "isa.predecode_s": self_s["isa.predecode"],
        "isa.oracle_s": self_s["isa.oracle"],
        "isa.oracle_records": counts.get("isa.oracle_records", 0.0),
        "isa.oracle_mb": counts.get("isa.oracle_bytes", 0.0) / 1e6,
        "isa.ff_s": ff_s,
        "isa.ff_insts": ff_insts,
        "isa.ff_mips": _ratio(ff_insts, ff_s) / 1e6,
        "checkpoint.capture_s": (self_s["checkpoint.ensure_train"]
                                 + self_s["checkpoint.capture"]),
        "checkpoint.store_s": self_s["checkpoint.store"],
        "checkpoint.load_s": self_s["checkpoint.load"],
        "checkpoint.train_mb":
            counts.get("checkpoint.train_bytes", 0.0) / 1e6,
        "checkpoint.reuse_frac": _ratio(sum(trains), len(trains)),
        "checkpoint.window_s": self_s["checkpoint.window"],
        "pipeline.detailed_s": detailed_s,
        "pipeline.detailed_insts": result.simulated_insts,
        "pipeline.us_per_inst":
            1e6 * _ratio(detailed_s + system_s, result.simulated_insts),
        "pipeline.system_s": system_s,
        "pipeline.dispatched_per_retired": _ratio(
            _counter(entries, "dispatched_instructions"), retired),
        "pipeline.idle_skipped_frac": _ratio(
            _counter(entries, "idle_cycles_skipped"),
            _counter(entries, "cycles")),
        "pipeline.squashed_per_kinst": 1e3 * _ratio(
            _counter(entries, "squashed_instructions"), retired),
        "memory.l1d_miss_rate": _ratio(_counter(entries, "l1d_misses"),
                                       _counter(entries, "l1d_accesses")),
        "harness.engine_s": self_s["harness.engine"],
        "harness.pickle_mb": counts.get("harness.pickle_bytes", 0.0) / 1e6,
        "harness.pickle_s": counts.get("harness.pickle_s", 0.0),
        "harness.worker_busy_s": extra.get("worker_busy_s", 0.0),
        "harness.pool_util": _ratio(extra.get("worker_busy_s", 0.0),
                                    extra.get("jobs", 1) * pool_wall),
        "harness.cache_store_s": self_s["harness.cache_store"],
        "harness.cache_load_s": self_s["harness.cache_load"],
        "harness.cache_hits": extra.get("cache_hits", 0),
        "harness.cache_misses": extra.get("cache_misses", 0),
        "harness.retries": sum(e["attempts"] - 1 for e in entries),
        "harness.pool_rebuilds": counts.get("harness.pool_rebuilds", 0.0),
        "harness.failed_frac": _ratio(result.failed, result.attempted),
        "sampling.windows": extra.get("windows", 0),
        "sampling.ipc_err_pct": extra.get("ipc_err_pct", 0.0),
        "sampling.ci95_pct": extra.get("ci95_pct", 0.0),
        "trace.probe_s": self_s["trace.pickle_probe"],
        "trace.unattributed_frac": _ratio(self_s["pass"], wall),
    }


def _median(rows: List[Dict[str, float]], name: str) -> float:
    return statistics.median(row[name] for row in rows)


# ---------------------------------------------------------------- records

def provenance(root: Path) -> dict:
    """Host fingerprint, git revision and ``src/`` line count."""
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "host": {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "platform": platform.platform()},
        "git_revision": revision,
        "src_lines": src_lines,
    }


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def make_workload(name: str, seed: int, out: Path,
                  reference: Optional[dict] = None, scale=None,
                  runner_hook=None):
    """The named workload, with its expected digests (and, for
    ``sampled``, full-run IPC references) at the seed's scale; its
    scratch stores go under ``out/work``."""
    import workloads
    cls = workloads.WORKLOADS[name]
    workload = cls(seed=seed, scale=scale, workdir=out / "work",
                   runner_hook=runner_hook)
    reference = reference if reference is not None else load_reference()
    scale_key = str(workload.scale)
    stored = reference["digests"].get(name, {}).get(scale_key)
    if stored is not None:
        workload.expected = dict(stored["cells"])
    if name == "sampled":
        workload.references = {
            cell: ref["ipc"] for cell, ref in
            reference["full_run_ipc"].get(scale_key, {}).items()}
    return workload


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        out: Optional[Path] = None, reference: Optional[dict] = None,
        scale=None, runner_hook=None) -> dict:
    """One benchmark run; returns the full record (see module doc).

    ``root`` is the checkout; records, spans and scratch stores go to
    ``out`` (``root/.perfbench_out`` by default).  ``reference``,
    ``scale`` and ``runner_hook`` let tests run at tiny scale and
    inject faults.
    """
    out = out if out is not None else root / OUT_DIR
    import tracing
    spec = json.loads((root / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer() if trace else None

    def hook(runner):
        if tracer is not None:
            tracer.hook_runner(runner)
        if runner_hook is not None:
            runner_hook(runner)

    workload = make_workload(name, seed, out, reference, scale, hook)
    setup_s = measure_setup(root, workload)
    if tracer is None:
        plain = run_passes(workload, seconds)
        traced = []
    else:
        plain = run_passes(workload, seconds / 2)
        tracer.install()
        try:
            traced = run_passes(workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()

    rows = plain + traced
    attempted = sum(row["result"].attempted for row in rows)
    failed = sum(row["result"].failed for row in rows)
    speed = host_speed(plain)
    e2e_rows = [end_to_end(row, setup_s, speed) for row in plain]
    if tracer is None:
        values = {name_: _median(e2e_rows, name_) for name_ in e2e_rows[0]}
        declared = spec["end_to_end"]
    else:
        layer_rows = [row["layers"] for row in traced]
        values = {name_: _median(layer_rows, name_)
                  for name_ in layer_rows[0]}
        traced_cpu = host_speed(traced) * statistics.median(
            row["result"].cpu_s for row in traced)
        values["trace.overhead_frac"] = \
            traced_cpu / _median(e2e_rows, "ref_cpu_s") - 1.0
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "host_speed": speed,
        "provenance": {"workload": name, "seed": seed,
                       "scale": workload.scale, **provenance(root)},
        "passes": [{"traced": row["layers"] is not None,
                    "wall_s": row["result"].wall_s,
                    "cpu_s": row["result"].cpu_s,
                    "probe_s": row["probe_s"],
                    "attempted": row["result"].attempted,
                    "failed": row["result"].failed,
                    "errors": row["result"].errors,
                    **({"layers": row["layers"]} if row["layers"] else {})}
                   for row in rows],
    }
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")
    shutil.rmtree(out / "work", ignore_errors=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {root / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 root)
    for name, metric in record["metrics"].items():
        print(f"{name:<34s} {metric['value']:>14.6g} {metric['unit']}")
    prov = record["provenance"]
    print(f"workload {args.workload} seed {args.seed} scale {prov['scale']}"
          f": {record['failed']} of {record['attempted']} cells failed "
          f"(failed_frac {record['failed'] / record['attempted']:.4f}); "
          f"src {prov['src_lines']} lines, git {prov['git_revision']}")
    for row in record["passes"]:
        for error in row["errors"]:
            print(f"  failure: {error}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
