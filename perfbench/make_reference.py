#!/usr/bin/env python3
"""Compute the benchmark's stored references into ``reference.json``.

    python3 perfbench/make_reference.py                 # every workload
    python3 perfbench/make_reference.py --workloads sampled

Run from the root of a checkout.  For every workload and every input
scale a seed can select, it runs one pass and stores each cell's result
digest.  For ``sampled`` it first
runs every (benchmark, config) cell as an exact, full detailed
simulation at each scale and stores its IPC, instruction and cycle
counts and digest: the ground truth ``sampling.ipc_err_pct`` is
measured against.  The full runs take several minutes.

Re-run it only after a change that is meant to alter simulated
outcomes; the benchmark counts every cell whose digest differs from the
stored one as failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def full_run_references(workload) -> dict:
    """Exact detailed IPC of every sampled cell at the workload's scale."""
    from repro.harness.experiment import ExperimentRunner
    from workloads import cell_digest

    references = {}
    for benchmark in workload.benchmarks:
        # One runner per benchmark: its golden trace is the large part.
        runner = ExperimentRunner(workload.scale, jobs=1, use_cache=False)
        for config in workload.configs():
            result = runner.run(benchmark, config)
            entry = runner.manifest[-1]
            references[f"{benchmark}/{config.name}"] = {
                "ipc": result.ipc, "instructions": result.instructions,
                "cycles": result.cycles, "digest": cell_digest(entry)}
            print(f"  full run {benchmark}/{config.name} @ "
                  f"{workload.scale}: IPC {result.ipc:.4f}", flush=True)
    return references


def main(argv=None) -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import run
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    reference = run.load_reference()
    for name in args.workloads:
        base = workloads.WORKLOADS[name].base_scale
        stored = reference["digests"].setdefault(name, {})
        for variant in range(workloads.VARIANTS):
            scale = workloads.variant_scale(base, variant)
            if name == "sampled":
                probe = workloads.Sampled(scale=scale)
                reference["full_run_ipc"][str(scale)] = \
                    full_run_references(probe)
            # Pin every cell to its own first result, not a stale one.
            stored.pop(str(scale), None)
            workload = run.make_workload(name, workloads.DEFAULT_SEED,
                                         root / run.OUT_DIR, reference,
                                         scale=scale)
            started = time.perf_counter()
            result = workload.score(workload.run_pass())
            workload.cleanup()
            if result.failed or result.errors:
                print(f"error: {name} @ {scale}: {result.failed} failed "
                      f"cells: {result.errors}", file=sys.stderr)
                return 1
            stored[str(scale)] = {
                "cells": dict(sorted(result.digests.items()))}
            print(f"{name} @ {scale}: {len(result.digests)} cells "
                  f"({time.perf_counter() - started:.1f}s)", flush=True)
    reference["provenance"] = run.provenance(root)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
