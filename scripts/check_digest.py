#!/usr/bin/env python
"""Bit-exactness gate: the observability layer must not perturb results.

Runs the fig5 + fig6 grid (every benchmark under all four baseline and
aggressive configurations) at a small scale and compares the manifest
digest -- a SHA-256 over every architected outcome (config, cycles, IPC,
all counters) -- against the committed reference.  Also proves that an
attached pipetrace sampler (ring buffer + epoch snapshots) leaves a
run's cycles and counters bit-identical.

    python scripts/check_digest.py             # verify
    python scripts/check_digest.py --update    # re-pin after an
                                               # intentional arch change
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import Core  # noqa: E402
from repro.harness.configs import (  # noqa: E402
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.harness.experiment import ExperimentRunner  # noqa: E402
from repro.perf import manifest_digest  # noqa: E402
from repro.pipeline.pipetrace import PipeTracer  # noqa: E402
from repro.workloads import ALL_BENCHMARKS, suites  # noqa: E402

REFERENCE = ROOT / "benchmarks" / "results" / "digest_fig56.txt"
SCALE = 1_000


def grid_digest() -> str:
    runner = ExperimentRunner(scale=SCALE, jobs=1, use_cache=False)
    configs = [baseline_lsq_config(), baseline_sfc_mdt_config(),
               aggressive_lsq_config(), aggressive_sfc_mdt_config()]
    runner.run_suite(sorted(ALL_BENCHMARKS), configs)
    return manifest_digest(runner.manifest)


def check_tracer_is_invisible() -> bool:
    """A sampled tracer must not change any architected outcome."""
    program = suites.build("gap", SCALE)
    plain = Core(program, baseline_sfc_mdt_config()).run()
    traced_proc = Core(program, baseline_sfc_mdt_config())
    PipeTracer(traced_proc, ring_size=64, epoch_cycles=100)
    traced = traced_proc.run()
    if plain.cycles != traced.cycles or \
            plain.counters.as_dict() != traced.counters.as_dict():
        print("FAIL: attaching a PipeTracer changed simulation results")
        return False
    print("ok: sampled pipetrace leaves cycles and counters bit-exact")
    return True


def main() -> int:
    digest = grid_digest()
    if "--update" in sys.argv[1:]:
        REFERENCE.write_text(digest + "\n")
        print(f"pinned {digest} -> {REFERENCE}")
        return 0
    if not REFERENCE.exists():
        print(f"FAIL: no reference digest at {REFERENCE}; "
              f"run with --update to pin one")
        return 1
    expected = REFERENCE.read_text().strip()
    if digest != expected:
        print(f"FAIL: manifest digest drifted\n  expected {expected}\n"
              f"  got      {digest}\n"
              f"Architected outcomes changed; if intentional, re-pin "
              f"with --update.")
        return 1
    print(f"ok: fig5+fig6 grid digest unchanged ({digest[:16]}...)")
    if not check_tracer_is_invisible():
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
