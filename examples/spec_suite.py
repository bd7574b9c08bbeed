#!/usr/bin/env python3
"""Run the full SPEC-styled suite on one configuration pair.

A miniature of the Figure 5 experiment: every benchmark kernel on the
baseline core, LSQ vs SFC/MDT, with the per-benchmark event profile that
explains each ratio.

Run:  python examples/spec_suite.py [scale]
"""

import sys

from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import ExperimentRunner
from repro.workloads import FIGURE5_BENCHMARKS, is_fp


def main():
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 6000
    runner = ExperimentRunner(scale=scale)
    lsq_config = baseline_lsq_config()
    sfc_config = baseline_sfc_mdt_config()

    print(f"{'benchmark':<11} {'class':<5} {'LSQ IPC':>8} {'SFC IPC':>8} "
          f"{'ratio':>6}  notable events")
    print("-" * 76)
    for name in FIGURE5_BENCHMARKS:
        lsq = runner.run(name, lsq_config)
        sfc = runner.run(name, sfc_config)
        c = sfc.metric
        events = []
        if c("store_replays_sfc_conflict"):
            events.append(
                f"sfc-conflicts={c('store_replays_sfc_conflict'):.0f}")
        if c("load_replays_mdt_conflict"):
            events.append(
                f"mdt-conflicts={c('load_replays_mdt_conflict'):.0f}")
        if c("load_replays_sfc_corrupt"):
            events.append(
                f"corrupt-replays={c('load_replays_sfc_corrupt'):.0f}")
        violations = (c("violation_flushes_true") +
                      c("violation_flushes_anti") +
                      c("violation_flushes_output"))
        if violations:
            events.append(f"violations={violations:.0f}")
        ratio = sfc.ipc / lsq.ipc if lsq.ipc else 0.0
        print(f"{name:<11} {'fp' if is_fp(name) else 'int':<5} "
              f"{lsq.ipc:>8.3f} {sfc.ipc:>8.3f} {ratio:>6.3f}  "
              f"{', '.join(events) or '-'}")


if __name__ == "__main__":
    main()
