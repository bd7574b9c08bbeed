#!/usr/bin/env python3
"""Quickstart: assemble a program and run it on both memory subsystems.

Builds a small loop that stores and reloads an in-flight buffer, runs it
on the baseline 4-wide superscalar with (a) the idealized 48x32 LSQ and
(b) the paper's SFC + MDT + store FIFO, and prints the performance and
event counters that distinguish the two designs.

Run:  python examples/quickstart.py
"""

from repro import Assembler, Core, run_program
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config


def build_program():
    a = Assembler()
    a.li("r1", 0x1000)          # buffer base
    a.li("r2", 0)               # i
    a.li("r3", 500)             # iterations
    a.li("r6", 0)               # checksum
    a.label("loop")
    a.andi("r4", "r2", 0xF8)    # slot address (32 words, reused)
    a.add("r4", "r4", "r1")
    a.mul("r5", "r2", "r2")     # some work feeding the store
    a.sd("r5", "r4")            # store ...
    a.ld("r7", "r4")            # ... and immediately reload (forwarding!)
    a.add("r6", "r6", "r7")
    a.addi("r2", "r2", 1)
    a.bne("r2", "r3", "loop")
    a.halt()
    return a.build(name="quickstart")


def main():
    program = build_program()
    dynamic = len(run_program(program))
    print(f"program: {len(program)} static instructions, "
          f"{dynamic} dynamic instructions\n")

    for config in (baseline_lsq_config(), baseline_sfc_mdt_config()):
        result = Core(program, config).run()
        c = result.counters
        print(f"=== {config.name} ===")
        print(f"  IPC                 {result.ipc:.3f}   "
              f"({result.cycles} cycles)")
        if config.subsystem == "lsq":
            print(f"  forwarded loads     "
                  f"{c.get('lsq_full_forwards'):.0f}")
            print(f"  SQ entries searched "
                  f"{c.get('lsq_sq_entries_searched'):.0f} "
                  f"(the CAM work the SFC eliminates)")
            print(f"  ordering violations "
                  f"{c.get('lsq_true_violations'):.0f}")
        else:
            print(f"  SFC forwards        {c.get('sfc_forwards'):.0f}")
            print(f"  MDT accesses        "
                  f"{c.get('mdt_load_accesses') + c.get('mdt_store_accesses'):.0f} "
                  f"(two sequence-number compares each)")
            print(f"  violation flushes   "
                  f"{c.get('violation_flushes_true'):.0f} true / "
                  f"{c.get('violation_flushes_anti'):.0f} anti / "
                  f"{c.get('violation_flushes_output'):.0f} output")
            print(f"  replays             {c.get('mem_replays'):.0f}")
        print()


if __name__ == "__main__":
    main()
