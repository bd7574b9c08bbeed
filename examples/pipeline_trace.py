#!/usr/bin/env python3
"""Pipeline tracing: watch instructions flow through the machine.

Writes a kernel in plain assembly text, runs it on the SFC/MDT machine
with a pipeline tracer attached, and prints the per-instruction timeline
(Dispatch / Issue / Complete / Retire cycles plus replay and squash
events).  The late-store pattern makes the first iteration violate a true
dependence, so the trace shows the flush, the refetch, and the
producer-set predictor serialising subsequent iterations.

Run:  python examples/pipeline_trace.py
"""

from repro import Core
from repro.harness import baseline_sfc_mdt_config
from repro.isa import parse_asm
from repro.pipeline import trace_run

KERNEL = """
    li   r1, 0x1000
    li   r2, 0
    li   r3, 8
    li   r7, 3
loop:
    mul  r4, r2, r7        # slow chain feeding the store...
    mul  r4, r4, r7
    sd   r4, 0(r1)         # ...so this store completes late
    ld   r5, 0(r1)         # younger load: violates, then is predicted
    add  r6, r6, r5
    addi r2, r2, 1
    bne  r2, r3, loop
    halt
"""


def main():
    program = parse_asm(KERNEL, name="trace-demo")
    processor = Core(program, baseline_sfc_mdt_config())
    tracer = trace_run(processor)

    print("Per-instruction pipeline timeline "
          "(D=dispatch I=first issue C=complete R=retire):\n")
    print(tracer.format(count=40))

    squashed = tracer.squashed()
    print(f"\n{len(tracer.retired())} retired, {len(squashed)} squashed "
          f"(ordering-violation recovery + wrong-path cleanup)")

    loads = [t for t in tracer.retired() if t.text.startswith("ld")]
    if loads:
        first, last = loads[0], loads[-1]
        print(f"first load latency {first.retire_cycle - first.dispatch_cycle} "
              f"cycles; steady-state load latency "
              f"{last.retire_cycle - last.dispatch_cycle} cycles "
              f"(the predictor has serialised it behind its store)")


if __name__ == "__main__":
    main()
