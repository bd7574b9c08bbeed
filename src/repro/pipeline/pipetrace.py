"""Pipeline event tracing ("pipetrace") for debugging and time series.

Attach a :class:`PipeTracer` to a :class:`~repro.pipeline.core.Core` to
record, for every dynamic instruction, the cycles at which it was
dispatched, issued, completed, squashed, or retired, plus memory-unit
events (replays with their reasons, violations).  The collected trace can
be rendered as a classic timeline:

    seq    pc       instruction           D     I     C     R
    37     0x1c     ld r5, 0(r4)          12    14    25    27   replay:sfc_corrupt@13

Two sampling modes bound the tracer's memory so it can run on
arbitrarily long simulations:

* ``ring_size=N`` keeps only the N youngest instruction traces (a ring
  buffer: the oldest trace is evicted as each new one is recorded);
* ``epoch_cycles=N`` additionally records one :class:`EpochSnapshot`
  every N cycles -- window occupancy, the stall/violation/replay counter
  deltas for the epoch, and the derived per-epoch rates -- exportable as
  JSON Lines (:meth:`PipeTracer.epochs_jsonl`) for time-series analysis.

Tracing hooks into the processor by wrapping its stage methods, so the
processor itself stays hook-free and fast when no tracer is attached;
results (cycles and every counter) are bit-identical with and without a
tracer.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Union

from .core import Core
from .dyninst import DynInst


class InstructionTrace:
    """Lifecycle of one dynamic instruction."""

    __slots__ = ("seq", "pc", "text", "dispatch_cycle", "issue_cycles",
                 "complete_cycle", "retire_cycle", "squash_cycle",
                 "events")

    def __init__(self, seq: int, pc: int, text: str, dispatch_cycle: int):
        self.seq = seq
        self.pc = pc
        self.text = text
        self.dispatch_cycle = dispatch_cycle
        self.issue_cycles: List[int] = []
        self.complete_cycle: Optional[int] = None
        self.retire_cycle: Optional[int] = None
        self.squash_cycle: Optional[int] = None
        self.events: List[str] = []

    @property
    def replays(self) -> int:
        """Number of times the instruction issued beyond the first."""
        return max(0, len(self.issue_cycles) - 1)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "pc": self.pc,
            "text": self.text,
            "dispatch_cycle": self.dispatch_cycle,
            "issue_cycles": list(self.issue_cycles),
            "complete_cycle": self.complete_cycle,
            "retire_cycle": self.retire_cycle,
            "squash_cycle": self.squash_cycle,
            "events": list(self.events),
        }

    def format_row(self) -> str:
        def cell(value: Optional[int]) -> str:
            return f"{value}" if value is not None else "-"

        issue = cell(self.issue_cycles[0]) if self.issue_cycles else "-"
        marks = " ".join(self.events)
        return (f"{self.seq:<6d} {self.pc:<#8x} {self.text:<26s} "
                f"{self.dispatch_cycle:<5d} {issue:<5s} "
                f"{cell(self.complete_cycle):<5s} "
                f"{cell(self.retire_cycle):<5s} {marks}")


#: Counters whose per-epoch deltas drive the snapshot's derived rates.
_EPOCH_VIOLATION_KEYS = ("violation_flushes_true", "violation_flushes_anti",
                         "violation_flushes_output")


class EpochSnapshot:
    """One per-epoch sample of pipeline state and counter deltas."""

    __slots__ = ("epoch", "cycle", "retired", "rob_occupancy",
                 "sched_occupancy", "deltas")

    def __init__(self, epoch: int, cycle: int, retired: int,
                 rob_occupancy: int, sched_occupancy: int,
                 deltas: Dict[str, float]):
        self.epoch = epoch
        self.cycle = cycle
        self.retired = retired
        #: Counter increments since the previous snapshot.
        self.rob_occupancy = rob_occupancy
        self.sched_occupancy = sched_occupancy
        self.deltas = deltas

    @property
    def violations(self) -> float:
        return sum(self.deltas.get(key, 0.0)
                   for key in _EPOCH_VIOLATION_KEYS)

    @property
    def replays(self) -> float:
        return self.deltas.get("mem_replays", 0.0)

    def stall_breakdown(self) -> Dict[str, float]:
        """The dispatch-stall deltas of this epoch, keyed by cause."""
        prefix = "dispatch_stalls_"
        return {key[len(prefix):]: value
                for key, value in self.deltas.items()
                if key.startswith(prefix) and value}

    def to_dict(self) -> dict:
        retired_delta = self.deltas.get("retired_delta", 0.0)
        per_retired = (1.0 / retired_delta) if retired_delta else 0.0
        return {
            "epoch": self.epoch,
            "cycle": self.cycle,
            "retired": self.retired,
            "rob_occupancy": self.rob_occupancy,
            "sched_occupancy": self.sched_occupancy,
            "stalls": self.stall_breakdown(),
            "violations": self.violations,
            "replays": self.replays,
            "violation_rate": self.violations * per_retired,
            "replay_rate": self.replays * per_retired,
            "deltas": {k: v for k, v in sorted(self.deltas.items()) if v},
        }

    def __repr__(self) -> str:
        return (f"EpochSnapshot(epoch={self.epoch}, cycle={self.cycle}, "
                f"rob={self.rob_occupancy}, viol={self.violations:g})")


class PipeTracer:
    """Records per-instruction pipeline events from a live processor.

    ``ring_size`` bounds the per-instruction trace store to the N
    youngest instructions; ``epoch_cycles`` samples an
    :class:`EpochSnapshot` every N cycles.  Both default to off,
    preserving the original record-everything (up to
    ``max_instructions``) behaviour.
    """

    def __init__(self, processor: Core,
                 max_instructions: int = 100_000,
                 ring_size: Optional[int] = None,
                 epoch_cycles: Optional[int] = None):
        if ring_size is not None and ring_size <= 0:
            raise ValueError("ring_size must be positive")
        if epoch_cycles is not None and epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        self.processor = processor
        self.max_instructions = max_instructions
        self.ring_size = ring_size
        self.epoch_cycles = epoch_cycles
        self.traces: Dict[int, InstructionTrace] = {}
        self.epochs: List[EpochSnapshot] = []
        self._ring: Deque[int] = deque()
        self._last_epoch = 0
        self._epoch_counters: Dict[str, float] = {}
        self._epoch_retired = 0
        self._install(processor)

    # -- hook installation ----------------------------------------------------

    def _install(self, proc: Core) -> None:
        orig_fetch = proc._fetch_stage
        orig_execute = proc._execute
        orig_complete = proc._complete
        orig_retire = proc._retire_one
        orig_squash = proc._squash_after

        ring_size = self.ring_size
        ring = self._ring

        def record_dispatch(inst: DynInst) -> None:
            if ring_size is not None:
                if len(ring) >= ring_size:
                    del self.traces[ring.popleft()]
                ring.append(inst.seq)
            elif len(self.traces) >= self.max_instructions:
                return
            self.traces[inst.seq] = InstructionTrace(
                inst.seq, inst.pc, repr(inst.inst), proc.cycle)

        def fetch_stage():
            # Dispatch appends to the ROB tail and never squashes, so the
            # instructions this call dispatched are the tail entries at
            # or past the sequence number it started from.
            first = proc.next_seq
            orig_fetch()
            rob = proc.rob
            count = proc.next_seq - first
            for offset in range(len(rob) - count, len(rob)):
                record_dispatch(rob[offset])

        def execute(inst: DynInst):
            trace = self.traces.get(inst.seq)
            if trace is not None:
                trace.issue_cycles.append(proc.cycle)
            orig_execute(inst)
            if trace is not None and inst.stalled:
                trace.events.append(
                    f"replay@{proc.cycle}")

        def complete(inst: DynInst):
            orig_complete(inst)
            trace = self.traces.get(inst.seq)
            if trace is not None and inst.completed:
                trace.complete_cycle = proc.cycle

        def retire(head: DynInst):
            orig_retire(head)
            trace = self.traces.get(head.seq)
            if trace is not None:
                trace.retire_cycle = proc.cycle

        def squash_after(flush_after_seq: int):
            cycle = proc.cycle
            # Mark everything younger before the processor drops it.
            for seq, trace in self.traces.items():
                if seq > flush_after_seq and trace.retire_cycle is None \
                        and trace.squash_cycle is None:
                    candidate = proc._by_seq.get(seq)
                    if candidate is not None:
                        trace.squash_cycle = cycle
                        trace.events.append(f"squash@{cycle}")
            return orig_squash(flush_after_seq)

        proc._fetch_stage = fetch_stage
        proc._execute = execute
        proc._complete = complete
        proc._retire_one = retire
        proc._squash_after = squash_after

        if self.epoch_cycles is not None:
            orig_advance = proc._advance_clock
            epoch_cycles = self.epoch_cycles

            def advance_clock():
                orig_advance()
                epoch = proc.cycle // epoch_cycles
                if epoch > self._last_epoch:
                    self._snapshot(epoch)
            proc._advance_clock = advance_clock

    # -- epoch sampling -------------------------------------------------------

    def _snapshot(self, epoch: int) -> None:
        proc = self.processor
        current = proc.counters.as_dict()
        previous = self._epoch_counters
        deltas = {name: value - previous.get(name, 0.0)
                  for name, value in current.items()
                  if value != previous.get(name, 0.0)}
        deltas["retired_delta"] = float(proc.retired - self._epoch_retired)
        self._epoch_counters = current
        self._epoch_retired = proc.retired
        self._last_epoch = epoch
        self.epochs.append(EpochSnapshot(
            epoch=epoch, cycle=proc.cycle, retired=proc.retired,
            rob_occupancy=len(proc.rob),
            sched_occupancy=proc.scheduler._occupancy, deltas=deltas))

    # -- queries ---------------------------------------------------------------

    def retired(self) -> List[InstructionTrace]:
        """Traces of instructions that retired, in retirement order."""
        return sorted((t for t in self.traces.values()
                       if t.retire_cycle is not None),
                      key=lambda t: t.seq)

    def squashed(self) -> List[InstructionTrace]:
        return sorted((t for t in self.traces.values()
                       if t.squash_cycle is not None),
                      key=lambda t: t.seq)

    def of(self, seq: int) -> Optional[InstructionTrace]:
        return self.traces.get(seq)

    def latency_of(self, seq: int) -> Optional[int]:
        """Dispatch-to-retire latency in cycles, if the inst retired."""
        trace = self.traces.get(seq)
        if trace is None or trace.retire_cycle is None:
            return None
        return trace.retire_cycle - trace.dispatch_cycle

    # -- rendering ----------------------------------------------------------------

    HEADER = (f"{'seq':<6s} {'pc':<8s} {'instruction':<26s} "
              f"{'D':<5s} {'I':<5s} {'C':<5s} {'R':<5s} events")

    def format(self, first: int = 0, count: int = 50,
               include_squashed: bool = True) -> str:
        """Render a window of the trace as a timeline table."""
        rows = [self.HEADER, "-" * len(self.HEADER)]
        shown = 0
        for seq in sorted(self.traces):
            if seq < first:
                continue
            trace = self.traces[seq]
            if not include_squashed and trace.squash_cycle is not None:
                continue
            rows.append(trace.format_row())
            shown += 1
            if shown >= count:
                break
        return "\n".join(rows)

    # -- export ----------------------------------------------------------------

    def epochs_jsonl(self) -> str:
        """The epoch snapshots as JSON Lines (one object per epoch)."""
        return "\n".join(json.dumps(snapshot.to_dict(), sort_keys=True)
                         for snapshot in self.epochs)

    def traces_jsonl(self) -> str:
        """The instruction traces as JSON Lines, in sequence order."""
        return "\n".join(json.dumps(self.traces[seq].to_dict(),
                                    sort_keys=True)
                         for seq in sorted(self.traces))

    def write_epochs(self, path: Union[str, "object"]) -> None:
        """Write :meth:`epochs_jsonl` (plus a final newline) to a file."""
        text = self.epochs_jsonl()
        with open(path, "w") as handle:
            handle.write(text + ("\n" if text else ""))


def trace_run(processor: Core,
              max_instructions: int = 100_000,
              ring_size: Optional[int] = None,
              epoch_cycles: Optional[int] = None) -> PipeTracer:
    """Attach a tracer, run the processor to completion, return the
    tracer (convenience for scripts and tests)."""
    tracer = PipeTracer(processor, max_instructions=max_instructions,
                        ring_size=ring_size, epoch_cycles=epoch_cycles)
    processor.run()
    return tracer
