"""Cycle-level out-of-order superscalar core.

Execution-driven, as in the paper: the pipeline fetches along the
*predicted* path, so wrong-path loads and stores really execute and touch
the SFC/MDT (the source of SFC corruptions), and every retired instruction
is validated against the in-order architectural simulator, which each
core runs in lockstep as its oracle (see :class:`Core`).  Recovery from
branch mispredictions and memory-ordering violations is a partial
pipeline flush: squash everything younger than the recovery point,
restore the register alias table from the per-instruction checkpoint,
and redirect fetch.

Stage order within :meth:`Core.step` (one simulated cycle):

1. complete instructions whose latency expires this cycle (writeback);
2. retire from the ROB head, validating against the oracle's record;
3. clear scheduler stall bits if the MDT/SFC evicted entries;
4. select + execute ready instructions (loads/stores consult the memory
   subsystem here, speculatively and out of order);
5. fetch/rename/dispatch along the predicted path.

A :class:`Core` owns every *per-core* structure (fetch state, rename
table, scheduler, ROB, store FIFO, SFC/MDT subsystem, gshare, counters)
but its architectural memory image and cache hierarchy are injectable:
standalone (the single-core path) it builds a private
:class:`~repro.memory.main_memory.MainMemory` and the paper's hierarchy;
under a :class:`~repro.pipeline.system.System` it is handed a shared image
and a per-core hierarchy over a shared L2 instead.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional

from ..branch.gshare import GsharePredictor
from ..core import registry
from ..core.predictors import DependenceTagFile, ProducerSetPredictor
from ..core.subsystem import REPLAY
from ..isa import instructions as ops
from ..isa.instructions import MASK64, sign_extend
from ..isa.interp import (
    ExecutionLimitExceeded,
    Interpreter,
    RetireRecord,
    branch_taken,
    execute_op,
)
from ..isa.program import INSTRUCTION_BYTES, Program
from ..memory.cache import CacheHierarchy, paper_hierarchy
from ..memory.main_memory import MainMemory
from ..obs.metrics import COUNTER, GAUGE, declare_metric
from ..stats.counters import Counters
from .config import ProcessorConfig
from .dyninst import DynInst
from .rename import RenameTable
from .scheduler import Scheduler

# -- declared metrics (metadata only; see repro.obs.metrics) -----------------
for _name, _kind, _unit, _desc in (
    ("dispatched_instructions", COUNTER, "insts",
     "instructions renamed and dispatched (right and wrong path)"),
    ("executed_loads", COUNTER, "insts", "loads issued to the memory unit"),
    ("executed_stores", COUNTER, "insts",
     "stores issued to the memory unit"),
    ("retired_loads", COUNTER, "insts", "loads retired from the ROB head"),
    ("retired_stores", COUNTER, "insts",
     "stores retired from the ROB head"),
    ("mem_replays", COUNTER, "events",
     "memory accesses bounced back to the scheduler for replay"),
    ("idle_cycles_skipped", COUNTER, "cycles",
     "guaranteed-idle cycles fast-forwarded by the clock"),
    ("dispatch_stalls_rob", COUNTER, "slots",
     "dispatch slots lost to a full ROB"),
    ("dispatch_stalls_sched", COUNTER, "slots",
     "dispatch slots lost to a full scheduler window"),
    ("dispatch_stalls_phys", COUNTER, "slots",
     "dispatch slots lost to physical-register exhaustion"),
    ("dispatch_stalls_lq", COUNTER, "slots",
     "dispatch slots lost to a full load queue"),
    ("dispatch_stalls_sq", COUNTER, "slots",
     "dispatch slots lost to a full store queue/FIFO"),
    ("rob_head_bypass_grants", COUNTER, "events",
     "ROB-lockup avoidance grants (Section 2.2)"),
    ("branch_mispredict_flushes", COUNTER, "events",
     "partial flushes caused by branch mispredictions"),
    ("violation_flushes_true", COUNTER, "events",
     "recovery flushes for true (RAW) ordering violations"),
    ("violation_flushes_anti", COUNTER, "events",
     "recovery flushes for anti (WAR) ordering violations"),
    ("violation_flushes_output", COUNTER, "events",
     "recovery flushes for output (WAW) ordering violations"),
    ("partial_flushes", COUNTER, "events",
     "partial pipeline flushes (all causes)"),
    ("squashed_instructions", COUNTER, "insts",
     "in-flight instructions squashed by recovery flushes"),
    ("cycles", GAUGE, "cycles", "total simulated cycles"),
    ("retired_instructions", GAUGE, "insts",
     "architecturally retired instructions"),
    ("branch_predictions", GAUGE, "events",
     "conditional-branch predictions made"),
    ("branch_mispredictions", GAUGE, "events",
     "conditional-branch mispredictions"),
):
    declare_metric(_name, kind=_kind, subsystem="pipeline",
                   description=_desc, unit=_unit)

#: Records the lockstep oracle executes per window fill.
ORACLE_CHUNK = 256

#: Retired records accumulated at the window front before a fill drops
#: them; with :data:`ORACLE_CHUNK` and the ROB size this bounds the
#: window, independently of run length.
ORACLE_TRIM = 1024


class SimulationError(Exception):
    """Retired state diverged from the oracle (simulator bug) or the
    simulation exceeded its cycle budget."""


class SimResult:
    """Outcome of one simulation run."""

    def __init__(self, program_name: str, config: ProcessorConfig,
                 cycles: int, instructions: int, counters: Counters):
        self.program_name = program_name
        self.config = config
        self.cycles = cycles
        self.instructions = instructions
        self.counters = counters

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def rate(self, numerator: str, denominator: str) -> float:
        return self.counters.rate(numerator, denominator)

    def __repr__(self) -> str:
        return (f"SimResult({self.program_name} on {self.config.name}: "
                f"IPC={self.ipc:.3f}, {self.instructions} insts, "
                f"{self.cycles} cycles)")


class Core:
    """One configured superscalar core bound to one program.

    ``memory``/``hierarchy`` default to a private image and the paper's
    single-core hierarchy; a :class:`~repro.pipeline.system.System`
    injects shared ones instead.  ``validate=False`` disables oracle
    value/effect validation at retirement (required under a shared
    memory image, where cross-core stores legitimately change what a
    load returns relative to its single-threaded execution).
    ``idle_skip=False`` disables the guaranteed-idle clock fast-forward
    so lockstepped cores keep identical cycle counts.

    The golden oracle is ``oracle``, an
    :class:`~repro.isa.interp.Interpreter` (by default a fresh one over
    ``program``) that the core runs in lockstep just ahead of right-path
    fetch: it fills a window of retire records :data:`ORACLE_CHUNK` at a
    time, and records are dropped once retired, so oracle memory is
    bounded by the in-flight window rather than by run length.  Right-
    path fetch, the branch oracle, mispredict recovery and retire
    validation all read that window.  ``max_instructions`` is the
    oracle's budget: needing a record past it with the oracle still
    running raises :class:`~repro.isa.interp.ExecutionLimitExceeded`.

    Checkpoint restore (see :mod:`repro.checkpoint`): ``start_pc`` and
    ``start_regs`` begin detailed simulation mid-program from a
    fast-forwarded architectural state instead of from reset.  The
    ``oracle`` must then be positioned at the same point
    (:meth:`~repro.checkpoint.arch.ArchCheckpoint.resume_interpreter`),
    so its next record is the first instruction this core retires, and
    ``memory`` the checkpoint's restored image.  ``warm_state``
    optionally pre-loads trained branch-predictor state and cache tag
    arrays from a checkpoint's warm capsule (``{"bpred": ...,
    "caches": ...}``); statistics always start from zero.
    """

    def __init__(self, program: Program, config: ProcessorConfig,
                 oracle: Optional[Interpreter] = None,
                 max_instructions: int = 1_000_000,
                 memory: Optional[MainMemory] = None,
                 hierarchy: Optional[CacheHierarchy] = None,
                 core_id: int = 0, validate: bool = True,
                 idle_skip: bool = True, start_pc: int = 0,
                 start_regs: Optional[List[int]] = None,
                 warm_state: Optional[dict] = None):
        self.program = program
        self.config = config
        self.oracle = oracle if oracle is not None \
            else Interpreter(program)
        # The oracle's records in core-relative trace-index order:
        # ``_window[i]`` is trace index ``_window_base + i`` (tuples in
        # RetireRecord field order).
        self._window: list = []
        self._window_base = 0
        self._oracle_budget = max_instructions
        self.counters = Counters()
        if memory is None:
            memory = MainMemory()
            memory.load_segments(program.data)
        self.memory = memory
        self.hierarchy = hierarchy if hierarchy is not None \
            else paper_hierarchy()
        self.core_id = core_id
        self.validate_trace = validate
        self.idle_skip = idle_skip
        self.subsystem = registry.build(config.subsystem, config,
                                        self.memory, self.hierarchy,
                                        self.counters)
        self.tag_file = DependenceTagFile()
        self.predictor = ProducerSetPredictor(config.predictor,
                                              self.counters)
        self.scheduler = Scheduler(config.sched_size, self.tag_file)
        self.rename = RenameTable(num_phys=config.rob_size + 64)
        self.bpred = GsharePredictor(oracle_fix_rate=config.oracle_fix_rate,
                                     seed=config.branch_seed)

        self.rob: Deque[DynInst] = deque()
        self._by_seq: Dict[int, DynInst] = {}
        self._completions: Dict[int, List[DynInst]] = {}

        # Interned counter handles for per-instruction events (a plain
        # attribute add instead of a string-dict lookup per event); rare
        # events stay on Counters.incr.
        counters = self.counters
        self._c_dispatched = counters.cell("dispatched_instructions")
        self._c_executed_loads = counters.cell("executed_loads")
        self._c_executed_stores = counters.cell("executed_stores")
        self._c_retired_loads = counters.cell("retired_loads")
        self._c_retired_stores = counters.cell("retired_stores")
        self._c_mem_replays = counters.cell("mem_replays")
        self._c_idle_skipped = counters.cell("idle_cycles_skipped")
        self._c_stall_rob = counters.cell("dispatch_stalls_rob")
        self._c_stall_sched = counters.cell("dispatch_stalls_sched")
        self._c_stall_phys = counters.cell("dispatch_stalls_phys")

        self.cycle = 0
        self.next_seq = 0
        self.retired = 0
        self.done = False

        # Fetch state: ``_fetch_trace_index >= 0`` means fetch is on the
        # architecturally correct path and the next instruction fetched is
        # the oracle's record at that trace index.
        self._fetch_pc: Optional[int] = start_pc
        self._fetch_trace_index = 0
        self._fetch_stall_until = 0
        self._fetch_progress = False
        self._last_evictions = 0

        # Checkpoint restore: seed the architectural register values into
        # the identity-mapped rename table (arch i -> phys i at reset) and
        # optionally pre-warm predictor/cache state.  r0 stays hardwired
        # zero.  Defaults (pc 0, no regs, no warm state) leave a
        # from-reset core bit-identical to before this feature existed.
        if start_regs is not None:
            values = self.rename.values
            for arch in range(1, ops.NUM_REGS):
                values[arch] = start_regs[arch] & MASK64
        if warm_state is not None:
            bpred_state = warm_state.get("bpred")
            if bpred_state is not None:
                self.bpred.import_state(bpred_state)
            cache_state = warm_state.get("caches")
            if cache_state is not None:
                self.hierarchy.import_state(cache_state)

    # ------------------------------------------------------------------ run

    def run(self) -> SimResult:
        """Simulate until the program's HALT retires."""
        self._step_until(math.inf)
        return self.finalize()

    def run_until(self, retired_target: int) -> None:
        """Step cycles until ``retired_target`` instructions have retired
        (or the program halts).  The sampling engine uses this to split a
        detailed window into a discarded warm-up span and a measured
        span; call :meth:`finalize` (or read counters directly) after the
        last window."""
        self._step_until(retired_target)

    def _step_until(self, retired_target: float) -> None:
        """The cycle loop behind :meth:`run` and :meth:`run_until`,
        guarded by ``config.max_cycles``."""
        max_cycles = self.config.max_cycles
        while not self.done and self.retired < retired_target:
            if self.cycle > max_cycles:
                raise SimulationError(
                    f"exceeded {max_cycles} cycles "
                    f"({self.retired} retired; "
                    f"rob head={self.rob[0] if self.rob else None})")
            self.step()

    def architectural_registers(self) -> List[int]:
        """The committed architectural register file.

        Only meaningful once the core is quiescent (``done`` or between
        retirement groups): reads each architectural register through the
        retirement-consistent rename table.  The conformance harness
        compares this against the in-order interpreter's register file.
        """
        rename = self.rename
        return [rename.values[rename.rat[arch]] if arch else 0
                for arch in range(ops.NUM_REGS)]

    def finalize(self) -> SimResult:
        """Snapshot end-of-run gauges and wrap up the result.

        Split from :meth:`run` so a :class:`~repro.pipeline.system.
        System` that drives cores cycle-by-cycle can finalize each one
        after the whole system quiesces.
        """
        self.counters.set("cycles", self.cycle)
        self.counters.set("retired_instructions", self.retired)
        for key, value in self.hierarchy.stats().items():
            self.counters.set(key, value)
        self.counters.set("branch_mispredictions",
                          self.bpred.mispredictions)
        self.counters.set("branch_predictions", self.bpred.predictions)
        return SimResult(self.program.name, self.config, self.cycle,
                         self.retired, self.counters)

    # ------------------------------------------------------------------ cycle

    def step(self) -> None:
        """Advance one cycle."""
        cycle = self.cycle

        for inst in self._completions.pop(cycle, ()):
            self._complete(inst)

        self._retire_stage()
        if self.done:
            return

        evictions = self.subsystem.eviction_events
        if evictions != self._last_evictions:
            self._last_evictions = evictions
            self.scheduler.clear_stall_bits()

        self._issue_stage()
        self._fetch_stage()
        self._advance_clock()

    def _advance_clock(self) -> None:
        """Advance to the next cycle, skipping guaranteed-idle spans."""
        cycle = self.cycle + 1
        self.cycle = cycle
        if not self.idle_skip:
            return
        if self.scheduler.has_ready or self._fetch_progress:
            return
        rob = self.rob
        if rob and rob[0].completed:
            return
        completions = self._completions
        target = min(completions) if completions else -1
        if self._fetch_pc is not None and self._fetch_stall_until > cycle:
            stall = self._fetch_stall_until
            if target < 0 or stall < target:
                target = stall
        if target > cycle:
            self._c_idle_skipped.value += target - cycle
            self.cycle = target

    # ------------------------------------------------------------------ completion

    def _complete(self, inst: DynInst) -> None:
        if inst.squashed:
            return
        inst.completed = True
        inst.complete_cycle = self.cycle
        phys = inst.rd_phys
        if phys is not None:
            rename = self.rename
            rename.values[phys] = inst.dest_value or 0
            rename.ready[phys] = True
            self.scheduler.on_phys_ready(phys)
        if inst.produced_tag is not None:
            # The idealized scheduler only wakes predicted consumers of
            # accesses that complete successfully (Section 3).
            self.tag_file.mark_ready(inst.produced_tag)
            self.scheduler.on_tag_ready(inst.produced_tag)

    def _schedule_completion(self, inst: DynInst, latency: int) -> None:
        due = self.cycle + (latency if latency > 1 else 1)
        pending = self._completions.get(due)
        if pending is None:
            self._completions[due] = [inst]
        else:
            pending.append(inst)

    # ------------------------------------------------------------------ retire

    def _retire_stage(self) -> None:
        rob = self.rob
        for _ in range(self.config.width):
            if not rob:
                return
            head = rob[0]
            if not head.completed:
                if head.stalled and head.inst.is_mem and \
                        not head.rob_head_bypass:
                    # ROB-lockup avoidance (Section 2.2): let the head
                    # access bypass the MDT/SFC.
                    head.rob_head_bypass = True
                    self.counters.incr("rob_head_bypass_grants")
                    self.scheduler.force_ready(head)
                return
            self._retire_one(head)
            if self.done:
                return

    def _retire_one(self, head: DynInst) -> None:
        inst = head.inst
        if inst.is_load:
            corrected, violations = self.subsystem.retire_load(
                head.seq, head.addr or 0, head.size)
            self._c_retired_loads.value += 1
            if corrected is not None:
                # Value-based retirement replay (Cain & Lipasti): the
                # load consumed stale data; retire it with the corrected
                # value and flush everything that may have used the old
                # one.  The physical register becomes architectural state
                # here, so it must carry the corrected value too.  The
                # subsystem replays the raw memory bytes; signed loads
                # need the same extension the execute path applies.
                if inst.op in (ops.LB, ops.LH, ops.LW):
                    corrected = sign_extend(corrected, head.size * 8)
                head.dest_value = corrected
                if head.rd_phys is not None:
                    self.rename.write(head.rd_phys, corrected)
            if violations:
                self._ordering_violation(head, violations)
        elif inst.is_store:
            addr, size, data, violations = self.subsystem.retire_store(
                head.seq, head.addr or 0, head.size,
                bypassed=head.rob_head_bypass, pc=head.pc)
            self.memory.write_int(addr, size, data)
            self.hierarchy.data_latency(addr)  # commit-port cache traffic
            self._c_retired_stores.value += 1
            if violations:
                # A bypassed store found younger loads that already read
                # stale data: conservative recovery flush (see
                # MemoryDisambiguationTable.check_store).
                self._ordering_violation(head, violations)
        elif inst.op in ops.BRANCH_OPS:
            self.bpred.update(head.pc, head.actual_taken,
                              head.predicted_taken)
        elif inst.op == ops.JR or inst.op == ops.JALR:
            self.bpred.update_indirect(head.pc, head.actual_target)
        # Validation runs after retirement-replay correction so the
        # value compared against the oracle is the retiring one.
        if self.validate_trace:
            self._validate(head)
        old_phys = head.old_rd_phys
        if old_phys is not None:
            rename = self.rename
            rename.ready[old_phys] = False
            rename._free.append(old_phys)
        if head.produced_tag is not None:
            self.tag_file.release(head.produced_tag)
        self.rob.popleft()
        del self._by_seq[head.seq]
        self.retired += 1
        if inst.op == ops.HALT:
            self.done = True

    def _validate(self, head: DynInst) -> None:
        """Compare a retiring instruction against the oracle's record."""
        if head.trace_index != self.retired:
            raise SimulationError(
                f"retired {head!r} out of order: trace index "
                f"{head.trace_index} != retire count {self.retired}")
        record = self._window[self.retired - self._window_base]
        _, pc, op, _, dest_value, store_addr, _, store_data, next_pc, _ = \
            record
        if head.pc != pc or head.inst.op != op:
            raise SimulationError(
                f"retired {head!r} does not match oracle record "
                f"{RetireRecord(*record)!r}")
        if dest_value is not None and head.inst.rd != 0 and \
                head.dest_value != dest_value:
            raise SimulationError(
                f"wrong destination value at {head!r}: "
                f"{head.dest_value} != {dest_value} "
                f"({RetireRecord(*record)!r})")
        if store_addr is not None and (head.addr != store_addr or
                                       head.store_data != store_data):
            raise SimulationError(
                f"wrong store effect at {head!r}: "
                f"{head.addr}/{head.store_data} != "
                f"{store_addr}/{store_data}")
        if head.inst.is_control and head.actual_target != next_pc:
            raise SimulationError(
                f"wrong control target at {head!r}: "
                f"{head.actual_target:#x} != {next_pc:#x}")

    # ------------------------------------------------------------------ issue/execute

    def _issue_stage(self) -> None:
        scheduler = self.scheduler
        selected = scheduler.select(self.config.num_fus)
        cycle = self.cycle
        for inst in selected:
            if inst.squashed:
                continue
            scheduler.mark_issued(inst)
            inst.issue_cycle = cycle
            self._execute(inst)

    def _execute(self, inst: DynInst) -> None:
        static = inst.inst
        op = static.op
        values = self.rename.values
        a = values[inst.rs1_phys]
        b = values[inst.rs2_phys]

        if static.is_mem:
            self._execute_mem(inst, a, b)
            return

        latency = 1
        mispredicted = False
        if static.is_branch:
            inst.actual_taken = taken = branch_taken(op, a, b)
            inst.actual_target = static.imm if taken \
                else (inst.pc + INSTRUCTION_BYTES) & MASK64
            mispredicted = inst.actual_target != inst.predicted_target
        elif op == ops.JR:
            inst.actual_taken = True
            inst.actual_target = a
            mispredicted = inst.actual_target != inst.predicted_target
        elif op == ops.JALR:
            inst.actual_taken = True
            inst.actual_target = (a + static.imm) & MASK64 & ~1
            inst.dest_value = (inst.pc + INSTRUCTION_BYTES) & MASK64
            mispredicted = inst.actual_target != inst.predicted_target
        elif op in (ops.J, ops.JAL):
            inst.actual_taken = True
            inst.actual_target = static.imm
            if op == ops.JAL:
                inst.dest_value = (inst.pc + INSTRUCTION_BYTES) & MASK64
        elif op in (ops.NOP, ops.HALT):
            pass
        else:
            inst.dest_value = execute_op(op, a, b, static.imm)
            latency = static.latency

        # Inline completion scheduling (the per-instruction common case).
        due = self.cycle + (latency if latency > 1 else 1)
        completions = self._completions
        pending = completions.get(due)
        if pending is None:
            completions[due] = [inst]
        else:
            pending.append(inst)
        if mispredicted:
            self._branch_mispredict(inst)

    def _execute_mem(self, inst: DynInst, a: int, b: int) -> None:
        static = inst.inst
        op = static.op
        addr = (a + static.imm) & MASK64
        size = ops.ACCESS_SIZE[op]
        inst.addr = addr
        inst.size = size
        watermark = self.rob[0].seq if self.rob else self.next_seq
        if static.is_load:
            self._c_executed_loads.value += 1
            outcome = self.subsystem.execute_load(
                inst.seq, inst.pc, addr, size, watermark,
                at_rob_head=inst.rob_head_bypass)
        else:
            data = b & ((1 << (8 * size)) - 1)
            inst.store_data = data
            self._c_executed_stores.value += 1
            outcome = self.subsystem.execute_store(
                inst.seq, inst.pc, addr, size, data, watermark,
                at_rob_head=inst.rob_head_bypass)

        if outcome.status == REPLAY:
            self._c_mem_replays.value += 1
            self.scheduler.replay(inst)
            return

        for violation in outcome.train_only:
            self.predictor.on_violation(violation.kind,
                                        violation.producer_pc,
                                        violation.consumer_pc)
        if outcome.violations:
            self._ordering_violation(inst, outcome.violations)
        if inst.squashed:
            # An anti-dependence flush squashes the triggering load itself.
            return
        if static.is_load:
            value = outcome.value or 0
            if op in (ops.LB, ops.LH, ops.LW):
                value = sign_extend(value, size * 8)
            inst.dest_value = value
        self._schedule_completion(inst, outcome.latency)

    # ------------------------------------------------------------------ recovery

    def _branch_mispredict(self, inst: DynInst) -> None:
        self.counters.incr("branch_mispredict_flushes")
        resume_trace = -1
        if inst.on_right_path:
            next_pc = self._window[inst.trace_index - self._window_base][8]
            if inst.actual_target == next_pc:
                resume_trace = inst.trace_index + 1
            # Otherwise the branch resolved from misspeculated inputs (a
            # stale load value whose ordering violation has not been
            # detected yet): the redirect target is itself wrong-path,
            # and the eventual violation flush re-fetches the truth.
        self._flush_after(inst.seq, inst.actual_target, resume_trace,
                          self.config.mispredict_penalty)

    def _ordering_violation(self, inst: DynInst,
                            violations: List) -> None:
        """Recover from MDT/LSQ-detected ordering violations."""
        flush_after = None
        for violation in violations:
            self.counters.incr(f"violation_flushes_{violation.kind}")
            self.predictor.on_violation(violation.kind,
                                        violation.producer_pc,
                                        violation.consumer_pc)
            if flush_after is None or \
                    violation.flush_after_seq < flush_after:
                flush_after = violation.flush_after_seq
        assert flush_after is not None
        penalty = self.config.mispredict_penalty + \
            self.subsystem.violation_extra_penalty
        first_squashed = self._squash_after(flush_after)
        if first_squashed is None:
            # Nothing younger in flight; fetch continues where it was.
            return
        resume_trace = first_squashed.trace_index
        self._redirect_fetch(first_squashed.pc, resume_trace, penalty)
        self.subsystem.on_partial_flush(flush_after, self.next_seq - 1)
        self.counters.incr("partial_flushes")

    def _flush_after(self, flush_after_seq: int, resume_pc: int,
                     resume_trace_index: int, penalty: int) -> None:
        """Partial pipeline flush with an explicit resume point."""
        self._squash_after(flush_after_seq)
        self._redirect_fetch(resume_pc, resume_trace_index, penalty)
        self.subsystem.on_partial_flush(flush_after_seq,
                                        self.next_seq - 1)
        self.counters.incr("partial_flushes")

    def _squash_after(self, flush_after_seq: int) -> Optional[DynInst]:
        """Squash every instruction younger than the flush point.

        Returns the oldest squashed instruction (None when nothing was
        squashed).  The RAT is recovered through the undo log: walking
        the squashed instructions youngest-first and re-mapping each
        destination back to ``old_rd_phys`` (the mapping that instruction
        displaced at rename) reconstructs exactly the pre-rename RAT of
        the oldest squashed instruction, without per-dispatch snapshots.
        """
        rob = self.rob
        rename = self.rename
        rat = rename.rat
        scheduler = self.scheduler
        tag_file = self.tag_file
        by_seq = self._by_seq
        first_squashed: Optional[DynInst] = None
        squashed_count = 0
        while rob and rob[-1].seq > flush_after_seq:
            dead = rob.pop()
            dead.squashed = True
            scheduler.note_squashed(dead)
            if dead.produced_tag is not None:
                tag_file.mark_ready(dead.produced_tag)
                scheduler.on_tag_ready(dead.produced_tag)
                tag_file.release(dead.produced_tag)
            if dead.rd_phys is not None:
                rat[dead.inst.rd] = dead.old_rd_phys
                rename.release(dead.rd_phys)
            del by_seq[dead.seq]
            first_squashed = dead
            squashed_count += 1
        if first_squashed is not None:
            self.counters.incr("squashed_instructions", squashed_count)
            scheduler.squash_after(flush_after_seq)
        return first_squashed

    def _redirect_fetch(self, resume_pc: int, resume_trace_index: int,
                        penalty: int) -> None:
        self._fetch_pc = resume_pc
        self._fetch_trace_index = resume_trace_index
        # A redirect supersedes any pending stall for the abandoned path.
        self._fetch_stall_until = self.cycle + penalty

    # ------------------------------------------------------------------ oracle

    def _fill_window(self, trace_index: int) -> int:
        """Run the oracle until the window holds ``trace_index``; returns
        that record's offset in the window.

        Records older than the retire point are never read again, so a
        fill first drops them once :data:`ORACLE_TRIM` have accumulated.
        """
        window = self._window
        retired = self.retired
        drop = retired - self._window_base
        if drop >= ORACLE_TRIM:
            del window[:drop]
            self._window_base = retired
        base = self._window_base
        oracle = self.oracle
        while trace_index - base >= len(window):
            budget = self._oracle_budget - base - len(window)
            if budget <= 0 and not oracle.halted:
                raise ExecutionLimitExceeded(
                    f"program {self.program.name!r} did not halt within "
                    f"{self._oracle_budget} instructions")
            if not oracle.records(min(ORACLE_CHUNK, budget), window):
                raise SimulationError(
                    f"right-path fetch ran past the oracle's halt "
                    f"({base + len(window)} records) at trace index "
                    f"{trace_index}; the oracle does not run this "
                    f"program")
        return trace_index - base

    # ------------------------------------------------------------------ fetch/dispatch

    def _fetch_stage(self) -> None:
        """Fetch, rename and dispatch up to ``width`` instructions along
        the predicted path, and pick the next fetch PC.

        This is the hottest function in the simulator (once per
        dispatched instruction, right *and* wrong path), so rename,
        dispatch and the next-fetch-PC logic are one loop over locals,
        and the non-control common case continues early.
        """
        self._fetch_progress = False
        if self._fetch_pc is None or self.cycle < self._fetch_stall_until:
            return
        branches = 0
        config = self.config
        rob = self.rob
        rob_size = config.rob_size
        scheduler = self.scheduler
        sched_capacity = scheduler.capacity
        dispatch_fast = scheduler.dispatch_fast
        rename = self.rename
        rat = rename.rat
        ready = rename.ready
        free = rename._free
        subsystem = self.subsystem
        by_seq = self._by_seq
        window = self._window
        fetch = self.program.fetch
        instructions = self.program.instructions
        num_insts = len(instructions)
        inst_latency = self.hierarchy.inst_latency
        branch_limit = config.fetch_branches_per_cycle
        for _ in range(config.width):
            if len(rob) >= rob_size:
                self._c_stall_rob.value += 1
                return
            if scheduler._occupancy >= sched_capacity:
                self._c_stall_sched.value += 1
                return
            if not free:
                self._c_stall_phys.value += 1
                return
            pc = self._fetch_pc
            # Inline of Program.fetch's aligned in-range fast path; the
            # slow path (pad/HALT for wrong-path fetch) stays in fetch().
            index = pc >> 2
            if index < num_insts and not pc & 3:
                static = instructions[index]
            else:
                static = fetch(pc)
            if static.is_load and not subsystem.can_dispatch_load():
                self.counters.incr("dispatch_stalls_lq")
                return
            if static.is_store and not subsystem.can_dispatch_store():
                self.counters.incr("dispatch_stalls_sq")
                return
            is_control = static.is_control
            if is_control and branches >= branch_limit:
                return
            # Instruction cache: a miss stalls fetch; the lookup filled
            # the line, so the re-fetch after the stall hits.
            ilat = inst_latency(pc)
            if ilat > 1:
                self._fetch_stall_until = self.cycle + ilat - 1
                return

            # Right-path tracking against the oracle window.
            trace_index = self._fetch_trace_index
            record = None
            if trace_index >= 0:
                offset = trace_index - self._window_base
                if offset >= len(window):
                    offset = self._fill_window(trace_index)
                record = window[offset]
                if record[1] != pc:
                    raise SimulationError(
                        f"right-path fetch diverged: pc={pc:#x} but the "
                        f"oracle expects {record[1]:#x} at index "
                        f"{trace_index}")

            seq = self.next_seq
            self.next_seq = seq + 1
            inst = DynInst(seq, pc, static, trace_index)

            # Source renaming.  The RAT needs no checkpoint here: recovery
            # walks the undo log (each instruction's old_rd_phys) instead.
            unready1 = -1
            unready2 = -1
            if static.reads_rs1:
                phys = rat[static.rs1]
                inst.rs1_phys = phys
                if not ready[phys]:
                    unready1 = phys
            if static.reads_rs2:
                phys = rat[static.rs2]
                inst.rs2_phys = phys
                if not ready[phys]:
                    unready2 = phys
            # Destination renaming (RenameTable.allocate, inlined).
            if static.writes_rd:
                rd = static.rd
                inst.old_rd_phys = rat[rd]
                phys = free.pop()
                ready[phys] = False
                rat[rd] = phys
                inst.rd_phys = phys

            # Memory dependence prediction (Section 2.1).
            if static.is_mem:
                consumed, produced = self.predictor.on_dispatch(
                    pc, static.is_store, self.tag_file)
                inst.consumed_tag = consumed
                inst.produced_tag = produced
                if static.is_load:
                    subsystem.dispatch_load(seq, pc)
                else:
                    subsystem.dispatch_store(seq, pc)

            rob.append(inst)
            by_seq[seq] = inst
            dispatch_fast(inst, unready1, unready2)
            self._c_dispatched.value += 1
            self._fetch_progress = True

            # Next fetch PC + right-path tracking.
            if not is_control:
                if static.op == ops.HALT:
                    inst.actual_target = pc  # matches the ISS convention
                    inst.predicted_target = pc
                    self._fetch_pc = None
                    return
                fall_through = (pc + INSTRUCTION_BYTES) & MASK64
                inst.predicted_target = fall_through
                self._fetch_pc = fall_through
                if record is not None:
                    self._fetch_trace_index = trace_index + 1
                continue

            branches += 1
            op = static.op
            if static.is_branch:
                if record is not None:
                    predicted = self.bpred.predict_with_oracle(pc,
                                                               record[9])
                else:
                    predicted = self.bpred.predict(pc)
                    self.bpred.predictions += 1
                inst.predicted_taken = predicted
                target = static.imm if predicted \
                    else (pc + INSTRUCTION_BYTES) & MASK64
                inst.predicted_target = target
                self._fetch_pc = target
                if record is not None and target == record[8]:
                    self._fetch_trace_index = trace_index + 1
                else:
                    self._fetch_trace_index = -1
            elif op == ops.JR or op == ops.JALR:
                predicted_target = self.bpred.predict_indirect(pc)
                if record is not None and predicted_target != record[8] \
                        and self.bpred.oracle_should_fix():
                    predicted_target = record[8]
                inst.predicted_taken = True
                inst.predicted_target = predicted_target
                self._fetch_pc = predicted_target
                if record is not None and predicted_target == record[8]:
                    self._fetch_trace_index = trace_index + 1
                else:
                    self._fetch_trace_index = -1
            else:  # J / JAL
                inst.predicted_taken = True
                inst.predicted_target = static.imm
                self._fetch_pc = static.imm
                if record is not None:
                    self._fetch_trace_index = trace_index + 1
