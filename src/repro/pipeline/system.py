"""N-core system: lockstepped :class:`~repro.pipeline.core.Core` objects
over one shared :class:`~repro.memory.system.MemorySystem`.

The cycle loop moves up a level here: :meth:`System.step` advances every
still-running core by exactly one cycle, in ascending ``core_id`` order.
Lockstep plus that fixed round-robin order is the system's *coherence
point*: a store becomes globally visible the moment its core's retire
stage writes the shared image, and which same-cycle accesses observe it
is fully determined by core order -- so multicore runs are as
deterministic and replayable as single-core ones (idle-cycle
fast-forwarding is disabled on every core to keep their clocks equal).

Memory modes (see :class:`~repro.pipeline.config.SystemConfig`):

* ``shared`` -- every core executes over the shared architectural
  image.  Cross-core interactions (store visibility at retirement,
  speculative loads reading whatever is currently in the image, per-core
  SFC/MDT state never snooping other cores) become observable; per-core
  oracle *value* validation is off, because another core's store
  legitimately changes what a load returns relative to its
  single-threaded execution.  This is the litmus/weak-memory mode.
* ``private`` -- every core owns a private image (its own program's
  data) but timing flows through the shared L2, so ordinary benchmarks
  run N-up with full oracle validation intact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..isa.program import Program
from ..memory.system import MemorySystem
from .config import SystemConfig
from .core import Core, SimResult, SimulationError


class SystemResult:
    """Outcome of one N-core system run.

    ``counters`` namespaces every per-core counter as
    ``core<N>_<name>`` and adds the system-level aggregates (``cycles``,
    ``retired_instructions``) plus the shared-L2 statistics unprefixed.
    """

    def __init__(self, config: SystemConfig,
                 core_results: List[SimResult], cycles: int,
                 counters: Dict[str, float]):
        self.config = config
        self.core_results = core_results
        self.cycles = cycles
        self.instructions = sum(result.instructions
                                for result in core_results)
        self.counters = counters
        self.program_name = "+".join(result.program_name
                                     for result in core_results)

    @property
    def ipc(self) -> float:
        """Aggregate system IPC (all cores' retirements per cycle)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def __repr__(self) -> str:
        return (f"SystemResult({self.program_name} on "
                f"{self.config.name}: {self.config.cores} cores, "
                f"IPC={self.ipc:.3f}, {self.instructions} insts, "
                f"{self.cycles} cycles)")


class System:
    """N lockstepped cores over one shared memory system.

    ``programs`` is one :class:`~repro.isa.program.Program` per core; a
    single program is replicated across every core (the N-up throughput
    case).  Each core runs its own lockstep oracle over its program (see
    :class:`~repro.pipeline.core.Core`) -- the program's
    *single-threaded* architectural execution, used for fetch-path
    tracking and the branch oracle; value validation against it is
    enabled only in ``private`` memory mode.  ``max_instructions`` is
    each oracle's budget.

    ``checkpoints`` (one
    :class:`~repro.checkpoint.arch.ArchCheckpoint` per core, or None
    entries for cores starting at reset) begins each core's detailed
    simulation from fast-forwarded architectural state.  Restore is
    only meaningful in ``private`` memory mode -- checkpoints are
    captured by the *single-threaded* interpreter, and a shared image
    stamped from per-core checkpoints would interleave their deltas
    nondeterministically -- so shared-memory mode rejects it.  Each
    restored core's oracle resumes from its checkpoint.
    """

    def __init__(self, programs: Sequence[Program], config: SystemConfig,
                 max_instructions: int = 1_000_000,
                 checkpoints: Optional[Sequence] = None):
        programs = list(programs)
        if len(programs) == 1 and config.cores > 1:
            programs = programs * config.cores
        if len(programs) != config.cores:
            raise ValueError(
                f"got {len(programs)} program(s) for {config.cores} "
                f"core(s); pass one per core or a single program to "
                f"replicate")
        if checkpoints is not None:
            if config.shared_memory:
                raise ValueError(
                    "checkpoint restore requires private memory mode: "
                    "single-threaded checkpoints cannot seed a shared "
                    "architectural image")
            if len(checkpoints) != config.cores:
                raise ValueError(
                    f"got {len(checkpoints)} checkpoint(s) for "
                    f"{config.cores} core(s)")
        self.config = config
        self.programs = programs
        self.memsys = MemorySystem(config.cores,
                                   shared=config.shared_memory)
        for core_id, program in enumerate(programs):
            self.memsys.load_segments(core_id, program.data)
        shared = config.shared_memory
        self.cores: List[Core] = []
        for core_id, program in enumerate(programs):
            ckpt = checkpoints[core_id] if checkpoints is not None \
                else None
            memory = self.memsys.memory(core_id)
            oracle = None
            if ckpt is not None:
                memory.apply_page_delta(ckpt.pages)
                oracle = ckpt.resume_interpreter(program)
            self.cores.append(Core(
                program, config.core, oracle=oracle,
                max_instructions=max_instructions, memory=memory,
                hierarchy=self.memsys.hierarchy(core_id),
                core_id=core_id, validate=not shared, idle_skip=False,
                start_pc=ckpt.pc if ckpt is not None else 0,
                start_regs=ckpt.regs if ckpt is not None else None,
                warm_state=ckpt.warm if ckpt is not None else None))
        self.cycle = 0

    @property
    def done(self) -> bool:
        return all(core.done for core in self.cores)

    # ------------------------------------------------------------------ cycle

    def step(self) -> None:
        """Advance every still-running core by one cycle, in core-id
        order (the deterministic coherence order)."""
        for core in self.cores:
            if not core.done:
                core.step()
        self.cycle += 1

    # ------------------------------------------------------------------ run

    def run(self) -> SystemResult:
        """Simulate until every core's HALT retires."""
        max_cycles = self.config.core.max_cycles
        while not self.done:
            if self.cycle > max_cycles:
                stuck = [core.core_id for core in self.cores
                         if not core.done]
                raise SimulationError(
                    f"system exceeded {max_cycles} cycles with "
                    f"core(s) {stuck} still running")
            self.step()
        return self.finalize()

    def finalize(self) -> SystemResult:
        """Finalize every core and merge the per-core counters under
        ``core<N>_`` prefixes plus the system-level aggregates."""
        core_results = [core.finalize() for core in self.cores]
        cycles = max((core.cycle for core in self.cores), default=0)
        merged: Dict[str, float] = {}
        for core_id, result in enumerate(core_results):
            for name, value in result.counters.as_dict().items():
                merged[f"core{core_id}_{name}"] = value
        merged.update(self.memsys.stats())
        merged["cycles"] = cycles
        merged["retired_instructions"] = sum(result.instructions
                                             for result in core_results)
        return SystemResult(self.config, core_results, cycles, merged)

    # ------------------------------------------------------------------ views

    @property
    def shared_memory(self):
        """The shared architectural image (the coherence point)."""
        return self.memsys.shared_memory
