"""Interval sampling over checkpointed fast-forward.

SMARTS/SimPoint-style sampling for the detailed simulator: partition an
N-instruction run into K detailed intervals separated by fast-forward
gaps.  One interpreter pass captures a train of architectural
checkpoints (optionally with warm branch-predictor/cache capsules); K of
them, evenly spaced, seed detailed windows of ``warmup_insts +
interval_insts`` instructions each.  Warm-up counters are discarded;
per-interval IPC and counter deltas over the measured span aggregate
into a mean with a confidence interval.

Error model (see DESIGN.md "Sampling methodology"): the reported
confidence half-width is the t-distribution sampling term
``t_{0.95,K-1} * s / sqrt(K)`` plus a fixed 2%-of-mean systematic
allowance covering non-sampling bias (finite warm-up, cold structures
the capsule does not capture, interval-boundary effects).  With a single
interval no variance estimate exists and a conservative 10% half-width
is reported instead.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..branch.gshare import GsharePredictor
from ..isa.interp import ExecutionLimitExceeded, Interpreter
from ..isa.program import Program
from ..memory.cache import paper_hierarchy
from ..memory.main_memory import MainMemory
from ..pipeline.config import ProcessorConfig
from ..pipeline.core import Core
from .arch import ArchCheckpoint
from .store import CheckpointStore, train_key

#: Fixed relative allowance for non-sampling (systematic) error, added
#: to the statistical term of every reported confidence interval.
SYSTEMATIC_ERROR = 0.02

#: Relative half-width reported when only one interval was measured.
SINGLE_INTERVAL_ERROR = 0.10

#: Cap on checkpoints kept per train; the capture pass thins the train
#: (dropping every other checkpoint, doubling the stride) beyond this.
MAX_TRAIN_CHECKPOINTS = 128

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042}


def t95(df: int) -> float:
    """95% two-sided Student-t critical value (1.96 asymptote)."""
    if df in _T95:
        return _T95[df]
    for bound in (30, 25, 20, 15):
        if df >= bound:
            return _T95[bound] if df < 60 else 1.96
    return _T95[max(1, min(df, 15))]


class SamplingError(Exception):
    """Sampling could not produce a usable estimate."""


class SampledResult:
    """Aggregate of K measured intervals of one (program, config) run."""

    __slots__ = ("program_name", "config_name", "ipc_mean", "ipc_std",
                 "ipc_ci95", "intervals", "counters", "cycles",
                 "instructions", "total_instructions",
                 "detailed_instructions", "warmup_insts", "interval_insts",
                 "checkpoint_every", "warm")

    def __init__(self, program_name: str, config_name: str,
                 ipc_mean: float, ipc_std: float, ipc_ci95: float,
                 intervals: List[dict], counters: Dict[str, float],
                 cycles: int, instructions: int, total_instructions: int,
                 detailed_instructions: int, warmup_insts: int,
                 interval_insts: int, checkpoint_every: int, warm: bool):
        self.program_name = program_name
        self.config_name = config_name
        self.ipc_mean = ipc_mean
        self.ipc_std = ipc_std
        self.ipc_ci95 = ipc_ci95
        self.intervals = intervals
        self.counters = counters
        self.cycles = cycles
        self.instructions = instructions
        self.total_instructions = total_instructions
        self.detailed_instructions = detailed_instructions
        self.warmup_insts = warmup_insts
        self.interval_insts = interval_insts
        self.checkpoint_every = checkpoint_every
        self.warm = warm

    def sampling_dict(self) -> dict:
        """The ``sampling`` metadata block of a sampled RunRecord."""
        return {
            "ipc_mean": self.ipc_mean,
            "ipc_std": self.ipc_std,
            "ipc_ci95": self.ipc_ci95,
            "intervals": [
                {"position": iv["position"], "retired": iv["retired"],
                 "cycles": iv["cycles"], "ipc": iv["ipc"]}
                for iv in self.intervals],
            "total_instructions": self.total_instructions,
            "detailed_instructions": self.detailed_instructions,
            "warmup_insts": self.warmup_insts,
            "interval_insts": self.interval_insts,
            "checkpoint_every": self.checkpoint_every,
            "warm": self.warm,
        }


def _warm_capsule(bpred: Optional[GsharePredictor],
                  hierarchy) -> Optional[dict]:
    if bpred is None and hierarchy is None:
        return None
    capsule: dict = {}
    if bpred is not None:
        capsule["bpred"] = bpred.export_state()
    if hierarchy is not None:
        capsule["caches"] = hierarchy.export_state()
    return capsule


def _advance_capture(program: Program, interp: Interpreter,
                     checkpoints: List[ArchCheckpoint], stride: int,
                     bpred, hierarchy, horizon: Optional[int],
                     limit: int, max_checkpoints: int):
    """Drive a (fresh or resumed) capture forward.

    Fast-forwards ``interp`` in ``stride``-sized chunks, appending a
    checkpoint at every chunk boundary, until the program halts or --
    when ``horizon`` is given -- the first boundary at or past
    ``horizon``.  Thinning (drop every other checkpoint, double the
    stride) keeps the train under ``max_checkpoints`` while always
    preserving the *last* checkpoint, so an incomplete train can later
    be resumed from exactly the position its ``total_instructions``
    reports.

    Returns ``(checkpoints, total_instructions, complete, stride)``.
    The whole advance is a deterministic function of its starting state,
    which is what makes in-place extension bit-identical to a fresh
    capture at the longer horizon.
    """
    base_image = MainMemory()
    base_image.load_segments(program.data)
    while not interp.halted:
        position = interp.instructions_retired
        if horizon is not None and position >= horizon:
            return checkpoints, position, False, stride
        budget = min(stride, limit - position)
        if budget <= 0:
            raise ExecutionLimitExceeded(
                f"program {program.name!r} did not halt within "
                f"{limit} instructions")
        executed = interp.fast_forward(budget, bpred, hierarchy)
        if interp.halted or executed < budget:
            break
        checkpoints.append(ArchCheckpoint.capture(
            interp, base_image, warm=_warm_capsule(bpred, hierarchy)))
        while len(checkpoints) > max_checkpoints:
            thinned = checkpoints[::2]
            if thinned[-1] is not checkpoints[-1]:
                thinned.append(checkpoints[-1])
            checkpoints = thinned
            stride *= 2
    if not interp.halted:
        raise ExecutionLimitExceeded(
            f"program {program.name!r} did not halt within "
            f"{limit} instructions")
    return checkpoints, interp.instructions_retired, True, stride


def capture_train(program: Program, every: int, warm: bool = True,
                  limit: int = 5_000_000,
                  max_checkpoints: int = MAX_TRAIN_CHECKPOINTS,
                  horizon: Optional[int] = None):
    """One fast-forward pass over ``program``, checkpointing every
    ``every`` retired instructions.

    Returns ``(checkpoints, total_instructions)``.  The train always
    starts with a position-0 checkpoint and is thinned (every other
    checkpoint dropped, stride doubled) whenever it exceeds
    ``max_checkpoints``, so long programs stay bounded in memory and on
    disk.  ``horizon`` stops the capture at the first checkpoint
    boundary at or past that many retired instructions instead of
    running to halt (see :func:`ensure_train` for the reuse protocol
    built on this).
    """
    if every < 1:
        raise ValueError(f"checkpoint interval must be >= 1, got {every}")
    interp = Interpreter(program)
    base_image = MainMemory()
    base_image.load_segments(program.data)
    bpred = GsharePredictor() if warm else None
    hierarchy = paper_hierarchy() if warm else None
    checkpoints = [ArchCheckpoint.capture(
        interp, base_image, warm=_warm_capsule(bpred, hierarchy))]
    checkpoints, total, _complete, _stride = _advance_capture(
        program, interp, checkpoints, every, bpred, hierarchy,
        horizon, limit, max_checkpoints)
    return checkpoints, total


def _resume_warm_state(checkpoint: ArchCheckpoint, warm: bool):
    """Rebuild the (bpred, hierarchy) training pair a capture had when it
    captured ``checkpoint``.  Capsules restore predictor counters and
    cache tag arrays exactly, so training resumed from them is
    bit-identical to training that never stopped."""
    if not warm:
        return None, None
    bpred = GsharePredictor()
    hierarchy = paper_hierarchy()
    capsule = checkpoint.warm or {}
    if "bpred" in capsule:
        bpred.import_state(capsule["bpred"])
    if "caches" in capsule:
        hierarchy.import_state(capsule["caches"])
    return bpred, hierarchy


def ensure_train(program: Program, every: int, warm: bool = True, *,
                 horizon: Optional[int] = None, store=None,
                 limit: int = 5_000_000,
                 max_checkpoints: int = MAX_TRAIN_CHECKPOINTS) -> dict:
    """Return a train payload covering ``horizon`` retired instructions
    (the full run when None), reusing or extending any persisted train.

    The cross-scale reuse protocol:

    * :func:`~repro.checkpoint.store.train_key` deliberately excludes
      the horizon, so every request for the same ``(program, every,
      warm)`` triple shares one stored train regardless of scale;
    * a stored train that is ``complete`` (ran to halt) or already
      reaches ``horizon`` is served as-is -- a train captured at a
      longer horizon satisfies any shorter request as a position
      prefix;
    * a shorter stored train is **extended in place**: capture resumes
      from its last checkpoint (architectural state from the page
      delta, predictor/cache training from the warm capsule), runs
      forward to the new horizon, and atomically replaces the stored
      train.  Extension is bit-identical to a fresh capture at the
      longer horizon, so mixing scales never recaptures and never
      changes results.

    Returns ``{"checkpoints", "total_instructions", "complete",
    "stride"}``.
    """
    if every < 1:
        raise ValueError(f"checkpoint interval must be >= 1, got {every}")
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    key = train_key(program.digest(), every, warm) \
        if store is not None else None
    train = store.load(key) if store is not None else None
    if train is not None:
        if train["complete"] or (horizon is not None
                                 and train["total_instructions"] >= horizon):
            return train
        # Extend in place from the last checkpoint.
        checkpoints = list(train["checkpoints"])
        stride = train["stride"]
        if stride <= 0:  # legacy/unknown: infer from positions
            stride = (checkpoints[1].retired - checkpoints[0].retired
                      if len(checkpoints) > 1 else every)
        last = checkpoints[-1]
        interp = last.resume_interpreter(program)
        bpred, hierarchy = _resume_warm_state(last, warm)
    else:
        interp = Interpreter(program)
        bpred = GsharePredictor() if warm else None
        hierarchy = paper_hierarchy() if warm else None
        base_image = MainMemory()
        base_image.load_segments(program.data)
        checkpoints = [ArchCheckpoint.capture(
            interp, base_image, warm=_warm_capsule(bpred, hierarchy))]
        stride = every
    checkpoints, total, complete, stride = _advance_capture(
        program, interp, checkpoints, stride, bpred, hierarchy,
        horizon, limit, max_checkpoints)
    payload = {"checkpoints": checkpoints, "total_instructions": total,
               "complete": complete, "stride": stride}
    if store is not None and key is not None:
        store.store(key, checkpoints, total, complete=complete,
                    stride=stride)
    return payload


def select_checkpoints(checkpoints: List[ArchCheckpoint], total: int,
                       intervals: int,
                       window: int) -> List[ArchCheckpoint]:
    """Pick up to ``intervals`` evenly spaced checkpoints whose detailed
    window of ``window`` instructions fits before the program halts."""
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    eligible = [ckpt for ckpt in checkpoints
                if ckpt.retired + window <= total]
    if not eligible:
        # Program shorter than one window: a single from-the-start
        # interval degenerates to (truncated) full detailed simulation.
        return [checkpoints[0]]
    count = min(intervals, len(eligible))
    if count == 1:
        return [eligible[len(eligible) // 2]]
    span = len(eligible) - 1
    picked = []
    seen = set()
    for i in range(count):
        index = round(i * span / (count - 1))
        if index not in seen:
            seen.add(index)
            picked.append(eligible[index])
    return picked


def simulate_interval(program: Program, config: ProcessorConfig,
                      ckpt: ArchCheckpoint, warmup_insts: int,
                      interval_insts: int) -> Optional[dict]:
    """Detailed-simulate one window from ``ckpt``: warm up
    ``warmup_insts`` (counters discarded), measure ``interval_insts``.

    Returns the per-interval measurement dict, or None when the program
    halts inside the warm-up (nothing measurable).  The core's lockstep
    oracle resumes from the same checkpoint, so it executes only the
    window plus the in-flight lookahead, and each span ends early when
    the program's HALT retires.
    """
    core = Core(program, config,
                oracle=ckpt.resume_interpreter(program),
                memory=ckpt.restore_memory(program),
                start_pc=ckpt.pc, start_regs=ckpt.regs,
                warm_state=ckpt.warm)
    core.run_until(warmup_insts)
    warm_cycle = core.cycle
    warm_retired = core.retired
    warm_counters = core.counters.as_dict()
    core.run_until(warmup_insts + interval_insts)
    retired = core.retired - warm_retired
    cycles = core.cycle - warm_cycle
    if retired <= 0 or cycles <= 0:
        return None
    end_counters = core.counters.as_dict()
    deltas = {key: value - warm_counters.get(key, 0)
              for key, value in end_counters.items()}
    return {"position": ckpt.retired, "retired": retired,
            "cycles": cycles, "ipc": retired / cycles,
            "detailed_retired": core.retired, "counters": deltas}


def sample_run(program: Program, config: ProcessorConfig, *,
               intervals: int = 10, warmup_insts: int = 1_000,
               interval_insts: int = 5_000,
               checkpoint_every: Optional[int] = None, warm: bool = True,
               store: Optional[CheckpointStore] = None,
               limit: int = 5_000_000,
               horizon: Optional[int] = None) -> SampledResult:
    """Sampled detailed simulation of ``program`` under ``config``.

    When a :class:`~repro.checkpoint.store.CheckpointStore` is supplied
    the checkpoint train is persisted content-addressed, so grid cells
    sharing a benchmark (any config) fast-forward once -- and, with
    ``horizon``, once across *scales*: a longer stored train serves any
    shorter horizon as a prefix, a shorter one is extended in place
    (see :func:`ensure_train`).

    ``horizon`` restricts sampling to the first ``horizon`` retired
    instructions instead of the whole run.  Accounting is clamped to
    ``min(horizon, total)``: instructions the train happens to cover
    past the requested horizon (checkpoint-boundary overshoot, a longer
    reused train, the post-halt tail) never widen the sampled span or
    the eligibility window.
    """
    window = warmup_insts + interval_insts
    every = checkpoint_every if checkpoint_every else max(window, 500)
    train = ensure_train(program, every, warm, horizon=horizon,
                         store=store, limit=limit)
    checkpoints = train["checkpoints"]
    total = train["total_instructions"]
    span = total if horizon is None else min(horizon, total)
    selected = select_checkpoints(checkpoints, span, intervals, window)
    measured = []
    for ckpt in selected:
        result = simulate_interval(program, config, ckpt, warmup_insts,
                                   interval_insts)
        if result is not None:
            measured.append(result)
    if not measured:
        raise SamplingError(
            f"no measurable interval for {program.name!r}: program "
            f"halts inside every warm-up window (sampled span "
            f"{span} instructions, warm-up {warmup_insts})")

    ipcs = [iv["ipc"] for iv in measured]
    count = len(ipcs)
    mean = sum(ipcs) / count
    if count > 1:
        variance = sum((x - mean) ** 2 for x in ipcs) / (count - 1)
        std = math.sqrt(variance)
        half = t95(count - 1) * std / math.sqrt(count) \
            + SYSTEMATIC_ERROR * mean
    else:
        std = 0.0
        half = SINGLE_INTERVAL_ERROR * mean

    counters: Dict[str, float] = {}
    for iv in measured:
        for key_, value in iv["counters"].items():
            counters[key_] = counters.get(key_, 0) + value
    cycles = sum(iv["cycles"] for iv in measured)
    instructions = sum(iv["retired"] for iv in measured)
    counters["cycles"] = cycles
    counters["retired_instructions"] = instructions
    detailed = sum(iv["detailed_retired"] for iv in measured)
    return SampledResult(
        program_name=program.name, config_name=config.name,
        ipc_mean=mean, ipc_std=std, ipc_ci95=half, intervals=measured,
        counters=counters, cycles=cycles, instructions=instructions,
        total_instructions=span, detailed_instructions=detailed,
        warmup_insts=warmup_insts, interval_insts=interval_insts,
        checkpoint_every=every, warm=warm)
