"""Cycle-level out-of-order superscalar pipeline."""

from .config import (MEMORY_MODES, MEMORY_PRIVATE, MEMORY_SHARED,
                     SUBSYSTEM_LOAD_REPLAY, SUBSYSTEM_LSQ,
                     SUBSYSTEM_SFC_MDT, CoreConfig, ProcessorConfig,
                     SystemConfig)
from .core import Core, SimResult, SimulationError
from .dyninst import DynInst
from .pipetrace import InstructionTrace, PipeTracer, trace_run
from .rename import RenameError, RenameTable
from .scheduler import Scheduler
from .system import System, SystemResult

__all__ = [
    "Core",
    "CoreConfig",
    "MEMORY_MODES",
    "MEMORY_PRIVATE",
    "MEMORY_SHARED",
    "DynInst",
    "InstructionTrace",
    "PipeTracer",
    "trace_run",
    "ProcessorConfig",
    "RenameError",
    "RenameTable",
    "Scheduler",
    "SimResult",
    "SimulationError",
    "System",
    "SystemConfig",
    "SystemResult",
    "SUBSYSTEM_LOAD_REPLAY",
    "SUBSYSTEM_LSQ",
    "SUBSYSTEM_SFC_MDT",
]
