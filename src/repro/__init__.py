"""repro -- Address-Indexed Memory Disambiguation and Store-to-Load
Forwarding (MICRO 2005), reproduced.

Public API tour:

* :mod:`repro.isa` -- the 64-bit RISC ISA, assembler, and in-order ISS;
* :mod:`repro.core` -- the SFC, MDT, store FIFO, producer-set predictor,
  and the idealized LSQ baseline;
* :mod:`repro.pipeline` -- the cycle-level out-of-order superscalar;
* :mod:`repro.workloads` -- SPEC-2000-styled synthetic kernels;
* :mod:`repro.harness` -- experiment presets and figure generators;
* :mod:`repro.obs` -- metric registry and versioned run records;
* :mod:`repro.api` -- the stable programmatic surface
  (``simulate``/``compare``/``run_figure`` returning RunRecords).

Quick start::

    from repro import Assembler, Core
    from repro.harness import baseline_sfc_mdt_config

    a = Assembler()
    a.li("r1", 0x1000)
    a.li("r2", 42)
    a.sd("r2", "r1")
    a.ld("r3", "r1")
    a.halt()
    result = Core(a.build(), baseline_sfc_mdt_config()).run()
    print(result.ipc)
"""

from .core import (
    LSQConfig,
    LSQSubsystem,
    MDTConfig,
    MemoryDisambiguationTable,
    PredictorConfig,
    ProducerSetPredictor,
    SFCConfig,
    SfcMdtSubsystem,
    StoreFifo,
    StoreForwardingCache,
)
from .isa import Assembler, Instruction, Interpreter, Program, run_program
from .pipeline import Core, ProcessorConfig, SimResult, SimulationError
from . import api  # noqa: E402  (needs core/pipeline imported first)
from .obs import METRICS, RunRecord

__version__ = "1.0.0"

__all__ = [
    "Assembler",
    "Core",
    "Instruction",
    "Interpreter",
    "LSQConfig",
    "LSQSubsystem",
    "MDTConfig",
    "METRICS",
    "MemoryDisambiguationTable",
    "PredictorConfig",
    "ProcessorConfig",
    "ProducerSetPredictor",
    "Program",
    "RunRecord",
    "SFCConfig",
    "SfcMdtSubsystem",
    "SimResult",
    "SimulationError",
    "StoreFifo",
    "StoreForwardingCache",
    "api",
    "run_program",
    "__version__",
]
