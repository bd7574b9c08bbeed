"""Outside-in tracing: wall-clock spans around calls into each layer.

:class:`Tracer` patches public functions and methods of the simulator's
layers (``workloads``, ``isa``, ``checkpoint``, ``pipeline``,
``harness``) with thin wrappers that record one span per call -- name,
start, end, and the enclosing span -- into an in-memory list.  Nothing
under ``src/`` changes, and :meth:`Tracer.uninstall` restores every
original.  A span's *self time* is its duration minus the time its
child spans cover, so the self times of one pass add up to the pass's
wall time exactly; the root span's own self time is the part no layer
span accounts for.

Pool workers run in other processes and are not traced; the parent sees
their work as time spent inside ``harness.run_suite`` (waiting), and the
workload reports the workers' busy time from the manifest.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import repro.isa.predecode as predecode
from repro.checkpoint import sampling
from repro.checkpoint.arch import ArchCheckpoint
from repro.checkpoint.store import CheckpointStore
from repro.harness import experiment, figures
from repro.harness.experiment import ExperimentRunner, ResultCache
from repro.isa.interp import Interpreter
from repro.pipeline.core import Core
from repro.pipeline.system import System
from repro.workloads import suites

#: Share of a traced pass's wall time that may fall outside every layer
#: span (the root span's own self time).
MAX_UNATTRIBUTED = 0.10

#: Records sampled per golden trace to estimate its in-memory size.
_SIZE_SAMPLES = 64


def _deep_size(record) -> int:
    """Bytes held by one retire record: the object, its list slot, and
    every field value the interpreter does not share."""
    size = sys.getsizeof(record) + 8
    for slot in type(record).__slots__:
        value = getattr(record, slot)
        if isinstance(value, int) and not isinstance(value, bool) \
                and not -5 <= value <= 256:
            size += sys.getsizeof(value)
    return size


def trace_bytes(trace: list) -> int:
    """Estimated in-memory size of a golden trace, from an evenly spaced
    sample of its records."""
    if not trace:
        return 0
    step = max(1, len(trace) // _SIZE_SAMPLES)
    sample = trace[::step]
    return len(trace) * sum(_deep_size(r) for r in sample) // len(sample)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        #: ``[name, start, end, parent index]`` per span, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Counts recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args)`` records
        counts once the call returns."""
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def patch(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            patched = classmethod(self.timed(name, original.__func__, after))
        else:
            patched = self.timed(name, original, after)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ layers

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        counts = self.counts

        def oracle_done(trace, _args):
            counts["isa.oracle_records"] += len(trace)
            counts["isa.oracle_bytes"] += trace_bytes(trace)

        def ff_done(executed, _args):
            counts["isa.ff_insts"] += executed

        def train_stored(_result, args):
            store, key = args[0], args[1]
            path = store.path(key)
            counts["checkpoint.train_bytes"] += path.stat().st_size

        self.patch(suites, "build", "workloads.build")
        self.patch(predecode, "predecode", "isa.predecode")
        self.patch(experiment, "run_program", "isa.oracle", oracle_done)
        self.patch(Interpreter, "fast_forward", "isa.fast_forward", ff_done)
        self.patch(ArchCheckpoint, "capture", "checkpoint.capture")
        self.patch(sampling, "ensure_train", "checkpoint.ensure_train")
        self.patch(sampling, "simulate_interval", "checkpoint.window")
        self.patch(CheckpointStore, "store", "checkpoint.store",
                   train_stored)
        self.patch(CheckpointStore, "load", "checkpoint.load")
        self.patch(Core, "run", "pipeline.detailed")
        self.patch(Core, "run_until", "pipeline.detailed")
        self.patch(System, "run", "pipeline.system")
        self.patch(ResultCache, "store", "harness.cache_store")
        self.patch(ResultCache, "load", "harness.cache_load")
        for method in ("run_suite", "run_system", "run_sampled"):
            self.patch(ExperimentRunner, method, "harness.engine")
        for figure in ("figure5", "figure6"):
            self.patch(figures, figure, "harness.engine")

    def hook_runner(self, runner: ExperimentRunner) -> None:
        """Count pool (re)builds and the pickled size of submitted cells
        (only for runners created while the tracer is installed)."""
        if not self._patches:
            return
        make_pool = runner._pool_factory
        built = [0]

        def factory(workers):
            built[0] += 1
            if built[0] > 1:
                self.counts["harness.pool_rebuilds"] += 1
            return _TracedPool(self, make_pool(workers))

        runner._pool_factory = factory

    # ------------------------------------------------------------ output

    def self_times(self, first: int = 0,
                   last: Optional[int] = None) -> Dict[str, float]:
        """Self time per span name over spans ``first`` to ``last``
        (exclusive; default: every later span)."""
        spans = self.spans
        last = len(spans) if last is None else last
        covered = defaultdict(float)
        for name, start, end, parent in spans[first:last]:
            if parent >= first:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index in range(first, last):
            name, start, end, _parent = spans[index]
            totals[name] += end - start - covered[index]
        return totals

    def reused_trains(self, first: int = 0) -> List[bool]:
        """Per ``ensure_train`` call: True when it ran no fast-forward,
        i.e. a stored train was served as it was."""
        spans = self.spans
        trains = {i: True for i in range(first, len(spans))
                  if spans[i][0] == "checkpoint.ensure_train"}
        for index in range(first, len(spans)):
            if spans[index][0] != "isa.fast_forward":
                continue
            parent = spans[index][3]
            while parent >= first:
                if parent in trains:
                    trains[parent] = False
                    break
                parent = spans[parent][3]
        return list(trains.values())

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start,
                     "end": end, "parent": parent}) + "\n")


class _TracedPool:
    """Process-pool proxy that measures what each submission pickles.

    The pickled size and time are measured once per distinct golden
    trace (by pickling it again here) and charged to every submission
    that ships it; the measurement is a span of its own.
    """

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner
        self._costs: Dict[int, tuple] = {}

    def submit(self, fn, *args):
        tracer = self._tracer
        key = id(args[1])  # args: program, golden trace, config
        cost = self._costs.get(key)
        if cost is None:
            index = tracer.open("trace.pickle_probe")
            started = time.perf_counter()
            size = len(pickle.dumps((fn, args)))
            cost = self._costs[key] = (size, time.perf_counter() - started)
            tracer.close(index)
        tracer.counts["harness.pickle_bytes"] += cost[0]
        tracer.counts["harness.pickle_s"] += cost[1]
        return self._inner.submit(fn, *args)

    def __getattr__(self, name):
        return getattr(self._inner, name)
