"""Property-based tests (hypothesis) on the core invariants.

The headline property is the paper's own correctness criterion: for any
program, the out-of-order pipeline retires exactly the architectural
trace, under every memory-subsystem configuration.  The pipeline enforces
this internally (lockstep-oracle validation at retirement), so running a
random hazard-rich program to completion *is* the property check.

Reference-model properties check the SFC and MDT against simple oracles:
the SFC against a byte-map of in-flight stores, the MDT against an exact
ordering checker over the access history.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Core
from repro.core import (
    MDTConfig,
    MemoryDisambiguationTable,
    SFC_CORRUPT,
    SFC_HIT,
    SFC_MISS,
    SFC_PARTIAL,
    SFCConfig,
    StoreForwardingCache,
)
from repro.harness.configs import (
    NOT_ENF,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.memory import MainMemory
from repro.workloads import fuzz_program, random_program

_SLOW = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: Nightly-only profile: same properties, an order of magnitude more
#: examples (the tier-1 run keeps the 25-example profile above).
_DEEP = settings(max_examples=250, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestPipelineEquivalence:
    """Any random program retires the architectural trace everywhere."""

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_baseline_lsq_matches_iss(self, seed):
        prog = random_program(seed)
        Core(prog, baseline_lsq_config(), max_instructions=500_000).run()

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_baseline_sfc_mdt_matches_iss(self, seed):
        prog = random_program(seed)
        Core(prog, baseline_sfc_mdt_config(), max_instructions=500_000).run()

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_not_enf_matches_iss(self, seed):
        prog = random_program(seed)
        Core(prog, baseline_sfc_mdt_config(mode=NOT_ENF, name="n"),
             max_instructions=500_000).run()

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_aggressive_sfc_mdt_matches_iss(self, seed):
        prog = random_program(seed)
        Core(prog, aggressive_sfc_mdt_config(), max_instructions=500_000).run()

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_tiny_structures_still_correct(self, seed):
        """Degenerate 1-entry SFC/MDT: replays everywhere, still exact."""
        prog = random_program(seed, max_blocks=6)
        config = baseline_sfc_mdt_config(sfc_sets=1, mdt_sets=1,
                                         name="tiny")
        config.sfc.assoc = 1
        config.mdt.assoc = 1
        Core(prog, config, max_instructions=500_000).run()

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_same_ipc_across_reruns(self, seed):
        prog = random_program(seed, max_blocks=6)
        config = baseline_sfc_mdt_config()
        first = Core(prog, config, max_instructions=500_000).run()
        second = Core(prog, config, max_instructions=500_000).run()
        assert first.cycles == second.cycles


@pytest.mark.slow
class TestPipelineEquivalenceDeep:
    """The headline property at nightly depth (250 examples each) and
    over the fuzz generator's wider program space (unaligned accesses,
    byte-granularity partial forwards, overlapping stores)."""

    @_DEEP
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_baseline_lsq_matches_iss(self, seed):
        prog = fuzz_program(seed)
        Core(prog, baseline_lsq_config(), max_instructions=500_000).run()

    @_DEEP
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_baseline_sfc_mdt_matches_iss(self, seed):
        prog = fuzz_program(seed)
        Core(prog, baseline_sfc_mdt_config(), max_instructions=500_000).run()

    @_DEEP
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_aggressive_sfc_mdt_matches_iss(self, seed):
        prog = fuzz_program(seed)
        Core(prog, aggressive_sfc_mdt_config(), max_instructions=500_000).run()


# -- SFC reference model -------------------------------------------------------

_sfc_ops = st.lists(
    st.tuples(
        st.sampled_from(["store", "load", "retire_latest", "flush"]),
        st.integers(min_value=0, max_value=15),      # word slot
        st.integers(min_value=0, max_value=7),       # offset
        st.sampled_from([1, 2, 4, 8]),               # size
        st.integers(min_value=0, max_value=2 ** 64 - 1),
    ),
    min_size=1, max_size=60)


class _SfcOracle:
    """Byte-level reference for SFC forwarding semantics."""

    def __init__(self):
        self.bytes = {}        # addr -> (value, writer_seq)
        self.corrupt = set()
        self.writers = {}      # word -> latest writer seq

    def store(self, addr, size, value, seq):
        payload = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        for i in range(size):
            self.bytes[addr + i] = payload[i]
            self.corrupt.discard(addr + i)
        for word in {(addr + i) >> 3 for i in range(size)}:
            self.writers[word] = max(seq, self.writers.get(word, -1))

    def flush(self):
        self.corrupt.update(self.bytes)

    def retire(self, word, seq):
        if self.writers.get(word) == seq:
            del self.writers[word]
            for addr in list(self.bytes):
                if addr >> 3 == word:
                    del self.bytes[addr]
                    self.corrupt.discard(addr)

    def load(self, addr, size):
        needed = range(addr, addr + size)
        if any(a in self.corrupt for a in needed):
            return SFC_CORRUPT, None
        present = [a for a in needed if a in self.bytes]
        if len(present) == size:
            return SFC_HIT, int.from_bytes(
                bytes(self.bytes[a] for a in needed), "little")
        if present:
            return SFC_PARTIAL, None
        return SFC_MISS, None


class TestSfcAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(ops=_sfc_ops)
    # A load spanning two words: a partial match in the first word must
    # not hide a corrupt byte in the second.
    @example(ops=[("store", 0, 6, 4, 0), ("flush", 0, 0, 1, 0),
                  ("store", 0, 6, 2, 0), ("load", 0, 1, 8, 0)])
    def test_matches_reference_model(self, ops):
        # Large enough that no set conflicts occur: pure semantics test.
        sfc = StoreForwardingCache(SFCConfig(num_sets=64, assoc=4))
        oracle = _SfcOracle()
        base = 0x1000
        seq = 0
        live = {}
        for kind, slot, offset, size, value in ops:
            addr = base + slot * 8 + offset
            if kind == "store":
                seq += 1
                assert sfc.probe_store(addr, size, watermark=0)
                sfc.store_write(addr, size, value, seq)
                oracle.store(addr, size, value, seq)
                for word in {(addr + i) >> 3 for i in range(size)}:
                    live[word] = max(seq, live.get(word, -1))
            elif kind == "load":
                got = sfc.load_read(addr, size)
                expected = oracle.load(addr, size)
                assert got == expected
            elif kind == "retire_latest":
                word = (base + slot * 8) >> 3
                if word in live:
                    retiring = live.pop(word)
                    sfc.on_store_retire(word << 3, 8, retiring)
                    oracle.retire(word, retiring)
            else:
                sfc.on_partial_flush()
                oracle.flush()


# -- MDT reference model ---------------------------------------------------------

_mdt_ops = st.lists(
    st.tuples(st.booleans(),                       # is_store
              st.integers(min_value=0, max_value=7),   # granule
              st.integers(min_value=0, max_value=200)),  # seq hint
    min_size=1, max_size=50)


class TestMdtAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(ops=_mdt_ops)
    def test_detects_exactly_the_timestamp_violations(self, ops):
        """Without conflicts/retirement, the MDT must flag an access iff
        basic timestamp ordering does (against the max seq seen)."""
        mdt = MemoryDisambiguationTable(
            MDTConfig(num_sets=64, assoc=4, granularity=8))
        max_load = {}
        max_store = {}
        for is_store, granule, seq in ops:
            addr = 0x2000 + granule * 8
            if is_store:
                expect = []
                if max_load.get(granule, -1) > seq:
                    expect.append("true")
                if max_store.get(granule, -1) > seq:
                    expect.append("output")
                result = mdt.access_store(addr, 8, seq, pc=0x10,
                                          watermark=0)
                assert sorted(v.kind for v in result.violations) == \
                    sorted(expect)
                max_store[granule] = max(max_store.get(granule, -1), seq)
            else:
                expect_anti = max_store.get(granule, -1) > seq
                result = mdt.access_load(addr, 8, seq, pc=0x14,
                                         watermark=0)
                got_anti = any(v.kind == "anti" for v in result.violations)
                assert got_anti == expect_anti
                if not expect_anti:
                    max_load[granule] = max(max_load.get(granule, -1), seq)


# -- memory roundtrip property ------------------------------------------------------

class TestMemoryProperties:
    @settings(max_examples=100, deadline=None)
    @given(addr=st.integers(min_value=0, max_value=1 << 20),
           size=st.sampled_from([1, 2, 4, 8]),
           value=st.integers(min_value=0))
    def test_write_read_roundtrip(self, addr, size, value):
        mem = MainMemory()
        mem.write_int(addr, size, value)
        assert mem.read_int(addr, size) == value & ((1 << (8 * size)) - 1)

    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=64),
           addr=st.integers(min_value=0, max_value=1 << 16))
    def test_bytes_roundtrip_across_pages(self, payload, addr):
        mem = MainMemory()
        mem.write_bytes(addr + 4090, payload)   # straddle a page boundary
        assert mem.read_bytes(addr + 4090, len(payload)) == payload
