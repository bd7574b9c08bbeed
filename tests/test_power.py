"""Tests for the event-based dynamic-energy model."""

import pytest

from repro import Core
from repro.harness.configs import baseline_lsq_config
from repro.power import EnergyModel
from repro.stats import Counters
from tests.conftest import assemble


class TestEnergyArithmetic:
    def test_lsq_energy_scales_with_entries_searched(self):
        model = EnergyModel(cam_entry_search_energy=2.0)
        counters = Counters()
        counters.set("lsq_sq_entries_searched", 100)
        counters.set("lsq_load_searches", 10)
        energy = model.lsq_energy(counters)
        assert energy["search_energy"] == 200.0
        assert energy["write_energy"] == 10.0
        assert energy["total_energy"] == 210.0

    def test_sfc_mdt_energy_is_per_access(self):
        model = EnergyModel()
        counters = Counters()
        counters.set("sfc_load_lookups", 10)
        counters.set("mdt_load_accesses", 10)
        counters.set("mdt_store_accesses", 5)
        counters.set("sfc_store_writes", 5)
        energy = model.sfc_mdt_energy(counters)
        assert energy["search_energy"] == 50.0   # 25 accesses x 2 probes
        assert energy["write_energy"] == 20.0
        assert energy["total_energy"] == 70.0

    def test_compare_ratio(self):
        model = EnergyModel()
        lsq = Counters()
        lsq.set("lsq_sq_entries_searched", 1000)
        sfc = Counters()
        sfc.set("sfc_load_lookups", 100)
        comparison = model.compare(lsq, sfc)
        assert comparison["ratio"] == pytest.approx(
            2000.0 / 200.0)

    def test_zero_sfc_energy_gives_inf(self):
        model = EnergyModel()
        assert model.compare(Counters(), Counters())["ratio"] == \
            float("inf")


class TestEndToEndEnergy:
    def test_lsq_burns_more_than_sfc_mdt(self):
        """The paper's structural claim: CAM-search energy grows with
        queue occupancy while indexed accesses stay constant, so with a
        deep window the LSQ burns more for the same workload."""
        from repro.harness.configs import (aggressive_lsq_config,
                                           aggressive_sfc_mdt_config)

        def build(a):
            # Long-latency producers keep many stores in flight, so each
            # LSQ search scans a well-populated store queue.
            a.li("r1", 0x1000)
            a.li("r2", 0)
            a.li("r3", 150)
            a.label("loop")
            a.andi("r4", "r2", 0x3F8)
            a.add("r4", "r4", "r1")
            a.div("r5", "r2", "r3")
            a.sd("r5", "r4", 0)
            a.ld("r6", "r4", 0)
            a.addi("r2", "r2", 1)
            a.bne("r2", "r3", "loop")
            a.halt()
        prog = assemble(build)
        lsq = Core(prog, aggressive_lsq_config()).run()
        sfc = Core(prog, aggressive_sfc_mdt_config()).run()
        model = EnergyModel()
        comparison = model.compare(lsq.counters, sfc.counters)
        assert comparison["ratio"] > 1.0

    def test_bigger_lsq_costs_more_energy(self):
        def build(a):
            # Keep many stores in flight so searches scan real entries.
            a.li("r1", 0x1000)
            a.li("r2", 0)
            a.li("r3", 100)
            a.label("loop")
            a.andi("r4", "r2", 0x1F8)
            a.add("r4", "r4", "r1")
            a.div("r5", "r2", "r3")
            a.sd("r5", "r4", 0)
            a.ld("r6", "r4", 0)
            a.addi("r2", "r2", 1)
            a.bne("r2", "r3", "loop")
            a.halt()
        prog = assemble(build)
        small = Core(prog, baseline_lsq_config(8, 8)).run()
        large = Core(prog, baseline_lsq_config(48, 32)).run()
        model = EnergyModel()
        assert model.lsq_energy(large.counters)["total_energy"] >= \
            model.lsq_energy(small.counters)["total_energy"]
