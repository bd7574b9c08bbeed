"""Event-based dynamic-energy model for the memory subsystems.

The paper's power argument is structural: every LSQ access performs a
fully-associative, age-prioritized CAM search whose dynamic energy grows
linearly with queue occupancy, while the SFC and MDT perform small indexed
RAM accesses of constant cost.  This model charges per-event energies to
the counters each subsystem already maintains and reports the totals, so
the benches can show the energy gap and how it scales with LSQ size.

Energy unit: the cost of reading one 8-byte RAM entry (1.0).  Relative
costs follow the common CACTI-style observation that a CAM match line plus
priority encode costs several times an equivalent RAM read; the default
ratio is configurable so the conclusion can be stress-tested.
"""

from __future__ import annotations

from typing import Dict, Mapping


class EnergyModel:
    """Charges per-event energy costs against a simulation's counters:
    any name -> count mapping (a :class:`~repro.stats.counters.Counters`
    registry or a RunRecord's ``counters`` dict), where an event that
    never fired may be absent and reads as zero."""

    def __init__(self, ram_read_energy: float = 1.0,
                 ram_write_energy: float = 1.0,
                 cam_entry_search_energy: float = 2.0):
        self.ram_read_energy = ram_read_energy
        self.ram_write_energy = ram_write_energy
        #: Energy per queue entry examined during one associative search
        #: (tag compare + match line + its share of priority encoding).
        self.cam_entry_search_energy = cam_entry_search_energy

    def lsq_energy(self, counters: Mapping[str, float]
                   ) -> Dict[str, float]:
        """Energy of LSQ forwarding + disambiguation for one run."""
        search = (counters.get("lsq_sq_entries_searched", 0.0) +
                  counters.get("lsq_lq_entries_searched", 0.0)) \
            * self.cam_entry_search_energy
        writes = (counters.get("lsq_load_searches", 0.0) +
                  counters.get("lsq_store_searches", 0.0)) \
            * self.ram_write_energy
        total = search + writes
        return {"search_energy": search, "write_energy": writes,
                "total_energy": total}

    def sfc_mdt_energy(self, counters: Mapping[str, float]
                       ) -> Dict[str, float]:
        """Energy of SFC + MDT forwarding + disambiguation for one run."""
        # Each SFC/MDT access touches one set: ``assoc`` tag compares plus
        # one data read/write; we charge one RAM read per way probed plus
        # one RAM write per update.  Way counts are folded into the event
        # counters by using 2 probes per access (the paper's 2-way
        # configurations).
        probes_per_access = 2.0
        reads = (counters.get("sfc_load_lookups", 0.0) +
                 counters.get("mdt_load_accesses", 0.0) +
                 counters.get("mdt_store_accesses", 0.0)) \
            * probes_per_access * self.ram_read_energy
        writes = (counters.get("sfc_store_writes", 0.0) +
                  counters.get("mdt_load_accesses", 0.0) +
                  counters.get("mdt_store_accesses", 0.0)) \
            * self.ram_write_energy
        total = reads + writes
        return {"search_energy": reads, "write_energy": writes,
                "total_energy": total}

    def compare(self, lsq_counters: Mapping[str, float],
                sfc_mdt_counters: Mapping[str, float]
                ) -> Dict[str, float]:
        """Energy ratio LSQ / (SFC+MDT) for paired runs of one workload."""
        lsq = self.lsq_energy(lsq_counters)["total_energy"]
        sfc_mdt = self.sfc_mdt_energy(sfc_mdt_counters)["total_energy"]
        ratio = lsq / sfc_mdt if sfc_mdt else float("inf")
        return {"lsq_energy": lsq, "sfc_mdt_energy": sfc_mdt,
                "ratio": ratio}
