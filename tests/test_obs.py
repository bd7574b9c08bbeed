"""Tests for the observability layer: metric registry + run records."""

import json
from pathlib import Path

import pytest

from repro import Core
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import ExperimentRunner
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    METRICS,
    MetricRegistry,
    UnknownMetricError,
)
from repro.obs.runrecord import (
    SCHEMA_VERSION,
    SCHEMA_VERSION_MULTICORE,
    RunRecord,
    SchemaError,
    records_from_manifest,
    validate_record,
)
from repro.perf import manifest_digest
from repro.verify import run_litmus_test
from tests.conftest import assemble, counted_loop_program

GOLDEN = Path(__file__).parent / "data" / "runrecord.golden.json"
GOLDEN_V3 = Path(__file__).parent / "data" / "runrecord_v3.golden.json"


def golden_record() -> RunRecord:
    """A fully deterministic record (fixed workload, no wall-clock)."""
    result = Core(assemble(counted_loop_program),
                  baseline_sfc_mdt_config()).run()
    return RunRecord.from_result(result, benchmark="counted-loop")


class TestRegistry:
    def test_declare_and_get(self):
        reg = MetricRegistry()
        metric = reg.declare("widget_count", COUNTER, "widgets",
                             "number of widgets", unit="widgets")
        assert reg.get("widget_count") is metric
        assert metric.kind == COUNTER
        assert "widget_count" in reg
        assert len(reg) == 1

    def test_redeclare_identical_is_idempotent(self):
        reg = MetricRegistry()
        first = reg.declare("x", COUNTER, "s", "d")
        second = reg.declare("x", COUNTER, "s", "d")
        assert first is second
        assert len(reg) == 1

    def test_redeclare_conflicting_raises(self):
        reg = MetricRegistry()
        reg.declare("x", COUNTER, "s", "d")
        with pytest.raises(ValueError):
            reg.declare("x", GAUGE, "s", "d")

    def test_unknown_metric_raises(self):
        reg = MetricRegistry()
        with pytest.raises(UnknownMetricError):
            reg.get("nonexistent")
        # It is a KeyError subclass, so dict-style handling works too.
        assert issubclass(UnknownMetricError, KeyError)

    def test_by_subsystem(self):
        assert {m.name for m in METRICS.by_subsystem("sfc")} >= {
            "sfc_forwards", "sfc_load_lookups"}

    def test_global_registry_covers_core_subsystems(self):
        subsystems = {metric.subsystem for metric in METRICS}
        assert subsystems >= {"pipeline", "sfc", "mdt", "sfc_mdt", "lsq",
                              "predictor", "cache"}


class TestDeclaredCoverage:
    """Every counter a real simulation emits is a declared metric."""

    @pytest.mark.parametrize("config_fn", [baseline_sfc_mdt_config,
                                           baseline_lsq_config])
    def test_all_emitted_counters_declared(self, config_fn):
        result = Core(assemble(counted_loop_program),
                      config_fn()).run()
        undeclared = [name for name in result.counters.as_dict()
                      if name not in METRICS]
        assert not undeclared, f"undeclared counters: {undeclared}"


class TestRunRecord:
    def test_roundtrip(self):
        record = golden_record()
        payload = record.to_dict()
        validate_record(payload)
        again = RunRecord.from_dict(payload)
        assert again.to_dict() == payload
        assert again.cycles == record.cycles
        assert again.metrics == record.counters

    def test_json_roundtrip(self):
        record = golden_record()
        payload = json.loads(record.to_json())
        assert RunRecord.from_dict(payload).to_json() == record.to_json()

    def test_missing_field_rejected(self):
        payload = golden_record().to_dict()
        del payload["cycles"]
        with pytest.raises(SchemaError):
            validate_record(payload)

    def test_wrong_type_rejected(self):
        payload = golden_record().to_dict()
        payload["counters"] = [1, 2, 3]
        with pytest.raises(SchemaError):
            validate_record(payload)

    def test_foreign_schema_version_rejected(self):
        payload = golden_record().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError):
            RunRecord.from_dict(payload)

    def test_metric_accessors(self):
        record = golden_record()
        assert record.metric("retired_loads") > 0
        assert record.metric("no_such_metric", default=-1.0) == -1.0
        assert 0.0 <= record.rate("sfc_forwards", "retired_loads") <= 1.0
        assert record.rate("sfc_forwards", "absent_denominator") == 0.0

    def test_golden_file_matches(self):
        """The serialized schema is pinned byte-for-byte.

        If this fails because you changed the record shape: bump
        SCHEMA_VERSION deliberately and regenerate the golden file with
        ``python scripts/regen_golden.py``.
        """
        assert GOLDEN.exists(), "golden file missing; run scripts/regen_golden.py"
        expected = GOLDEN.read_text()
        assert golden_record().to_json(indent=2) + "\n" == expected

    def test_golden_schema_version_matches_code(self):
        """A SCHEMA_VERSION bump forces regenerating the golden file."""
        payload = json.loads(GOLDEN.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION


def multicore_record() -> RunRecord:
    """A deterministic multicore (schema v3) record."""
    litmus = run_litmus_test("mp")
    return RunRecord.from_result(litmus.system_result,
                                 benchmark="litmus-mp")


class TestMulticoreRecord:
    def test_single_core_records_stay_v2(self):
        payload = golden_record().to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "cores" not in payload

    def test_multicore_records_are_v3(self):
        payload = multicore_record().to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION_MULTICORE
        assert payload["cores"] == 2
        assert any(name.startswith("core1_") for name in payload["counters"])

    def test_v3_roundtrip(self):
        record = multicore_record()
        payload = record.to_dict()
        validate_record(payload)
        again = RunRecord.from_dict(payload)
        assert again.cores == 2
        assert again.to_dict() == payload

    def test_v2_payload_with_cores_key_rejected(self):
        payload = golden_record().to_dict()
        payload["cores"] = 1
        with pytest.raises(SchemaError):
            validate_record(payload)

    def test_v3_payload_without_cores_rejected(self):
        payload = multicore_record().to_dict()
        del payload["cores"]
        with pytest.raises(SchemaError):
            validate_record(payload)

    def test_v3_payload_with_bad_cores_rejected(self):
        payload = multicore_record().to_dict()
        for bad in (0, -1, True, "2"):
            payload["cores"] = bad
            with pytest.raises(SchemaError):
                validate_record(payload)

    def test_golden_v3_file_matches(self):
        """The multicore schema is pinned byte-for-byte, like v2."""
        assert GOLDEN_V3.exists(), \
            "golden file missing; run scripts/regen_golden.py"
        expected = GOLDEN_V3.read_text()
        assert multicore_record().to_json(indent=2) + "\n" == expected


class TestCorePrefixedMetrics:
    def test_registry_resolves_core_prefixed_names(self):
        assert "core0_retired_loads" in METRICS
        assert "core17_cycles" in METRICS
        assert METRICS.get("core1_retired_loads") is \
            METRICS.get("retired_loads")
        assert "core0_not_a_metric" not in METRICS

    def test_declare_rejects_reserved_namespace(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError, match="reserved"):
            reg.declare("core0_widgets", COUNTER, "s", "d")

    def test_system_counters_all_declared(self):
        record = multicore_record()
        undeclared = [name for name in record.counters
                      if name not in METRICS]
        assert not undeclared, f"undeclared counters: {undeclared}"


class TestManifestRecords:
    def make_runner(self):
        return ExperimentRunner(scale=1200, jobs=1, use_cache=False)

    def test_manifest_entries_are_valid_records(self):
        runner = self.make_runner()
        runner.run("gap", baseline_sfc_mdt_config())
        last = runner.run("gap", baseline_lsq_config())
        records = records_from_manifest(runner.manifest)
        names = [r.config_name for r in records]
        assert names[0].startswith("baseline-sfc-mdt")
        assert names[1].startswith("baseline-lsq")
        assert last.config_name == names[1]

    def test_digest_ignores_additive_fields(self):
        """schema_version/kind/engine must not perturb the bit-exactness
        gate: the digest reads only the legacy manifest fields."""
        runner = self.make_runner()
        runner.run("gap", baseline_sfc_mdt_config())
        full = manifest_digest(runner.manifest)
        stripped = []
        for entry in runner.manifest:
            legacy = dict(entry)
            for added in ("schema_version", "kind", "engine",
                          "status", "attempts", "error"):
                legacy.pop(added)
            stripped.append(legacy)
        assert manifest_digest(stripped) == full
