"""Tests for the pluggable memory-subsystem registry."""

import pytest

from repro import Core
from repro.core import registry
from repro.core.load_replay import LoadReplaySubsystem
from repro.core.registry import register_subsystem
from repro.core.subsystem import LSQSubsystem, SfcMdtSubsystem
from repro.pipeline.config import (
    SUBSYSTEM_LOAD_REPLAY,
    SUBSYSTEM_LSQ,
    SUBSYSTEM_SFC_MDT,
    ProcessorConfig,
)
from tests.conftest import assemble, counted_loop_program


class TestBuiltinRegistrations:
    def test_available_lists_builtins(self):
        assert registry.available() == ["load_replay", "lsq", "sfc_mdt"]

    def test_builtin_names_match_constants(self):
        for name in (SUBSYSTEM_LSQ, SUBSYSTEM_SFC_MDT,
                     SUBSYSTEM_LOAD_REPLAY):
            assert registry.is_registered(name)

    def test_processor_builds_each_builtin(self):
        program = assemble(counted_loop_program)
        expected = {"lsq": LSQSubsystem, "sfc_mdt": SfcMdtSubsystem,
                    "load_replay": LoadReplaySubsystem}
        for name, cls in expected.items():
            processor = Core(program, ProcessorConfig(subsystem=name))
            assert type(processor.subsystem) is cls

    def test_subsystem_name_attribute_matches_registration(self):
        program = assemble(counted_loop_program)
        for name in registry.available():
            processor = Core(program, ProcessorConfig(subsystem=name))
            assert processor.subsystem.name == name


class TestValidation:
    def test_unknown_subsystem_raises_with_choices(self):
        with pytest.raises(ValueError) as err:
            ProcessorConfig(subsystem="warp_drive")
        message = str(err.value)
        assert "warp_drive" in message
        # The error enumerates the registered choices, and stays in sync
        # with the registry rather than a hard-coded tuple.
        for name in registry.available():
            assert name in message

    def test_validate_returns_known_name(self):
        assert registry.validate("lsq") == "lsq"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_subsystem("lsq")(LSQSubsystem.from_config)

    def test_reregistering_same_object_is_idempotent(self):
        register_subsystem("lsq")(LSQSubsystem)  # module re-import case

    def test_unregister_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="not registered"):
            registry.unregister("warp_drive")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            register_subsystem("")


class TestToySubsystem:
    """A third-party subsystem plugs in end-to-end through Core."""

    @pytest.fixture
    def toy_name(self):
        name = "toy_magic"
        yield name
        if registry.is_registered(name):
            registry.unregister(name)

    def test_toy_subsystem_runs_end_to_end(self, toy_name):
        @register_subsystem(toy_name)
        class ToySubsystem(LSQSubsystem):
            """An LSQ wearing a trench coat, to prove the seam works."""
            name = toy_name

        config = ProcessorConfig(subsystem=toy_name)
        assert config.name == toy_name  # default name follows subsystem
        result = Core(assemble(counted_loop_program), config).run()
        assert type(Core(assemble(counted_loop_program),
                         config).subsystem) is ToySubsystem
        assert result.instructions > 0
        assert result.ipc > 0
        # Retirement validation against the golden trace ran, so the toy
        # machine is architecturally exact.
        assert result.counters.get("retired_instructions") == \
            result.instructions

    def test_toy_factory_function_runs(self, toy_name):
        @register_subsystem(toy_name)
        def build_toy(config, memory, hierarchy, counters):
            return LSQSubsystem(config.lsq, memory, hierarchy, counters)

        result = Core(assemble(counted_loop_program),
                      ProcessorConfig(subsystem=toy_name)).run()
        assert result.ipc > 0

    def test_unregistered_toy_rejected_again(self, toy_name):
        register_subsystem(toy_name)(LSQSubsystem.from_config)
        registry.unregister(toy_name)
        with pytest.raises(ValueError):
            ProcessorConfig(subsystem=toy_name)
