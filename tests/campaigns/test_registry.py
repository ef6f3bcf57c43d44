"""Scenario registry: builtin enumeration, lookup, custom registration."""

import pytest

from repro.api import Capability, CapabilityError, RunRequest
from repro.campaigns import registry
from repro.campaigns.registry import Scenario, register


class TestBuiltins:
    def test_all_paper_scenarios_registered(self):
        names = registry.names()
        for expected in (
            "table1",
            "figure2",
            "table2",
            "figure3",
            "figure4",
            "ablations",
            "baselines",
            "success-curves",
        ):
            assert expected in names

    def test_scenarios_are_described(self):
        for scenario in registry.scenarios():
            assert scenario.title
            assert scenario.description
            assert callable(scenario.runner)

    def test_declared_capabilities(self):
        assert registry.get("figure3").has(Capability.CHUNKING)
        assert registry.get("figure3").has(Capability.JOBS)
        assert not registry.get("success-curves").has(Capability.CHUNKING)
        assert registry.get("sweep").has(Capability.GRID)
        assert not registry.get("figure3").has(Capability.GRID)
        assert registry.get("table1").default_traces is None
        assert registry.get("table1").has(Capability.REPS)
        assert not registry.get("table1").has(Capability.TRACES)

    def test_unknown_scenario_raises_with_candidates(self):
        with pytest.raises(KeyError, match="figure3"):
            registry.get("figure99")

    def test_builtin_names_match_loaded_registry(self):
        """Guard the static name list (used by the import-light CLI
        parser) against drift from what the drivers actually register."""
        registry.load_builtin_scenarios()
        assert set(registry.BUILTIN_NAMES) <= set(registry.names())
        builtin_registered = {
            name for name in registry.names() if not name.startswith("_")
        }
        assert set(registry.BUILTIN_NAMES) == builtin_registered


class TestCustomScenario:
    def test_register_and_run(self):
        calls = []

        class _Result:
            def render(self):
                return "custom ok"

        def runner(request: RunRequest):
            calls.append(request)
            return _Result()

        scenario = register(
            Scenario(
                name="_test-custom",
                title="test scenario",
                description="registered by the test suite",
                runner=runner,
                default_traces=40,
                capabilities=frozenset(
                    {Capability.TRACES, Capability.CHUNKING, Capability.JOBS}
                ),
            )
        )
        try:
            assert registry.get("_test-custom") is scenario
            result = registry.run(
                "_test-custom", RunRequest(n_traces=5, chunk_size=2, jobs=2)
            )
            assert result.render() == "custom ok"
            assert calls[0].n_traces == 5
            assert calls[0].chunk_size == 2
            assert calls[0].jobs == 2
        finally:
            registry._REGISTRY.pop("_test-custom", None)

    def test_run_none_resolves_scenario_defaults(self):
        """Scenario.run(None) must resolve per-scenario defaults through
        RunRequest.resolve — not a global RunOptions() default."""
        calls = []
        register(
            Scenario(
                name="_test-defaults",
                title="t",
                description="d",
                runner=calls.append,
                default_traces=123,
                capabilities=frozenset({Capability.TRACES}),
            )
        )
        try:
            registry.run("_test-defaults")
            (request,) = calls
            assert request.n_traces == 123
            assert request.jobs == 1
            # A trace-only scenario has no REPS capability: it must not
            # inherit the legacy global reps=200 default.
            assert request.reps is None
        finally:
            registry._REGISTRY.pop("_test-defaults", None)

    def test_strict_request_rejects_unsupported_knob(self):
        register(
            Scenario(
                name="_test-strict",
                title="t",
                description="d",
                runner=lambda request: request,
                capabilities=frozenset(),
            )
        )
        try:
            with pytest.raises(CapabilityError, match="chunk_size"):
                registry.run("_test-strict", RunRequest(chunk_size=8))
        finally:
            registry._REGISTRY.pop("_test-strict", None)


class TestLegacyShimsRemoved:
    def test_run_options_is_gone(self):
        with pytest.raises(ImportError):
            from repro.campaigns.registry import RunOptions  # noqa: F401
        import repro.campaigns

        assert "RunOptions" not in repro.campaigns.__all__
        with pytest.raises(AttributeError):
            repro.campaigns.RunOptions  # noqa: B018

    @pytest.mark.parametrize(
        "flag", ["supports_chunking", "supports_jobs", "supports_precision", "supports_grid"]
    )
    def test_supports_booleans_raise_type_error(self, flag):
        with pytest.raises(TypeError, match=flag):
            Scenario(
                name="_test-supports",
                title="t",
                description="d",
                runner=lambda request: request,
                default_traces=100,
                **{flag: True},
            )

    def test_capabilities_are_exactly_what_is_declared(self):
        # No backfill: an empty set plus a trace budget stays empty.
        scenario = Scenario(
            name="_test-bare",
            title="t",
            description="d",
            runner=lambda request: request,
            default_traces=1000,
        )
        assert scenario.capabilities == frozenset()
        with pytest.raises(CapabilityError, match="n_traces"):
            RunRequest(n_traces=5).validate(scenario)

    def test_capabilities_iterable_is_coerced_to_frozenset(self):
        scenario = Scenario(
            name="_test-list",
            title="t",
            description="d",
            runner=lambda request: request,
            capabilities=[Capability.TRACES, Capability.SEED],
        )
        assert scenario.capabilities == frozenset({Capability.TRACES, Capability.SEED})

    def test_every_builtin_declares_capabilities(self):
        for scenario in registry.scenarios():
            if scenario.default_traces is not None:
                assert scenario.has(Capability.TRACES), scenario.name
