"""RunRequest: capability validation, narrowing, centralized defaulting."""

import pytest

from repro.api import Capability, CapabilityError, RunRequest
from repro.campaigns.registry import Scenario


def scenario_with(*capabilities, default_traces=None, default_reps=200):
    return Scenario(
        name="_req-test",
        title="t",
        description="d",
        runner=lambda request: request,
        default_traces=default_traces,
        default_reps=default_reps,
        capabilities=frozenset(capabilities),
    )


class TestValidation:
    def test_empty_request_always_validates(self):
        RunRequest().validate(scenario_with())

    def test_unsupported_knob_raises_structured_error(self):
        scenario = scenario_with(Capability.TRACES)
        with pytest.raises(CapabilityError) as excinfo:
            RunRequest(n_traces=10, chunk_size=5, grid=("a=1",)).validate(scenario)
        error = excinfo.value
        assert error.scenario == "_req-test"
        assert error.knobs == ("chunk_size", "grid")
        assert "chunking" in str(error)
        assert "--chunk-size" in error.cli_message()
        assert "--grid" in error.cli_message()

    def test_jobs_one_is_not_a_demand(self):
        RunRequest(jobs=1).validate(scenario_with())
        with pytest.raises(CapabilityError):
            RunRequest(jobs=2).validate(scenario_with())

    def test_config_and_scope_are_capabilities(self):
        with pytest.raises(CapabilityError, match="config"):
            RunRequest(config=object()).validate(scenario_with())
        RunRequest(config=object()).validate(scenario_with(Capability.PIPELINE_CONFIG))

    @pytest.mark.parametrize(
        "knobs",
        (
            {"n_traces": 0},
            {"n_traces": -3},
            {"reps": 0},
            {"chunk_size": 0},
            {"jobs": 0},
            {"seed": -1},
            {"precision": "float16"},
            {"backend": "threads"},
            {"backend": "numba"},
            {"backend": object()},
        ),
    )
    def test_malformed_values_rejected_at_construction(self, knobs):
        with pytest.raises(ValueError):
            RunRequest(**knobs)

    def test_backend_accepts_policies_and_instances(self):
        from repro.backends import BACKEND_POLICIES, SerialBackend

        for policy in BACKEND_POLICIES:
            assert RunRequest(backend=policy).backend == policy
        instance = SerialBackend()
        assert RunRequest(backend=instance).backend is instance

    def test_backend_is_a_capability_gated_knob(self):
        with pytest.raises(CapabilityError, match="backend"):
            RunRequest(backend="fork").validate(scenario_with(Capability.JOBS))
        RunRequest(backend="fork").validate(scenario_with(Capability.BACKEND))


class TestNarrowing:
    def test_narrowed_to_drops_only_unsupported(self):
        scenario = scenario_with(Capability.TRACES, Capability.SEED)
        request = RunRequest(n_traces=10, seed=3, jobs=4, precision="float32")
        narrowed, dropped = request.narrowed_to(scenario)
        assert dropped == ("jobs", "precision")
        assert narrowed.n_traces == 10
        assert narrowed.seed == 3
        assert narrowed.jobs is None
        assert narrowed.precision is None

    def test_narrowed_to_is_identity_when_supported(self):
        scenario = scenario_with(Capability.TRACES)
        request = RunRequest(n_traces=10)
        narrowed, dropped = request.narrowed_to(scenario)
        assert narrowed is request
        assert dropped == ()


class TestResolve:
    def test_defaults_come_from_the_scenario(self):
        scenario = scenario_with(Capability.TRACES, default_traces=777)
        resolved = RunRequest().resolve(scenario)
        assert resolved.n_traces == 777
        assert resolved.jobs == 1
        assert resolved.reps is None  # no REPS capability -> no reps default

    def test_reps_default_only_for_reps_scenarios(self):
        scenario = scenario_with(Capability.REPS, default_reps=55)
        assert RunRequest().resolve(scenario).reps == 55
        assert RunRequest(reps=9).resolve(scenario).reps == 9

    def test_explicit_knobs_win(self):
        scenario = scenario_with(Capability.TRACES, default_traces=777)
        assert RunRequest(n_traces=5).resolve(scenario).n_traces == 5

    def test_resolve_validates_first(self):
        with pytest.raises(CapabilityError):
            RunRequest(grid=("a=1",)).resolve(scenario_with(Capability.TRACES))


class TestMergedDefaults:
    def test_merged_defaults_fills_only_unset(self):
        request = RunRequest(n_traces=5)
        defaults = RunRequest(n_traces=100, chunk_size=10)
        merged = request.merged_defaults(defaults)
        assert merged.n_traces == 5
        assert merged.chunk_size == 10
