"""Policy resolution: one auto candidate then serial, strict explicit names."""

import pytest

from repro.backends import (
    BACKEND_POLICIES,
    BackendContext,
    BackendDegradationWarning,
    BackendUnavailable,
    CLI_BACKEND_CHOICES,
    PoolBackend,
    SerialBackend,
    clear_quarantine,
    fork_available,
    make_backend,
    quarantine_backend,
    resolve_backend,
)
from repro.backends.faults import _identity

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")


@pytest.fixture(autouse=True)
def _clean_quarantine():
    clear_quarantine()
    yield
    clear_quarantine()


class TestMakeBackend:
    def test_serial_name_maps_to_the_reference(self):
        assert isinstance(make_backend("serial", jobs=2), SerialBackend)

    @pytest.mark.parametrize(
        "policy", [pytest.param("fork", marks=needs_fork), "spawn"]
    )
    def test_start_method_names_map_to_per_call_pools(self, policy):
        backend = make_backend(policy, jobs=2)
        assert isinstance(backend, PoolBackend)
        assert backend.name == backend.start_method == policy
        assert not backend.persistent
        assert backend.workers == 2

    def test_pool_policy_builds_a_persistent_backend(self):
        backend = make_backend("pool", jobs=2)
        assert isinstance(backend, PoolBackend)
        assert backend.name == "pool" and backend.persistent
        backend.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend policy"):
            make_backend("threads")

    def test_numba_is_no_longer_a_policy(self):
        assert BACKEND_POLICIES == ("auto", "serial", "fork", "spawn", "pool")
        with pytest.raises(ValueError, match="unknown backend policy"):
            make_backend("numba")


class TestResolveAuto:
    def test_jobs_one_resolves_serial(self):
        backend, owned = resolve_backend("auto", jobs=1, n_tasks=10)
        assert isinstance(backend, SerialBackend) and owned

    def test_single_task_resolves_serial(self):
        backend, owned = resolve_backend("auto", jobs=4, n_tasks=1)
        assert isinstance(backend, SerialBackend) and owned

    def test_none_means_auto(self):
        backend, _owned = resolve_backend(None, jobs=1)
        assert isinstance(backend, SerialBackend)

    @needs_fork
    def test_parallel_prefers_fork(self):
        backend, owned = resolve_backend("auto", jobs=4, n_tasks=8)
        assert isinstance(backend, PoolBackend) and owned
        assert backend.name == "fork" and not backend.persistent
        assert backend.workers == 4

    def test_falls_back_to_spawn_without_fork(self, monkeypatch):
        monkeypatch.setattr("repro.backends.pools.fork_available", lambda: False)
        context = BackendContext(campaign=None, inputs=None, power_transform=_identity)
        backend, _owned = resolve_backend("auto", jobs=2, n_tasks=4, context=context)
        assert isinstance(backend, PoolBackend)
        assert backend.name == "spawn" and not backend.persistent

    def test_degrades_loudly_when_spawn_cannot_pickle(self, monkeypatch):
        monkeypatch.setattr("repro.backends.pools.fork_available", lambda: False)
        context = BackendContext(
            campaign=None, inputs=None, power_transform=lambda power: power
        )
        with pytest.warns(BackendDegradationWarning, match="jobs=4"):
            backend, owned = resolve_backend("auto", jobs=4, n_tasks=8, context=context)
        assert isinstance(backend, SerialBackend) and owned

    @needs_fork
    def test_fork_needs_no_picklable_context(self):
        context = BackendContext(
            campaign=None, inputs=None, power_transform=lambda power: power
        )
        backend, _owned = resolve_backend("auto", jobs=2, n_tasks=4, context=context)
        assert backend.name == "fork"

    @needs_fork
    def test_quarantined_fork_degrades_straight_to_serial(self):
        # One step: spawn is not tried even though it would work.
        quarantine_backend("fork", "watchdog exhausted")
        with pytest.warns(BackendDegradationWarning, match="running serial"):
            backend, owned = resolve_backend("auto", jobs=2, n_tasks=4)
        assert isinstance(backend, SerialBackend) and owned

    def test_quarantined_spawn_degrades_to_serial_without_fork(self, monkeypatch):
        monkeypatch.setattr("repro.backends.pools.fork_available", lambda: False)
        quarantine_backend("spawn", "watchdog exhausted")
        with pytest.warns(BackendDegradationWarning, match="'spawn' backend is quarantined"):
            backend, _owned = resolve_backend("auto", jobs=2, n_tasks=4)
        assert isinstance(backend, SerialBackend)


class TestResolveExplicit:
    def test_instance_passes_through_unowned(self):
        instance = SerialBackend()
        backend, owned = resolve_backend(instance, jobs=4)
        assert backend is instance
        assert not owned

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend policy"):
            resolve_backend("threads", jobs=2)

    def test_non_string_policy_raises(self):
        with pytest.raises(TypeError, match="policy"):
            resolve_backend(42, jobs=2)

    def test_numba_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend policy"):
            resolve_backend("numba", jobs=2)

    def test_explicit_fork_is_strict_about_availability(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(BackendUnavailable, match="fork"):
            resolve_backend("fork", jobs=2)

    def test_explicit_serial_honored_despite_jobs(self):
        backend, owned = resolve_backend("serial", jobs=8, n_tasks=8)
        assert isinstance(backend, SerialBackend) and owned

    @pytest.mark.parametrize("policy", ["spawn", "pool"])
    def test_explicit_pool_with_nothing_to_fan_out_runs_serial(self, policy):
        backend, owned = resolve_backend(policy, jobs=1, n_tasks=8)
        assert isinstance(backend, SerialBackend) and owned


def test_cli_choices_are_a_subset_of_the_policies():
    assert set(CLI_BACKEND_CHOICES) <= set(BACKEND_POLICIES)
