"""Worker-failure isolation: original errors surface, pools release."""

import multiprocessing
import time

import numpy as np
import pytest

from repro.backends import PoolBackend, fork_available
from repro.backends.faults import (
    FaultyTransform,
    FaultyTransformFactory,
    InjectedWorkerError,
    faulty_item,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

PARALLEL_POLICIES = [
    pytest.param("fork", marks=needs_fork),
    "spawn",
]


def wait_for_children_to_exit(before, timeout=15.0):
    """Block until every pool child spawned since ``before`` is gone."""
    deadline = time.monotonic() + timeout
    while True:
        lingering = [p for p in multiprocessing.active_children() if p not in before]
        if not lingering:
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"worker processes leaked: {lingering}")
        time.sleep(0.05)


@pytest.mark.parametrize("policy", PARALLEL_POLICIES)
class TestWorkerFailure:
    def test_original_error_surfaces_with_remote_traceback(
        self, policy, make_engine, make_inputs
    ):
        before = list(multiprocessing.active_children())
        engine = make_engine()
        with pytest.raises(InjectedWorkerError, match="chunk 2") as excinfo:
            list(
                engine.stream(
                    make_inputs(32),
                    chunk_size=8,
                    jobs=2,
                    backend=policy,
                    power_transform_factory=FaultyTransformFactory(fail_index=2),
                )
            )
        # multiprocessing chains the worker-side traceback as __cause__.
        assert "InjectedWorkerError" in str(excinfo.value.__cause__)
        wait_for_children_to_exit(before)

    def test_campaign_recovers_after_a_failed_stream(
        self, policy, make_engine, make_inputs, capture
    ):
        engine = make_engine()
        inputs = make_inputs(32)
        with pytest.raises(InjectedWorkerError):
            list(
                engine.stream(
                    inputs,
                    chunk_size=8,
                    jobs=2,
                    backend=policy,
                    power_transform=FaultyTransform(),
                )
            )
        # The engine and its compiled schedule stay fully usable.
        clean = np.concatenate(
            [c.traces for c in engine.stream(inputs, chunk_size=8, backend="serial")]
        )
        np.testing.assert_array_equal(clean, capture("serial", 8, n=32))


class TestDegradation:
    def test_engine_degrades_loudly_and_still_delivers(
        self, monkeypatch, make_engine, make_inputs
    ):
        from repro.backends import BackendDegradationWarning

        monkeypatch.setattr("repro.backends.pools.fork_available", lambda: False)
        engine = make_engine()
        with pytest.warns(BackendDegradationWarning, match="running serial"):
            chunks = list(
                engine.stream(
                    make_inputs(32),
                    chunk_size=8,
                    jobs=2,
                    power_transform=lambda power: power,
                )
            )
        assert sum(c.n_traces for c in chunks) == 32


class TestSpawnPicklability:
    def test_unpicklable_transform_fails_before_any_worker_starts(
        self, make_engine, make_inputs
    ):
        from repro.backends import BackendUnavailable

        before = list(multiprocessing.active_children())
        with pytest.raises(BackendUnavailable, match="power_transform"):
            list(
                make_engine().stream(
                    make_inputs(32),
                    chunk_size=8,
                    jobs=2,
                    backend="spawn",
                    power_transform=lambda power: power,
                )
            )
        assert list(multiprocessing.active_children()) == before


class TestMapItemsFailure:
    @needs_fork
    def test_item_failure_surfaces_from_fork_pool(self):
        backend = PoolBackend(jobs=2, start_method="fork", persistent=False)
        with pytest.raises(InjectedWorkerError, match="boom"):
            backend.map_items(faulty_item, ["ok", "boom", "fine"])

    def test_item_failure_surfaces_from_persistent_pool(self):
        backend = PoolBackend(jobs=2)
        try:
            with pytest.raises(InjectedWorkerError, match="boom"):
                backend.map_items(faulty_item, ["ok", "boom"])
            # The pool is not poisoned: the same workers keep serving.
            assert backend.map_items(faulty_item, ["a", "b"]) == ["a", "b"]
        finally:
            backend.close()

    def test_persistent_pool_releases_workers_on_close(self):
        before = list(multiprocessing.active_children())
        backend = PoolBackend(jobs=2)
        backend.start()
        assert backend.map_items(faulty_item, ["x"]) == ["x"]
        backend.close()
        wait_for_children_to_exit(before)
