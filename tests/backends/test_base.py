"""The backend protocol: tasks, specs, context, and the serial reference."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.backends import (
    BackendContext,
    BackendUnavailable,
    CampaignSpec,
    ChunkTask,
    SerialBackend,
)
from repro.campaigns.engine import compile_cached, schedule_cache_stats
from repro.power.acquisition import TraceCampaign
from repro.power.scope import ScopeConfig


def make_campaign(program, **overrides):
    kwargs = dict(scope=ScopeConfig(noise_sigma=3.0), seed=0xB0)
    kwargs.update(overrides)
    return TraceCampaign(program, **kwargs)


class TestChunkTask:
    def test_is_frozen_pure_data(self):
        task = ChunkTask(index=1, lo=8, hi=16, scope_seed=7, trace_offset=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.lo = 0
        assert pickle.loads(pickle.dumps(task)) == task


class TestCampaignSpec:
    def test_roundtrip_rebuilds_an_equivalent_campaign(self, program, make_inputs):
        campaign = make_campaign(program)
        spec = CampaignSpec.from_campaign(campaign)
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        inputs = make_inputs(16)
        np.testing.assert_array_equal(
            rebuilt.acquire(inputs).traces, campaign.acquire(inputs).traces
        )

    def test_roundtrip_carries_pinned_full_scale(self, program):
        campaign = make_campaign(program)
        campaign.pinned_full_scale = 12.5
        assert CampaignSpec.from_campaign(campaign).build().pinned_full_scale == 12.5

    def test_rebuilt_spec_hits_the_compile_cache_across_seeds(self, program, make_inputs):
        # Seed and pinned full-scale vary per campaign without changing
        # the compiled acquisition a rebuilt worker campaign looks up.
        inputs = make_inputs(16)
        compile_cached(make_campaign(program), inputs)
        base = CampaignSpec.from_campaign(make_campaign(program))
        reseeded = dataclasses.replace(base, seed=999, pinned_full_scale=3.0)
        misses = schedule_cache_stats()["misses"]
        rebuilt = pickle.loads(pickle.dumps(reseeded)).build()
        compile_cached(rebuilt, inputs)
        assert schedule_cache_stats()["misses"] == misses
        assert rebuilt.compile_count == 0

    def test_rebuilt_spec_with_a_new_sample_rate_recompiles(self, program, make_inputs):
        inputs = make_inputs(16)
        compile_cached(make_campaign(program), inputs)
        base = CampaignSpec.from_campaign(make_campaign(program))
        rescoped = dataclasses.replace(base, scope=ScopeConfig(samples_per_cycle=2))
        rebuilt = pickle.loads(pickle.dumps(rescoped)).build()
        compile_cached(rebuilt, inputs)
        assert rebuilt.compile_count == 1


class TestBackendContext:
    def test_transform_for_chunk_zero_is_precomputed(self):
        calls = []

        def factory(index):
            calls.append(index)
            return lambda power: power

        transform0 = factory(0)
        calls.clear()
        context = BackendContext(
            campaign=None,
            inputs=None,
            power_transform_factory=factory,
            transform0=transform0,
        )
        assert context.transform_for(0) is transform0
        assert calls == []  # chunk 0 never re-evaluates the factory
        context.transform_for(2)
        assert calls == [2]

    def test_assert_picklable_names_the_offender(self):
        context = BackendContext(
            campaign=None, inputs=None, power_transform=lambda power: power
        )
        with pytest.raises(BackendUnavailable, match="power_transform"):
            context.assert_picklable("spawn")

    def test_assert_picklable_accepts_picklable_transforms(self):
        from repro.backends.faults import _identity

        BackendContext(
            campaign=None, inputs=None, power_transform=_identity
        ).assert_picklable("spawn")


class TestSerialBackend:
    def test_stream_through_serial_matches_direct_acquisition(
        self, make_engine, make_inputs
    ):
        inputs = make_inputs()
        monolithic = make_engine().acquire(inputs)
        chunks = list(
            make_engine().stream(inputs, chunk_size=16, backend="serial")
        )
        np.testing.assert_array_equal(
            np.concatenate([c.traces for c in chunks]), monolithic.traces
        )

    def test_describe_reports_provenance(self):
        info = SerialBackend().describe()
        assert info["backend"] == "serial"
        assert info["persistent"] is False
        assert info["workers"] == 1
        assert isinstance(info["cpu_count"], int)

    def test_map_items_is_ordered(self):
        assert SerialBackend().map_items(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_context_manager_lifecycle(self):
        with SerialBackend() as backend:
            assert backend.name == "serial"
        backend.close()  # idempotent
