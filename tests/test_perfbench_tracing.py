"""The perfbench tracer's contract with the names it patches.

``perfbench/tracing.py`` wraps each layer's entry points by name from
outside ``src/``, so a rename in ``src/`` would otherwise break only
``perfbench/run.py --trace 1`` runs.  ``install()`` raises on any name
that has gone missing; these tests also pin that uninstalling restores
every original and that a traced fork stream really dispatches through
the wrapped worker function.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends import base, fork_available, pools
from repro.campaigns.engine import StreamingCampaign
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.power.acquisition import random_inputs
from repro.power.scope import ScopeConfig

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

SRC = """
    add r0, r1, r2
    eor r3, r0, r1
    lsl r4, r3, #3
    bx lr
"""


@pytest.fixture
def tracing(monkeypatch):
    # Leave no bytecode behind in the benchmark's directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def backend_names():
    """Every backend name the tracer patches, as ``(owner, attr)``."""
    return [
        (pools, "run_chunk_task"),
        (pools, "_fork_chunk"),
        (pools._PoolBackendBase, "map_chunks"),
        (base, "run_chunk_task"),
        (base.SerialBackend, "map_chunks"),
    ]


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_every_name_and_uninstall_restores_it(tracing, tmp_path):
    originals = {key: current(*key) for key in backend_names()}
    uninstall = tracing.install(tracing.Tracer(str(tmp_path)))
    try:
        for key, original in originals.items():
            assert current(*key) is not original, key
    finally:
        uninstall()
    for key, original in originals.items():
        assert current(*key) is original, key


def test_pool_backend_is_the_class_the_tracer_wraps():
    assert pools._PoolBackendBase is pools.PoolBackend
    assert "map_chunks" in pools.PoolBackend.__dict__


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_traced_fork_stream_runs_the_wrapped_worker(tracing, tmp_path):
    engine = StreamingCampaign(
        assemble(SRC), scope=ScopeConfig(noise_sigma=3.0, precision="float32"), seed=7
    )
    inputs = random_inputs(24, reg_names=(Reg.R1, Reg.R2), seed=3)
    clean = np.concatenate(
        [c.traces for c in engine.stream(inputs, chunk_size=8, backend="serial")]
    )
    tracer = tracing.Tracer(str(tmp_path))
    uninstall = tracing.install(tracer)
    try:
        traced = np.concatenate(
            [c.traces for c in engine.stream(inputs, chunk_size=8, jobs=2, backend="fork")]
        )
        tracer.flush()
    finally:
        uninstall()
    np.testing.assert_array_equal(traced, clean)
    spans = tracing.collect(str(tmp_path))["spans"]
    assert spans["backends.worker_chunk"][0] == 3  # 24 traces / 8 per chunk
    assert spans["backends.chunk"][0] == 3
    assert spans["backends.map_chunks"][0] == 1
