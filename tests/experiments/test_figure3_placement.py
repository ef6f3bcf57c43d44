"""Figure 3 under every fold placement: same bytes, resumable across them."""

import json

import numpy as np
import pytest

from repro.api.envelope import Envelope
from repro.backends import PoolBackend, fork_available
from repro.campaigns.checkpoint import CheckpointMismatch, Checkpointer
from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import SboxCpaFold
from repro.crypto.aes_asm import LAYOUT, round1_only_program
from repro.experiments.figure3 import figure3_scope, run_figure3
from repro.power.acquisition import random_inputs
from repro.power.profile import cortex_a7_profile

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

#: two chunkings, one on each side of the crossover (517 traces)
N_TRACES = 2200
CHUNK_SIZES = (128, 2000)
REDUCE_MODES = (None, "parent", "worker")


def envelope_bytes(result) -> bytes:
    """The figure3 envelope minus ``seconds``, plus its artifact bytes."""
    record = Envelope(scenario="figure3", title="figure3", result=result, seconds=0.0)
    record = record.to_json()
    record.pop("seconds")
    return json.dumps(record, sort_keys=True).encode() + result.timecourse.tobytes()


@pytest.fixture(scope="module")
def pool():
    backend = PoolBackend(jobs=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def serial_runs():
    """The serial parent-fold run of each chunking."""
    return {
        chunk_size: run_figure3(
            n_traces=N_TRACES, chunk_size=chunk_size, precision="float32", reduce="parent"
        )
        for chunk_size in CHUNK_SIZES
    }


class TestByteIdentity:
    def test_chunkings_agree_to_rounding(self, serial_runs):
        # The fold's association follows the chunk boundaries, so two
        # chunkings agree to rounding, not bitwise; within a chunking
        # every backend and placement is bitwise equal (below).
        small, large = (serial_runs[size].cpa.correlations for size in CHUNK_SIZES)
        np.testing.assert_allclose(small, large, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("reduce", REDUCE_MODES)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("fork", marks=needs_fork), "pool"]
    )
    def test_every_backend_and_placement_agree(
        self, serial_runs, pool, backend, chunk_size, reduce
    ):
        result = run_figure3(
            n_traces=N_TRACES,
            chunk_size=chunk_size,
            jobs=2,
            precision="float32",
            backend=pool if backend == "pool" else backend,
            reduce=reduce,
        )
        assert envelope_bytes(result) == envelope_bytes(serial_runs[chunk_size])
        if reduce is not None:
            assert result.placement == reduce
        elif backend != "serial" and chunk_size == 2000:
            assert result.placement == "worker"
        else:
            assert result.placement == "parent"


class TestObservability:
    def test_placement_is_on_the_result_not_in_the_envelope(self):
        result = run_figure3(n_traces=N_TRACES, chunk_size=2000, jobs=2, precision="float32")
        assert result.placement == "worker"
        record = Envelope(scenario="figure3", title="figure3", result=result, seconds=0.0)
        assert "placement" not in json.dumps(record.to_json())

    def test_monolithic_run_folds_in_the_parent(self):
        assert run_figure3(n_traces=300, precision="float32").placement == "parent"

    @pytest.mark.parametrize("precision", ["float32", "float64-exact"])
    def test_reduced_campaign_records_the_sizes_it_compared(self, precision):
        key = bytes(range(16))
        engine = StreamingCampaign(
            round1_only_program(key),
            profile=cortex_a7_profile(),
            scope=figure3_scope(precision),
            entry="aes_round1",
            chunk_size=600,
            jobs=2,
        )
        inputs = random_inputs(1200, mem_blocks={LAYOUT.state: 16}, seed=5)
        fold = SboxCpaFold(byte_index=0)
        reduced = engine.reduce(inputs, fold, placement=None)
        n_samples = reduced.trace_set.n_samples
        assert reduced.placement == "worker"
        assert reduced.state_bytes == fold.state_nbytes(n_samples)
        # Both chains capture float32 traces: 4 bytes a sample.
        assert reduced.chunk_bytes == 600 * n_samples * 4
        assert reduced.n_chunks == 2


class _Killed(Exception):
    """Stands in for a kill after a number of committed chunks."""


def _kill_after(monkeypatch, commits: int) -> None:
    original = Checkpointer.chunk_done
    done = []

    def chunk_done(self, index):
        original(self, index)
        done.append(index)
        if len(done) == commits:
            raise _Killed

    monkeypatch.setattr(Checkpointer, "chunk_done", chunk_done)


class TestResumeAcrossPlacements:
    RUN = dict(n_traces=2400, chunk_size=600, precision="float32")

    @pytest.mark.parametrize(
        ("killed_jobs", "resumed_jobs"),
        [pytest.param(2, 1, marks=needs_fork), pytest.param(1, 2, marks=needs_fork)],
    )
    def test_killed_run_resumes_under_the_other_placement(
        self, tmp_path, monkeypatch, killed_jobs, resumed_jobs
    ):
        clean = envelope_bytes(run_figure3(**self.RUN))
        checkpoint = str(tmp_path / "ckpt")
        with monkeypatch.context() as patch:
            _kill_after(patch, commits=2)
            with pytest.raises(_Killed):
                run_figure3(**self.RUN, jobs=killed_jobs, checkpoint=checkpoint)
        resumed = run_figure3(
            **self.RUN, jobs=resumed_jobs, checkpoint=checkpoint, resume=True
        )
        assert resumed.placement == ("worker" if resumed_jobs > 1 else "parent")
        assert envelope_bytes(resumed) == clean

    def test_checkpoint_of_another_fold_is_refused(self, tmp_path, monkeypatch):
        checkpoint = str(tmp_path / "ckpt")
        with monkeypatch.context() as patch:
            _kill_after(patch, commits=1)
            with pytest.raises(_Killed):
                run_figure3(**self.RUN, checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatch):
            run_figure3(**self.RUN, byte_index=1, checkpoint=checkpoint, resume=True)


def test_worker_and_parent_folds_agree_on_float64_exact():
    # float64-exact noise is seeded per chunk, so equality holds per
    # chunking; placement must not matter within one.
    runs = [
        run_figure3(n_traces=1200, chunk_size=600, jobs=2, reduce=reduce)
        for reduce in REDUCE_MODES
    ]
    for run in runs[1:]:
        np.testing.assert_array_equal(run.cpa.correlations, runs[0].cpa.correlations)
    assert [run.placement for run in runs] == ["worker", "parent", "worker"]
