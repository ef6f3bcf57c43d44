"""Where a streamed fold runs: the size rule and the backend predicate."""

import pickle

import numpy as np
import pytest

from repro.backends import (
    PoolBackend,
    SerialBackend,
    clear_quarantine,
    fork_available,
    quarantine_backend,
    runs_in_workers,
)
from repro.campaigns.reduction import (
    SboxCpaFold,
    TraceMeanVarFold,
    choose_placement,
)

#: figure 3's samples per trace
N_SAMPLES = 2712


class CoMomentOnlyFold(SboxCpaFold):
    """A 256-guess CPA fold whose state is exactly its co-moment block.

    Puts the crossover at exactly ``2 x guesses`` float32 traces (and
    ``guesses`` traces at 8 bytes a sample), so the strict comparison
    can be pinned on both sides.
    """

    def state_nbytes(self, n_samples):
        return len(self.guesses) * n_samples * 8


def place(fold, chunk_traces, *, itemsize=4, n_chunks=12, in_workers=True, forced=None):
    return choose_placement(
        fold,
        n_samples=N_SAMPLES,
        chunk_traces=chunk_traces,
        itemsize=itemsize,
        n_chunks=n_chunks,
        in_workers=in_workers,
        forced=forced,
    )


class TestSizeRule:
    @pytest.mark.parametrize(
        ("itemsize", "chunk_traces", "where"),
        [
            (4, 511, "parent"),
            (4, 512, "parent"),  # equal sizes: the state is not smaller
            (4, 513, "worker"),
            (8, 255, "parent"),
            (8, 256, "parent"),
            (8, 257, "worker"),
        ],
    )
    def test_state_must_be_smaller_than_the_chunk(self, itemsize, chunk_traces, where):
        chosen = place(CoMomentOnlyFold(byte_index=0), chunk_traces, itemsize=itemsize)
        assert chosen.where == where
        assert chosen.state_bytes == 256 * N_SAMPLES * 8
        assert chosen.chunk_bytes == chunk_traces * N_SAMPLES * itemsize

    @pytest.mark.parametrize(
        ("itemsize", "last_parent"), [(4, 516), (8, 258)]
    )
    def test_sbox_cpa_crossover_sits_just_above_512_float32_traces(
        self, itemsize, last_parent
    ):
        # The trace-side and model-side vectors add a few traces' worth
        # of bytes on top of the co-moment block.
        fold = SboxCpaFold(byte_index=0)
        assert place(fold, last_parent, itemsize=itemsize).where == "parent"
        assert place(fold, last_parent + 1, itemsize=itemsize).where == "worker"

    def test_bulk_chunks_fold_in_the_workers(self):
        chosen = place(SboxCpaFold(byte_index=0), 2000)
        assert chosen.where == "worker"
        assert chosen.state_bytes < chosen.chunk_bytes / 3

    def test_in_process_runs_fold_in_the_parent(self):
        assert place(SboxCpaFold(byte_index=0), 2000, in_workers=False).where == "parent"

    def test_a_single_chunk_folds_in_the_parent(self):
        assert place(SboxCpaFold(byte_index=0), 24000, n_chunks=1).where == "parent"

    def test_a_fold_of_unknown_size_folds_in_the_parent(self):
        chosen = place(TraceMeanVarFold(), 2000)
        assert chosen.where == "parent"
        assert chosen.state_bytes is None

    @pytest.mark.parametrize(
        ("forced", "chunk_traces", "in_workers"),
        [("parent", 2000, True), ("worker", 75, False)],
    )
    def test_explicit_placement_overrides_the_rule(self, forced, chunk_traces, in_workers):
        chosen = place(
            SboxCpaFold(byte_index=0), chunk_traces, in_workers=in_workers, forced=forced
        )
        assert chosen.where == forced
        # The sizes are recorded even when they did not decide.
        assert chosen.state_bytes == SboxCpaFold(byte_index=0).state_nbytes(N_SAMPLES)

    def test_unknown_placement_is_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            place(SboxCpaFold(byte_index=0), 2000, forced="gpu")


class TestStateSize:
    def test_sbox_cpa_state_size_matches_its_pickle(self):
        fold = SboxCpaFold(byte_index=0)
        rng = np.random.default_rng(3)
        overheads = []
        for n_samples in (40, N_SAMPLES):
            accumulator = fold.create()
            plaintexts = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
            accumulator.update(
                rng.standard_normal((64, n_samples)).astype(np.float32),
                lambda guess: (plaintexts[:, 0] ^ guess).astype(np.float64),
            )
            pickled = len(pickle.dumps(accumulator.state()))
            overheads.append(pickled - fold.state_nbytes(n_samples))
        # Only pickle framing on top, which does not grow with the
        # sample count.
        assert all(0 <= overhead < 1024 for overhead in overheads)


needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")


class TestRunsInWorkers:
    @pytest.mark.parametrize(
        ("policy", "jobs", "n_tasks", "expected"),
        [
            ("auto", 1, 12, False),
            ("auto", 2, 1, False),
            ("auto", 2, 12, True),
            (None, 2, 12, True),
            ("serial", 2, 12, False),
            ("fork", 2, 12, True),
            ("spawn", 1, 12, False),
            ("pool", 2, 12, True),
        ],
    )
    def test_policy_names(self, policy, jobs, n_tasks, expected):
        assert runs_in_workers(policy, jobs, n_tasks=n_tasks) is expected

    def test_live_backends(self):
        assert runs_in_workers(SerialBackend(), 2, n_tasks=12) is False
        # A live pool runs whatever it is handed, jobs notwithstanding.
        assert runs_in_workers(PoolBackend(jobs=2), 1, n_tasks=12) is True

    @needs_fork
    def test_auto_with_its_candidate_quarantined_runs_in_process(self):
        quarantine_backend("fork", "test")
        try:
            assert runs_in_workers("auto", 2, n_tasks=12) is False
        finally:
            clear_quarantine()
