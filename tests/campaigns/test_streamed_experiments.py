"""End-to-end streamed experiment runs: chunked campaigns, same science."""

import numpy as np
import pytest

from repro.experiments.ablations import ablate_operand_swap
from repro.experiments.figure3 import run_figure3
from repro.experiments.table2 import run_table2
from repro.power.scope import ScopeConfig

#: Low-noise scope so reduced-trace streamed attacks stay decisive.
_FAST_SCOPE = ScopeConfig(noise_sigma=20.0, n_averages=16, quantize_bits=8)


class TestStreamedFigure3:
    @pytest.fixture(scope="class")
    def streamed(self):
        return run_figure3(n_traces=400, scope=_FAST_SCOPE, chunk_size=128)

    def test_recovers_key_from_chunked_campaign(self, streamed):
        assert streamed.cpa.rank_of(streamed.true_key_byte) == 0
        assert streamed.cpa.n_traces == 400

    def test_chunk_metadata_still_describes_the_figure(self, streamed):
        # The result's trace_set is the campaign's zero-row metadata
        # trace set: same schedule and sample axis, no trace bytes.
        assert streamed.timecourse.shape == (streamed.trace_set.n_samples,)
        assert streamed.trace_set.n_traces == 0
        assert set(streamed.segments) == {"ARK", "SB", "ShR", "MC"}

    def test_parallel_fanout_matches_serial(self, streamed):
        parallel = run_figure3(n_traces=400, scope=_FAST_SCOPE, chunk_size=128, jobs=3)
        assert parallel.cpa.best_guess == streamed.cpa.best_guess
        np.testing.assert_array_equal(
            parallel.cpa.correlations, streamed.cpa.correlations
        )


class TestStreamedTable2:
    def test_chunked_run_is_deterministic_across_jobs(self):
        serial = run_table2(n_traces=300, chunk_size=100)
        parallel = run_table2(n_traces=300, chunk_size=100, jobs=2)
        assert len(serial.benchmarks) == len(parallel.benchmarks) == 7
        for left, right in zip(serial.benchmarks, parallel.benchmarks):
            assert left.dual_measured == right.dual_measured
            for lo, ro in zip(left.outcomes, right.outcomes):
                assert lo.peak_corr == pytest.approx(ro.peak_corr, abs=1e-12)


class TestStreamedAblations:
    def test_operand_swap_demonstrated_chunked(self):
        result = ablate_operand_swap(n_traces=800, chunk_size=300)
        assert result.demonstrated
