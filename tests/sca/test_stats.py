"""Pearson correlation and Fisher-z inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sca.stats import (
    correlation_significant,
    fisher_confidence,
    fisher_difference_confidence,
    ndtr,
    ndtri,
    pearson_corr,
    scrub_corr,
    significance_threshold,
)


class TestPearson:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(0)
        model = rng.normal(size=100)
        traces = np.stack([model * 2 + 1, -model], axis=1)
        corr = pearson_corr(model, traces)
        assert corr[0] == pytest.approx(1.0)
        assert corr[1] == pytest.approx(-1.0)

    def test_independent_signals_near_zero(self):
        rng = np.random.default_rng(1)
        model = rng.normal(size=5000)
        traces = rng.normal(size=(5000, 3))
        corr = pearson_corr(model, traces)
        assert np.all(np.abs(corr) < 0.06)

    def test_multi_model_shape(self):
        rng = np.random.default_rng(2)
        models = rng.normal(size=(50, 4))
        traces = rng.normal(size=(50, 7))
        assert pearson_corr(models, traces).shape == (4, 7)

    def test_zero_variance_yields_zero(self):
        model = np.ones(10)
        traces = np.random.default_rng(3).normal(size=(10, 2))
        assert np.all(pearson_corr(model, traces) == 0)
        model = np.arange(10.0)
        traces = np.ones((10, 2))
        assert np.all(pearson_corr(model, traces) == 0)

    def test_trace_count_mismatch(self):
        with pytest.raises(ValueError):
            pearson_corr(np.zeros(5), np.zeros((6, 2)))

    @given(st.integers(min_value=10, max_value=200))
    @settings(max_examples=20)
    def test_bounded_in_unit_interval(self, n):
        rng = np.random.default_rng(n)
        corr = pearson_corr(rng.normal(size=n), rng.normal(size=(n, 3)))
        assert np.all(np.abs(corr) <= 1.0)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(9)
        model = rng.normal(size=64)
        trace = rng.normal(size=64)
        ours = pearson_corr(model, trace.reshape(-1, 1))[0]
        reference = np.corrcoef(model, trace)[0, 1]
        assert ours == pytest.approx(reference, abs=1e-12)


class TestSignificance:
    def test_threshold_shrinks_with_traces(self):
        assert significance_threshold(100) > significance_threshold(10_000)

    def test_papers_criterion_confidence(self):
        # ~100k traces: even tiny correlations become significant.
        assert significance_threshold(100_000, 0.995) < 0.01

    def test_degenerate_trace_counts(self):
        assert significance_threshold(3) == 1.0
        assert significance_threshold(2) == 1.0

    def test_correlation_significant_scalar(self):
        threshold = significance_threshold(1000)
        assert correlation_significant(threshold * 1.5, 1000)
        assert not correlation_significant(threshold * 0.5, 1000)

    def test_correlation_significant_array(self):
        result = correlation_significant(np.array([0.0, 0.5]), 1000)
        assert list(result) == [False, True]

    def test_fisher_confidence_monotone_in_r(self):
        assert fisher_confidence(0.3, 500) > fisher_confidence(0.1, 500)

    def test_fisher_confidence_monotone_in_n(self):
        assert fisher_confidence(0.1, 5000) > fisher_confidence(0.1, 50)

    def test_null_calibration(self):
        """Under H0 the 99.5% threshold rejects ~0.5% of the time."""
        rng = np.random.default_rng(42)
        n, reps = 400, 2000
        threshold = significance_threshold(n, 0.995)
        model = rng.normal(size=(reps, n))
        noise = rng.normal(size=(reps, n))
        r = np.array(
            [np.corrcoef(model[i], noise[i])[0, 1] for i in range(reps)]
        )
        false_positive_rate = np.mean(np.abs(r) > threshold)
        assert false_positive_rate < 0.02


class TestDifferenceConfidence:
    def test_clear_separation(self):
        assert fisher_difference_confidence(0.8, 0.1, 200) > 0.999

    def test_tie_is_coin_flip(self):
        assert fisher_difference_confidence(0.3, 0.3, 200) == pytest.approx(0.5)

    def test_reversed_order_below_half(self):
        assert fisher_difference_confidence(0.1, 0.5, 200) < 0.5

    def test_more_traces_sharper(self):
        low = fisher_difference_confidence(0.4, 0.3, 50)
        high = fisher_difference_confidence(0.4, 0.3, 5000)
        assert high > low


class TestPrefixPearson:
    def test_matches_recompute_at_every_budget(self):
        from repro.sca.stats import prefix_pearson_corr

        rng = np.random.default_rng(10)
        models = rng.normal(3.0, 1.0, size=(400, 12))
        traces = rng.normal(40.0, 6.0, size=(400, 30)) + 0.4 * models[:, :1]
        budgets = [2, 5, 33, 150, 400]
        prefixes = prefix_pearson_corr(models, traces, budgets)
        assert prefixes.shape == (5, 12, 30)
        for i, budget in enumerate(budgets):
            np.testing.assert_allclose(
                prefixes[i], pearson_corr(models[:budget], traces[:budget]), atol=1e-10
            )

    def test_single_model_shape(self):
        from repro.sca.stats import prefix_pearson_corr

        rng = np.random.default_rng(11)
        model = rng.normal(size=100)
        traces = rng.normal(size=(100, 9))
        prefixes = prefix_pearson_corr(model, traces, [10, 100])
        assert prefixes.shape == (2, 9)
        np.testing.assert_allclose(
            prefixes[1], pearson_corr(model, traces), atol=1e-10
        )

    def test_budget_validation(self):
        from repro.sca.stats import prefix_pearson_corr

        data = np.random.default_rng(0).normal(size=(20, 3))
        model = data[:, 0]
        with pytest.raises(ValueError):
            prefix_pearson_corr(model, data, [])
        with pytest.raises(ValueError):
            prefix_pearson_corr(model, data, [5, 5])
        with pytest.raises(ValueError):
            prefix_pearson_corr(model, data, [10, 30])
        with pytest.raises(ValueError):
            prefix_pearson_corr(model, data, [0, 10])

    @given(
        n_traces=st.integers(min_value=6, max_value=60),
        n_models=st.integers(min_value=1, max_value=5),
        n_samples=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_prefixes_match_recompute(self, n_traces, n_models, n_samples, seed):
        from repro.sca.stats import prefix_pearson_corr

        rng = np.random.default_rng(seed)
        models = rng.normal(5.0, 2.0, size=(n_traces, n_models))
        traces = rng.normal(-3.0, 4.0, size=(n_traces, n_samples))
        budgets = sorted(
            set(rng.integers(1, n_traces + 1, size=3).tolist()) | {n_traces}
        )
        prefixes = prefix_pearson_corr(models, traces, budgets)
        for i, budget in enumerate(budgets):
            np.testing.assert_allclose(
                prefixes[i],
                pearson_corr(models[:budget], traces[:budget]),
                atol=1e-10,
            )


class TestScipySpecialExactness:
    """The Cephes ports reproduce ``scipy.special`` and so the
    ``scipy.stats.norm`` verdicts bit for bit (scipy is the reference,
    imported here only)."""

    Z_GRID = np.concatenate(
        [np.linspace(-40.0, 40.0, 80_001), [-0.0, 0.0, 1e-300, -1e-300, 8.3, -8.3]]
    )
    N_GRID = (4, 5, 10, 33, 100, 1000, 3000, 100_000)
    R_GRID = np.concatenate([np.linspace(-1.0, 1.0, 401), [0.999999, -0.999999, 1e-9]])

    def test_ufuncs_equal_norm(self):
        from scipy.special import ndtr, ndtri
        from scipy.stats import norm

        z = self.Z_GRID
        assert ndtr(z).tobytes() == norm.cdf(z).tobytes()
        assert ndtr(-z).tobytes() == norm.sf(z).tobytes()
        p = np.concatenate([ndtr(z), np.linspace(0.0, 1.0, 10_001)])
        assert ndtri(p).tobytes() == norm.ppf(p).tobytes()

    @staticmethod
    def _bits(values) -> bytes:
        return np.asarray(values, dtype=np.float64).tobytes()

    def test_ndtr_port_equals_scipy(self):
        from scipy.special import ndtr as reference

        rng = np.random.default_rng(17)
        z = np.concatenate(
            [self.Z_GRID, rng.normal(0.0, 5.0, 20_000), [np.nan, np.inf, -np.inf, 38.5, -38.5]]
        )
        assert self._bits([ndtr(v) for v in z]) == self._bits(reference(z))
        assert self._bits([ndtr(-v) for v in z]) == self._bits(reference(-z))

    def test_ndtri_port_equals_scipy(self):
        from scipy.special import ndtr as cdf
        from scipy.special import ndtri as reference

        rng = np.random.default_rng(18)
        p = np.concatenate(
            [
                cdf(self.Z_GRID),
                np.linspace(0.0, 1.0, 10_001),
                10.0 ** -rng.uniform(0.0, 300.0, 5_000),
                [np.nan, -0.5, 1.5, 5e-324, np.nextafter(1.0, 0.0)],
            ]
        )
        assert self._bits([ndtri(v) for v in p]) == self._bits(reference(p))

    def test_significance_threshold_equals_norm_expression(self):
        from scipy.stats import norm

        for n in self.N_GRID:
            for confidence in (0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0 - 1e-12, 1.0):
                alpha = 1.0 - confidence
                z_crit = norm.ppf(1.0 - alpha / 2.0)
                expected = float(np.tanh(z_crit / np.sqrt(n - 3)))
                assert significance_threshold(n, confidence) == expected

    def test_fisher_confidence_equals_norm_expression(self):
        from scipy.stats import norm

        for n in self.N_GRID:
            for r in self.R_GRID:
                z = np.arctanh(np.clip(abs(r), 0.0, 0.999999)) * np.sqrt(n - 3)
                expected = float(1.0 - 2.0 * norm.sf(z))
                assert fisher_confidence(float(r), n) == expected

    def test_fisher_difference_confidence_equals_norm_expression(self):
        from scipy.stats import norm

        for n in self.N_GRID:
            for r1 in self.R_GRID[::8]:
                for r2 in self.R_GRID[::32]:
                    z1 = np.arctanh(np.clip(r1, -0.999999, 0.999999))
                    z2 = np.arctanh(np.clip(r2, -0.999999, 0.999999))
                    z = (z1 - z2) * np.sqrt((n - 3) / 2.0)
                    expected = float(norm.cdf(z))
                    assert fisher_difference_confidence(float(r1), float(r2), n) == expected

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_small_trace_counts(self, n):
        assert significance_threshold(n) == 1.0
        assert fisher_confidence(0.9, n) == 0.0
        assert fisher_difference_confidence(0.9, 0.1, n) == 0.0


class TestScrubCorr:
    def test_equals_nan_to_num_then_clip(self):
        rng = np.random.default_rng(5)
        corr = rng.uniform(-1.5, 1.5, size=(16, 64))
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 1.0 + 1e-15, -1.0 - 1e-15]
        corr.flat[: len(specials)] = specials
        corr.flat[-len(specials):] = specials
        expected = np.clip(np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0), -1.0, 1.0)
        scrubbed = corr.copy()
        assert scrub_corr(scrubbed) is scrubbed
        assert scrubbed.tobytes() == expected.tobytes()

    def test_pearson_with_constant_columns_matches_reference(self):
        rng = np.random.default_rng(8)
        models = rng.integers(0, 9, size=(32, 256)).astype(np.float64)
        models[:, 3] = 4.0
        traces = rng.normal(size=(32, 300))
        traces[:, :10] = 7.0
        mc = models - models.mean(axis=0, keepdims=True)
        tc = traces - traces.mean(axis=0, keepdims=True)
        denominator = np.outer(np.sqrt((mc**2).sum(axis=0)), np.sqrt((tc**2).sum(axis=0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (mc.T @ tc) / denominator
        expected = np.clip(np.nan_to_num(raw, nan=0.0, posinf=0.0, neginf=0.0), -1.0, 1.0)
        assert pearson_corr(models, traces).tobytes() == expected.tobytes()
