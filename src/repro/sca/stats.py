"""Correlation statistics: vectorized Pearson and Fisher-z inference.

Pearson's correlation between a leakage model and measured power is the
paper's side-channel distinguisher (citing Bruneau et al. for its
optimality under Gaussian noise).  Significance testing uses the Fisher
z-transform: ``atanh(r)`` is approximately normal with standard error
``1/sqrt(N-3)`` under the null of zero correlation.

:func:`prefix_pearson_corr` is the prefix-incremental form: one pass
over the trace matrix yields the correlation at *every* requested trace
budget from cumulative cross-moments, replacing recompute-from-scratch
loops in success-curve-style evaluations.

The normal-distribution functions :func:`ndtr` and :func:`ndtri` are
scalar ports of the Cephes routines ``scipy.special`` (and so scipy's
``norm``) evaluates: the same rational approximations, evaluated in the
same order with stdlib ``math``, so every verdict is bit-equal to the
``norm`` calls and no process imports scipy to compute one.
"""

from __future__ import annotations

import math

import numpy as np


def normalize_budgets(budgets, n_traces: int) -> np.ndarray:
    """Validate a strictly-increasing budget list against a campaign size."""
    array = np.asarray(list(budgets), dtype=np.int64)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("budgets must be a non-empty 1-D sequence")
    if array[0] <= 0 or array[-1] > n_traces:
        raise ValueError(
            f"budgets must lie in [1, {n_traces}], got {array[0]}..{array[-1]}"
        )
    if np.any(np.diff(array) <= 0):
        raise ValueError("budgets must be strictly increasing")
    return array


def scrub_corr(corr: np.ndarray) -> np.ndarray:
    """Zero the non-finite correlations and clip to [-1, 1], in place.

    Equal to ``np.clip(np.nan_to_num(corr, nan=0, posinf=0, neginf=0),
    -1, 1)`` (signed zeros included) without the two full-size copies.
    Returns ``corr``.
    """
    corr[~np.isfinite(corr)] = 0.0
    return np.clip(corr, -1.0, 1.0, out=corr)


def _finish_corr(comoment, sum_x, sum_y, sq_x, sq_y, n: int) -> np.ndarray:
    """Pearson correlation from cumulative (shifted) raw cross-moments,
    with the same division/clipping discipline as :func:`pearson_corr`."""
    cov = comoment - np.outer(sum_x, sum_y) / n
    var_x = np.clip(sq_x - sum_x**2 / n, 0.0, None)
    var_y = np.clip(sq_y - sum_y**2 / n, 0.0, None)
    denominator = np.sqrt(np.outer(var_x, var_y))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = cov / denominator
    return scrub_corr(corr)


def prefix_pearson_corr(models, traces, budgets) -> np.ndarray:
    """Correlations at every prefix budget from one streaming pass.

    ``models``: ``[n_traces]`` or ``[n_traces, n_models]``; ``traces``:
    ``[n_traces, n_samples]``; ``budgets``: strictly increasing trace
    counts.  Returns ``[n_budgets, n_models, n_samples]`` (or
    ``[n_budgets, n_samples]`` for a single model) where entry ``b``
    equals ``pearson_corr(models[:budgets[b]], traces[:budgets[b]])``
    within ~1e-12.

    Cross-moments accumulate segment by segment on globally centered
    data (correlation is shift-invariant, so centering once costs
    nothing and keeps the raw-moment cancellation harmless), and each
    budget snapshot only pays the finishing division — the pass is
    O(max(budgets)) instead of O(sum(budgets)).
    """
    single = models.ndim == 1
    x = models.reshape(models.shape[0], -1).astype(np.float64)
    y = np.asarray(traces, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"trace count mismatch: {x.shape[0]} vs {y.shape[0]}")
    budgets = normalize_budgets(budgets, x.shape[0])
    x = x - x.mean(axis=0, keepdims=True)
    y = y - y.mean(axis=0, keepdims=True)
    n_models, n_samples = x.shape[1], y.shape[1]
    sum_x = np.zeros(n_models)
    sum_y = np.zeros(n_samples)
    sq_x = np.zeros(n_models)
    sq_y = np.zeros(n_samples)
    comoment = np.zeros((n_models, n_samples))
    out = np.empty((budgets.size, n_models, n_samples))
    previous = 0
    for i, budget in enumerate(budgets):
        xs, ys = x[previous:budget], y[previous:budget]
        sum_x += xs.sum(axis=0)
        sum_y += ys.sum(axis=0)
        sq_x += (xs * xs).sum(axis=0)
        sq_y += (ys * ys).sum(axis=0)
        comoment += xs.T @ ys
        previous = int(budget)
        out[i] = _finish_corr(comoment, sum_x, sum_y, sq_x, sq_y, previous)
    return out[:, 0, :] if single else out


def pearson_corr(models: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Correlation of each model column with each trace sample.

    ``models``: ``[n_traces]`` or ``[n_traces, n_models]``;
    ``traces``: ``[n_traces, n_samples]``.
    Returns ``[n_models, n_samples]`` (or ``[n_samples]`` for a single
    model).  Zero-variance models or samples yield correlation 0.
    """
    single = models.ndim == 1
    m = models.reshape(models.shape[0], -1).astype(np.float64)
    t = traces.astype(np.float64)
    if m.shape[0] != t.shape[0]:
        raise ValueError(f"trace count mismatch: {m.shape[0]} vs {t.shape[0]}")
    mc = m - m.mean(axis=0, keepdims=True)
    tc = t - t.mean(axis=0, keepdims=True)
    m_norm = np.sqrt((mc**2).sum(axis=0))
    t_norm = np.sqrt((tc**2).sum(axis=0))
    denominator = np.outer(m_norm, t_norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (mc.T @ tc) / denominator
    scrub_corr(corr)
    return corr[0] if single else corr


# -- the standard normal CDF and its inverse (Cephes ndtr.c / ndtri.c) ----
#
# Coefficients and evaluation order follow Cephes exactly; changing
# either moves the last bit of ``cpa_margin`` (``math.erfc`` and
# ``statistics.NormalDist.cdf`` do, on about one point in three).

_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
#: ``exp(x)`` underflows below ``-MAXLOG``
_MAXLOG = 7.09782712893383996843e2

_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
#: ``sqrt(1/2)``, ``sqrt(2 pi)`` and ``exp(-2)``
_SQRT1_2 = 7.07106781186547524401e-1
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation, highest coefficient first (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """``polevl`` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = (z * _polevl(x, _ERFC_P)) / _p1evl(x, _ERFC_Q)
    else:
        y = (z * _polevl(x, _ERFC_R)) / _p1evl(x, _ERFC_S)
    if a < 0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0


def ndtr(a: float) -> float:
    """Standard normal CDF, bit-equal to ``scipy.special.ndtr``."""
    a = float(a)
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y



def ndtri(y0: float) -> float:
    """Inverse standard normal CDF, bit-equal to ``scipy.special.ndtri``."""
    y0 = float(y0)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    lower = True
    y = y0
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        lower = False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if lower else x


def significance_threshold(n_traces: int, confidence: float = 0.995) -> float:
    """|r| above which a correlation is nonzero at the given confidence.

    Two-sided test via the Fisher z-transform (the paper's Table-2
    criterion uses confidence > 99.5%).
    """
    if n_traces <= 3:
        return 1.0
    alpha = 1.0 - confidence
    z_crit = ndtri(1.0 - alpha / 2.0)
    return float(np.tanh(z_crit / np.sqrt(n_traces - 3)))


def correlation_significant(
    r: float | np.ndarray, n_traces: int, confidence: float = 0.995
) -> bool | np.ndarray:
    """Is the correlation distinguishable from zero at this confidence?"""
    threshold = significance_threshold(n_traces, confidence)
    result = np.abs(r) > threshold
    return bool(result) if np.isscalar(r) else result


def fisher_confidence(r: float, n_traces: int) -> float:
    """Confidence (two-sided) that the true correlation is nonzero."""
    if n_traces <= 3:
        return 0.0
    z = np.arctanh(np.clip(abs(r), 0.0, 0.999999)) * np.sqrt(n_traces - 3)
    return float(1.0 - 2.0 * ndtr(-z))


def fisher_difference_confidence(r1: float, r2: float, n_traces: int) -> float:
    """Confidence that correlation ``r1`` exceeds ``r2``.

    Uses the Fisher z-difference with an independence approximation (the
    two correlations share the same traces, which makes this slightly
    conservative for positively-correlated competitors).
    """
    if n_traces <= 3:
        return 0.0
    z1 = np.arctanh(np.clip(r1, -0.999999, 0.999999))
    z2 = np.arctanh(np.clip(r2, -0.999999, 0.999999))
    z = (z1 - z2) * np.sqrt((n_traces - 3) / 2.0)
    return float(ndtr(z))
