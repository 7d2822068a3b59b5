"""Hypothesis tests for mark-specific effects via Gaussian multiplier resampling.

Two null hypotheses about the estimand of tau(v) on the evaluation grid,
the density-weighted contrast f1(v) mu1(v) - f0(v) mu0(v) smoothed at h,
with f_a the arm's mark density and mu_a(v) its mean failure time given
the mark v:

* global: it is 0 at every grid point;
* constancy: it does not vary with v (a flat, possibly nonzero, contrast).

Only where f1 = f0 does tau = 0 mean no effect on the mean failure time at
that mark; when treatment shifts the mark distribution, the global null can
hold or fail whatever the means do, and with a common density that is not
flat, a constant mean effect f (mu1 - mu0) is not a constant tau. Marks are
on [0, 1] after min-max scaling, which keeps each f_a integrating to one
there, so tau scales with the mark density on the scaled axis: a raw range
of width L multiplies the raw density by L.

Both statistics are maxima of studentized squares, and both critical values
come from Gaussian multiplier resampling holding the data fixed. Given the
data, the multiplier sums G = draws @ xi of the n x g subject contributions
xi are exactly N(0, xi^T xi), and both statistics read only G at the usable
grid points, so the resampler draws G directly from that grid-sized
covariance and no draw touches the n subjects. The covariance is built from
the estimator's per-arm kernel terms, which censored subjects (zero
contributions) do not enter. Grid points flagged by the estimator (or with a
zero variance estimate) are excluded from the maxima; constancy pairs with a
zero pair-variance are skipped with a diagnostic count rather than failing
the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .estimator import EstimateGrid, EvaluationGrid, _estimate_with_terms

__all__ = [
    "InferenceError",
    "TEST_KINDS",
    "TestResult",
    "multiplier_draws",
    "arm_grams",
    "resampling_covariance",
    "covariance_factor",
    "global_statistic",
    "global_resample",
    "pair_variance_table",
    "constancy_statistic",
    "constancy_resample",
    "critical_value",
    "p_value",
    "run_test",
]

TEST_KINDS = ("global", "constancy")


class InferenceError(ValueError):
    """Invalid test configuration or a grid unusable for the requested test."""


@dataclass(frozen=True, eq=False)
class TestResult:
    """Observed statistic, resampling reference, and the accept/reject call.

    ``resampled`` holds the sorted resampled statistics. ``excluded_points``
    are grid values left out of the maxima (no events in the kernel window,
    or a zero variance estimate); ``skipped_pairs`` counts constancy pairs
    dropped for a zero pair-variance; ``covariance_rank`` is the numerical
    rank of the resampling covariance over the usable points.
    """

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    resampled: np.ndarray
    excluded_points: tuple[float, ...]
    skipped_pairs: int
    covariance_rank: int
    estimate: EstimateGrid


def multiplier_draws(est: EstimateGrid, resamples: int, seed) -> np.ndarray:
    """Standard normals Z of shape (resamples, usable points), one stream.

    The whole matrix comes from one generator seeded by ``seed`` (an integer
    or a SeedSequence); draws are never scheduled in parallel.
    """
    _check_resamples(resamples)
    points = int(np.count_nonzero(_usable_points(est)))
    return np.random.default_rng(seed).standard_normal((resamples, points))


def _check_kind(kind: str) -> None:
    if kind not in TEST_KINDS:
        raise InferenceError(f"unknown test kind {kind!r}; expected one of {TEST_KINDS}")


def _check_resamples(resamples: int) -> None:
    if resamples < 1:
        raise InferenceError(f"resamples must be >= 1, got {resamples}")


def _arm_scales(pi: float) -> tuple[float, float]:
    """Contribution scales (control, treated): -1 / (1 - pi) and 1 / pi."""
    if not 0.0 < pi < 1.0:
        raise InferenceError(f"treated fraction must be in (0,1), got {pi!r}")
    return -1.0 / (1.0 - pi), 1.0 / pi


def _usable_points(est: EstimateGrid) -> np.ndarray:
    return ~est.flagged & (est.sigma2 > 0.0)


def arm_grams(terms: tuple, g: int) -> np.ndarray:
    """Gram matrices of every (row, arm) curve of a block, shape (rows, 2, g, g).

    ``terms`` are the windowed kernel terms ``(curve, start, values,
    widths)`` of :func:`~marktau.estimator._estimate_block`; entry (j, k) of
    a curve's Gram is the sum over its failures of theta_i(v_j) *
    theta_i(v_k). Points more than a window apart share no failure, so each
    Gram is banded: diagonal d holds, for every failure and window offset
    i < w - d, the product of its terms at offsets i and i + d, summed onto
    bin (curve, start + i) by one ``np.bincount`` for the whole block. Each
    bin adds its products offset by offset, in record order within an
    offset; a curve narrower than the block's widest window w reads exact
    zeros past its own width, which leave every sum as it was, and bins
    past the last grid point are dropped. No array is larger than the terms
    themselves.
    """
    curve, start, values, widths = terms
    w = values.shape[1]
    curves = widths.size
    # offset-major, so that both factors of every diagonal are contiguous
    columns = values.T.copy()
    # g + w bins per curve: its grid points, then those a clamped window overruns
    bins = start + (g + w) * curve + np.arange(w)[:, None]
    grams = np.zeros((curves, g, g))
    flat = grams.reshape(curves, g * g)
    for d in range(w):
        band = np.bincount(bins[:w - d].ravel(),
                           weights=(columns[:w - d] * columns[d:]).ravel(),
                           minlength=curves * (g + w)).reshape(curves, g + w)[:, :g - d]
        flat[:, d::g + 1][:, :g - d] = band  # entries (p, p + d)
        flat[:, d * g::g + 1] = band  # entries (p + d, p)
    return grams.reshape(curves // 2, 2, g, g)


def resampling_covariance(grams: tuple[np.ndarray, np.ndarray], pi: float) -> np.ndarray:
    """xi^T xi over the usable points: the sum over arms of s_a^2 Gram_a.

    Row i of xi is theta_i / pi for a treated subject and -theta_i / (1 - pi)
    for a control, so that sum_i xi_i / n reproduces the treatment contrast
    of group means.
    """
    s0, s1 = _arm_scales(pi)
    return s0**2 * grams[0] + s1**2 * grams[1]


def covariance_factor(cov: np.ndarray) -> tuple[np.ndarray, int]:
    """L with L L^T = cov, by an eigendecomposition clipped at zero, and the rank.

    Cholesky would fail here: the covariance is often singular, since grid
    points with identical contributions give identical columns. The rank
    counts eigenvalues above eps * max eigenvalue * dimension.
    """
    w, u = np.linalg.eigh(cov)
    tol = np.finfo(float).eps * w.max(initial=0.0) * w.size
    return u * np.sqrt(np.clip(w, 0.0, None)), int(np.count_nonzero(w > tol))


def global_statistic(est: EstimateGrid) -> float:
    """max over usable grid points of (n h) * tau(v)^2 / sigma2(v)."""
    usable = _usable_points(est)
    if not np.any(usable):
        raise InferenceError("no usable grid points: every point is flagged")
    values = est.nh * est.tau[usable] ** 2 / est.sigma2[usable]
    return float(np.max(values))


def global_resample(est: EstimateGrid, draws: np.ndarray) -> np.ndarray:
    """Resampled analogue of the global statistic, one value per draw.

    ``draws`` holds the multiplier sums G, one row per draw and one column
    per usable point; each replaces n * tau(v) and is studentized by the
    same sigma2(v).
    """
    scaled = (est.h / est.n) * draws**2 / est.sigma2[_usable_points(est)]
    return scaled.max(axis=1)


def pair_variance_table(grams: tuple[np.ndarray, np.ndarray], est: EstimateGrid,
                        ) -> np.ndarray:
    """Variance estimates for sqrt(n h) * (tau(v1) - tau(v2)), all usable pairs.

    Entry (j, k) is (n h) * sum over arms of n_a^(-2) * sum_i of
    (theta_i(v_j) - theta_i(v_k))^2, computed from the per-arm Gram matrices
    of :func:`arm_grams` over the usable points.
    """
    table = np.zeros_like(grams[0])
    for gram, n_a in zip(grams, (est.n0, est.n1)):
        diag = np.diag(gram)
        table += (diag[:, None] + diag[None, :] - 2.0 * gram) / n_a**2
    return est.nh * table


def _constancy_pairs(est: EstimateGrid, zeta: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Index pairs (j < k) of usable points with positive pair-variance, by j then k.

    Indices count usable points only, as the rows of ``zeta`` and the
    columns of the resampling draws do. Returns the kept pairs, their
    pair-variances and the number of pairs skipped for a zero one.
    """
    usable = int(np.count_nonzero(_usable_points(est)))
    if usable < 2:
        raise InferenceError(
            f"constancy test needs at least 2 usable grid points, got {usable}"
        )
    j_idx, k_idx = np.triu_indices(usable, k=1)
    zeta_pairs = zeta[j_idx, k_idx]
    keep = zeta_pairs > 0.0
    skipped = int(np.count_nonzero(~keep))
    if not np.any(keep):
        raise InferenceError("every constancy pair has zero pair-variance")
    return j_idx[keep], k_idx[keep], zeta_pairs[keep], skipped


def constancy_statistic(est: EstimateGrid, pairs: tuple) -> float:
    """max over usable pairs v1 < v2 of (n h) * (tau(v1) - tau(v2))^2 / zeta.

    ``pairs`` is the result of :func:`_constancy_pairs`.
    """
    j_idx, k_idx, zeta_pairs, _ = pairs
    tau = est.tau[_usable_points(est)]
    diffs = tau[j_idx] - tau[k_idx]
    return float(np.max(est.nh * diffs**2 / zeta_pairs))


def constancy_resample(est: EstimateGrid, draws: np.ndarray, pairs: tuple) -> np.ndarray:
    """Resampled analogue of the constancy statistic, one value per draw.

    ``draws`` are the multiplier sums as in :func:`global_resample`; pair
    differences are differences of their columns. The pairs are scored one
    anchor point j at a time, (j, k > j) against every draw, into a running
    maximum, so memory grows with draws x points rather than draws x pairs.
    """
    j_idx, k_idx, zeta_pairs, _ = pairs
    columns = draws.T.copy()
    result = np.full(draws.shape[0], -np.inf)
    bounds = np.searchsorted(j_idx, np.arange(columns.shape[0] + 1))
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo == hi:
            continue
        diffs = columns[j] - columns[k_idx[lo:hi]]
        scaled = (est.h / est.n) * diffs**2 / zeta_pairs[lo:hi, None]
        np.maximum(result, scaled.max(axis=0), out=result)
    return result


def critical_value(resampled: np.ndarray, alpha: float) -> float:
    """The k-th smallest resampled value with k = ceil((1 - alpha) * B).

    With B = 5000 and alpha = 0.05 this is the 4750th order statistic. The
    product is rounded at the 9th decimal before the ceiling so that binary
    float noise cannot shift the order-statistic index.
    """
    if not 0.0 < alpha < 1.0:
        raise InferenceError(f"alpha must be in (0,1), got {alpha!r}")
    values = np.sort(np.asarray(resampled, dtype=float))
    if values.size == 0:
        raise InferenceError("no resampled values")
    k = math.ceil(round((1.0 - alpha) * values.size, 9))
    k = min(max(k, 1), values.size)
    return float(values[k - 1])


def p_value(resampled: np.ndarray, statistic: float, add_one_correction: bool = False,
            ) -> float:
    """Proportion of resampled values at or above the observed statistic.

    With ``add_one_correction`` both numerator and denominator are increased
    by one, which keeps the p-value strictly positive.
    """
    resampled = np.asarray(resampled, dtype=float)
    count = int(np.count_nonzero(resampled >= statistic))
    if add_one_correction:
        return (count + 1) / (resampled.size + 1)
    return count / resampled.size


def _test_from_estimate(kind: str, est: EstimateGrid, grams: np.ndarray, draws: np.ndarray,
                        *, alpha: float, pi_design: float | None = None,
                        add_one_correction: bool = False) -> TestResult:
    """Test from an estimate, its arms' Grams and standard normal ``draws``.

    ``grams`` is the estimate's (2, g, g) control and treated Grams from
    :func:`arm_grams`, over the whole grid; ``draws`` come from
    :func:`multiplier_draws`. The multiplier sums are draws @ L^T with
    L L^T the resampling covariance.
    """
    _check_kind(kind)
    pi = pi_design if pi_design is not None else est.n1 / est.n
    usable = _usable_points(est)
    grams = grams[:, usable][:, :, usable]
    factor, rank = covariance_factor(resampling_covariance(grams, pi))
    sums = draws @ factor.T
    skipped_pairs = 0
    if kind == "global":
        stat = global_statistic(est)
        resampled = global_resample(est, sums)
    else:
        pairs = _constancy_pairs(est, pair_variance_table(grams, est))
        stat = constancy_statistic(est, pairs)
        resampled = constancy_resample(est, sums, pairs)
        skipped_pairs = pairs[3]
    resampled = np.sort(resampled)
    crit = critical_value(resampled, alpha)
    pval = p_value(resampled, stat, add_one_correction)
    excluded = tuple(float(v) for v in est.points[~usable])
    return TestResult(
        statistic=stat, critical_value=crit, p_value=pval,
        reject=stat > crit, resampled=resampled,
        excluded_points=excluded, skipped_pairs=skipped_pairs, covariance_rank=rank,
        estimate=est,
    )


def run_test(kind: str, dataset: Dataset, grid: EvaluationGrid, *, resamples: int = 500,
             alpha: float = 0.05, seed: int = 0, bandwidth: float | None = None,
             varpi: float = 1.0, pi_design: float | None = None,
             add_one_correction: bool = False) -> TestResult:
    """Run one test end to end: estimate, resample, compare, report.

    ``bandwidth`` and ``varpi`` select the estimate's bandwidth as in
    :func:`~marktau.estimator.estimate_on_grid`. ``pi_design`` optionally
    replaces the empirical treated fraction in the resampling weights with
    the design randomization probability. Deterministic given the data and
    settings: the multiplier draws derive from ``seed`` alone. The null is
    rejected when the observed statistic exceeds the (1 - alpha) resampling
    critical value.
    """
    _check_kind(kind)
    if pi_design is not None and not 0.0 < pi_design < 1.0:
        raise InferenceError(f"pi_design must be in (0,1), got {pi_design!r}")
    est, terms = _estimate_with_terms(dataset, grid, alpha=alpha, bandwidth=bandwidth,
                                      varpi=varpi)
    draws = multiplier_draws(est, resamples, seed)
    return _test_from_estimate(kind, est, arm_grams(terms, grid.points.size)[0], draws,
                               alpha=alpha, pi_design=pi_design,
                               add_one_correction=add_one_correction)
