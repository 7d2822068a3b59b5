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
# Bytes of multiplier draws that one stack of a block's tests holds at once,
# and of the temporaries of one chunk of constancy pairs.
_STACK_BYTES = 1 << 23
_PAIR_CHUNK_BYTES = 1 << 19


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


class _MultiplierStream:
    """The multiplier normals of one seed, drawn only as far as its tests read them.

    A generator's ``standard_normal((B, k))`` is the first B k values of its
    flat stream, so the tests of one replication at several c3 points, with
    different usable-point counts, all read prefixes of one draw. The stream
    holds what it has drawn and extends it when a test reads further.
    """

    def __init__(self, seed) -> None:
        self._rng = np.random.default_rng(seed)
        self._drawn = np.empty(0)

    def first(self, count: int) -> np.ndarray:
        """The first ``count`` normals of the stream."""
        more = count - self._drawn.size
        if more > 0:
            extra = self._rng.standard_normal(more)
            self._drawn = np.concatenate((self._drawn, extra)) if self._drawn.size else extra
        return self._drawn[:count]


def multiplier_draws(points: int, resamples: int, stream: _MultiplierStream) -> np.ndarray:
    """Standard normals Z of shape (resamples, points), from one stream.

    ``points`` counts the test's usable points. Z is always the first
    resamples x points normals of ``stream``, whose earlier reads, by a
    replication's other tests, this one shares; draws are never scheduled in
    parallel.
    """
    return stream.first(resamples * points).reshape(resamples, points)


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


def resampling_covariance(grams: np.ndarray, pi) -> np.ndarray:
    """xi^T xi over the usable points of a stack: per replication, sum over arms of s_a^2 Gram_a.

    ``grams`` holds each replication's (control, treated) Grams, shape
    (R, 2, u, u), and ``pi`` its R treated fractions. Row i of xi is
    theta_i / pi for a treated subject and -theta_i / (1 - pi) for a
    control, so that sum_i xi_i / n reproduces the treatment contrast of
    group means.
    """
    squares = np.array([[s0**2, s1**2] for s0, s1 in map(_arm_scales, pi)])
    return (squares[:, 0, None, None] * grams[:, 0]
            + squares[:, 1, None, None] * grams[:, 1])


def covariance_factor(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L with L L^T = cov, by an eigendecomposition clipped at zero, and the rank.

    ``cov`` is one (u, u) covariance or a stack of them, shape (R, u, u);
    one ``eigh`` call factors the whole stack, and each matrix gets the
    numbers a call on it alone gives. Cholesky would fail here: the
    covariance is often singular, since grid points with identical
    contributions give identical columns. The rank counts eigenvalues above
    eps * max eigenvalue * dimension.
    """
    w, u = np.linalg.eigh(cov)
    tol = np.finfo(float).eps * w.max(axis=-1, initial=0.0) * w.shape[-1]
    rank = np.count_nonzero(w > np.expand_dims(tol, -1), axis=-1)
    return u * np.sqrt(np.clip(w, 0.0, None))[..., None, :], rank


def global_statistic(nh: np.ndarray, tau: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """max over usable grid points of (n h) * tau(v)^2 / sigma2(v), per replication.

    ``nh`` holds the R replications' n h; ``tau`` and ``sigma2`` are (R, u)
    over their usable points.
    """
    if tau.shape[1] == 0:
        raise InferenceError("no usable grid points: every point is flagged")
    return (nh[:, None] * tau**2 / sigma2).max(axis=1)


def global_resample(scale: np.ndarray, sigma2: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Resampled analogue of the global statistic, shape (R, draws).

    ``sums`` holds the multiplier sums G of R replications, shape (R, draws,
    u), one column per usable point; each replaces n * tau(v) and is
    studentized by the same sigma2(v), (R, u). ``scale`` is each
    replication's h / n. The work runs point-major, (u, R, draws), so that
    every operation streams whole rows of draws.
    """
    reps, draws, points = sums.shape
    scaled = np.square(sums.transpose(2, 0, 1), out=np.empty((points, reps, draws)))
    np.multiply(np.repeat(scale[:, None], draws, axis=1), scaled, out=scaled)
    np.divide(scaled, sigma2.T[:, :, None], out=scaled)
    return scaled.max(axis=0)


def pair_variance_table(grams: np.ndarray, nh: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Variance estimates for sqrt(n h) * (tau(v1) - tau(v2)), all usable pairs.

    For each of R replications, entry (j, k) is (n h) * sum over arms of
    n_a^(-2) * sum_i of (theta_i(v_j) - theta_i(v_k))^2, computed from the
    (R, 2, u, u) per-arm Gram matrices of :func:`arm_grams` over the usable
    points and the (R, 2) integer arm sizes (n0, n1).
    """
    table = np.zeros_like(grams[:, 0])
    for a in (0, 1):
        gram = grams[:, a]
        diag = np.diagonal(gram, axis1=1, axis2=2)
        table += (diag[:, :, None] + diag[:, None, :] - 2.0 * gram) / (
            sizes[:, a, None, None] ** 2)
    return nh[:, None, None] * table


def _constancy_pairs(zeta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index pairs (j < k) of usable points, by j then k, and which each replication keeps.

    ``zeta`` is the (R, u, u) stack of :func:`pair_variance_table`. Indices
    count usable points only, as the columns of the resampling draws do.
    Returns the pairs, their (R, pairs) pair-variances and the (R, pairs)
    mask of those that are positive; a replication skips the others.
    """
    usable = zeta.shape[-1]
    if usable < 2:
        raise InferenceError(
            f"constancy test needs at least 2 usable grid points, got {usable}"
        )
    j_idx, k_idx = np.triu_indices(usable, k=1)
    zeta_pairs = zeta[:, j_idx, k_idx]
    keep = zeta_pairs > 0.0
    if not keep.any(axis=1).all():
        raise InferenceError("every constancy pair has zero pair-variance")
    return j_idx, k_idx, zeta_pairs, keep


def constancy_statistic(nh: np.ndarray, tau: np.ndarray, pairs: tuple) -> np.ndarray:
    """max over kept pairs v1 < v2 of (n h) * (tau(v1) - tau(v2))^2 / zeta, per replication.

    ``tau`` is (R, u) over the usable points and ``pairs`` the result of
    :func:`_constancy_pairs`.
    """
    j_idx, k_idx, zeta_pairs, keep = pairs
    diffs = tau[:, j_idx] - tau[:, k_idx]
    scaled = np.divide(nh[:, None] * diffs**2, zeta_pairs, where=keep,
                       out=np.full(zeta_pairs.shape, -np.inf))
    return scaled.max(axis=1)


def constancy_resample(scale: np.ndarray, sums: np.ndarray, pairs: tuple) -> np.ndarray:
    """Resampled analogue of the constancy statistic, shape (R, draws).

    ``sums`` and ``scale`` are as in :func:`global_resample`; pair
    differences are differences of their columns. The pair list is scored
    in chunks of consecutive pairs, for as many replications at once as fit,
    (h / n) * diff^2 / zeta against every draw, into each replication's
    running maximum; a pair a replication skips scores -inf. A chunk holds
    at most ``_PAIR_CHUNK_BYTES`` (or one pair of one replication), so
    memory grows with draws x points rather than draws x pairs.
    """
    j_idx, k_idx, zeta_pairs, keep = pairs
    reps, draws, points = sums.shape
    # point-major, so that a pair's two columns are rows of draws
    columns = sums.transpose(2, 0, 1).copy()
    factor = np.repeat(scale[:, None], draws, axis=1)
    zeta = np.where(keep, zeta_pairs, 1.0).T[:, :, None]
    skip = ~keep.T
    skips = bool(skip.any())
    result = np.full((reps, draws), -np.inf)
    rows = max(1, _PAIR_CHUNK_BYTES // (8 * draws))
    stack = min(reps, rows)
    width = max(1, rows // stack)
    # anchor point j's pairs (j, k > j) run from first[j] in k order
    first = np.searchsorted(j_idx, np.arange(points + 1))
    chunk = np.empty((width, stack, draws))
    for r0 in range(0, reps, stack):
        r = slice(r0, r0 + stack)
        for p0 in range(0, j_idx.size, width):
            p1 = min(p0 + width, j_idx.size)
            scaled = chunk[:p1 - p0, :min(stack, reps - r0)]
            for j in range(j_idx[p0], j_idx[p1 - 1] + 1):
                lo, hi = max(p0, first[j]), min(p1, first[j + 1])
                np.subtract(columns[j, r], columns[k_idx[lo]:k_idx[lo] + hi - lo, r],
                            out=scaled[lo - p0:hi - p0])
            np.square(scaled, out=scaled)
            np.multiply(factor[r], scaled, out=scaled)
            np.divide(scaled, zeta[p0:p1, r], out=scaled)
            if skips:
                scaled[skip[p0:p1, r]] = -np.inf
            np.maximum(result[r], scaled.max(axis=0), out=result[r])
    return result


def critical_value(resampled: np.ndarray, alpha: float) -> np.ndarray:
    """The k-th smallest resampled value with k = ceil((1 - alpha) * B).

    ``resampled`` is one replication's B values or a stack of them along the
    last axis. With B = 5000 and alpha = 0.05 this is the 4750th order
    statistic. The product is rounded at the 9th decimal before the ceiling
    so that binary float noise cannot shift the order-statistic index.
    """
    if not 0.0 < alpha < 1.0:
        raise InferenceError(f"alpha must be in (0,1), got {alpha!r}")
    values = np.sort(np.asarray(resampled, dtype=float), axis=-1)
    size = values.shape[-1]
    if size == 0:
        raise InferenceError("no resampled values")
    k = math.ceil(round((1.0 - alpha) * size, 9))
    k = min(max(k, 1), size)
    return values[..., k - 1]


def p_value(resampled: np.ndarray, statistic, add_one_correction: bool = False,
            ) -> np.ndarray:
    """Proportion of resampled values at or above the observed statistic.

    ``resampled`` is one replication's values or a stack of them along the
    last axis, with one statistic each. With ``add_one_correction`` both
    numerator and denominator are increased by one, which keeps the p-value
    strictly positive.
    """
    resampled = np.asarray(resampled, dtype=float)
    count = np.count_nonzero(resampled >= np.expand_dims(statistic, -1), axis=-1)
    size = resampled.shape[-1]
    if add_one_correction:
        return (count + 1) / (size + 1)
    return count / size


def _test_from_estimate(kind: str, ests: list[EstimateGrid], grams: np.ndarray, streams: list,
                        *, resamples: int, alpha: float, pi_design: float | None = None,
                        add_one_correction: bool = False) -> list[TestResult]:
    """Tests of a block of estimates on one grid, each from its Grams and multiplier stream.

    ``grams`` holds each estimate's control and treated Grams from
    :func:`arm_grams` over the whole grid, shape (R, 2, g, g); estimate i
    draws its multipliers with :func:`multiplier_draws` from ``streams[i]``,
    which the replication's other tests read too. Estimates with the same
    usable points form a group, tested in stacks of at most ``_STACK_BYTES``
    of draws by :func:`_stacked_tests`; each result is the one a block of
    that estimate alone gives. The callers check ``kind`` and ``resamples``.
    """
    usable = [_usable_points(est) for est in ests]
    groups: dict[bytes, list[int]] = {}
    for i, mask in enumerate(usable):
        groups.setdefault(mask.tobytes(), []).append(i)
    results: list = [None] * len(ests)
    for members in groups.values():
        mask = usable[members[0]]
        size = max(1, _STACK_BYTES // (8 * resamples * max(int(np.count_nonzero(mask)), 1)))
        for lo in range(0, len(members), size):
            stack = members[lo:lo + size]
            tested = _stacked_tests(kind, [ests[i] for i in stack], grams[stack],
                                    [streams[i] for i in stack], mask, resamples=resamples,
                                    alpha=alpha, pi_design=pi_design,
                                    add_one_correction=add_one_correction)
            for i, result in zip(stack, tested):
                results[i] = result
    return results


def _stacked_tests(kind: str, ests: list[EstimateGrid], grams: np.ndarray, streams: list,
                   mask: np.ndarray, *, resamples: int, alpha: float, pi_design: float | None,
                   add_one_correction: bool) -> list[TestResult]:
    """The tests of estimates whose usable points are all ``mask``, as one stack.

    Each estimate's covariance takes its own arm scales; one ``eigh`` call
    factors them all, one matmul gives every multiplier sum draws @ L^T,
    and each statistic and resampled maximum is computed for the whole
    stack, constancy from one pair list.
    """
    cols = np.flatnonzero(mask)
    grams = grams[:, :, cols][:, :, :, cols]
    nh = np.array([est.nh for est in ests])
    scale = np.array([est.h / est.n for est in ests])
    tau = np.array([est.tau[mask] for est in ests])
    pi = [pi_design if pi_design is not None else est.n1 / est.n for est in ests]
    factor, rank = covariance_factor(resampling_covariance(grams, pi))
    draws = np.empty((len(ests), resamples, cols.size))
    for row, stream in enumerate(streams):
        draws[row] = multiplier_draws(cols.size, resamples, stream)
    sums = draws @ factor.swapaxes(1, 2)
    del draws
    if kind == "global":
        sigma2 = np.array([est.sigma2[mask] for est in ests])
        stat = global_statistic(nh, tau, sigma2)
        resampled = global_resample(scale, sigma2, sums)
        skipped = np.zeros(len(ests), np.intp)
    else:
        sizes = np.array([(est.n0, est.n1) for est in ests], dtype=np.int64)
        pairs = _constancy_pairs(pair_variance_table(grams, nh, sizes))
        stat = constancy_statistic(nh, tau, pairs)
        resampled = constancy_resample(scale, sums, pairs)
        skipped = np.count_nonzero(~pairs[3], axis=1)
    del sums
    resampled.sort(axis=1)
    crit = critical_value(resampled, alpha)
    pval = p_value(resampled, stat, add_one_correction)
    excluded = tuple(float(v) for v in ests[0].points[~mask])
    return [
        TestResult(
            statistic=float(stat[row]), critical_value=float(crit[row]),
            p_value=float(pval[row]), reject=bool(stat[row] > crit[row]),
            resampled=resampled[row], excluded_points=excluded,
            skipped_pairs=int(skipped[row]), covariance_rank=int(rank[row]), estimate=est,
        )
        for row, est in enumerate(ests)
    ]


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
    critical value. This is the block test of :func:`_test_from_estimate` on
    a block of one estimate.
    """
    _check_kind(kind)
    if pi_design is not None and not 0.0 < pi_design < 1.0:
        raise InferenceError(f"pi_design must be in (0,1), got {pi_design!r}")
    _check_resamples(resamples)
    est, terms = _estimate_with_terms(dataset, grid, alpha=alpha, bandwidth=bandwidth,
                                      varpi=varpi)
    return _test_from_estimate(kind, [est], arm_grams(terms, grid.points.size),
                               [_MultiplierStream(seed)], resamples=resamples, alpha=alpha,
                               pi_design=pi_design, add_one_correction=add_one_correction)[0]
