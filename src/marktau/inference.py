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
come from Gaussian multiplier resampling holding the data fixed. Each kind's
maximum has one function, :func:`global_resample` or
:func:`constancy_resample`, of c * x^2 per draw: the resampled statistics
take the multiplier sums G with c = h / n, and the observed statistic is the
same maximum at a single draw, x = tau with c = n h. Given the data, the
multiplier sums G = draws @ xi of the n x g subject contributions xi are
exactly N(0, xi^T xi), and both resampled statistics read only G at the
usable grid points, so the resampler draws G directly from that grid-sized
covariance and no draw touches the n subjects. The covariance is built from
the estimator's per-arm kernel terms, which censored subjects (zero
contributions) do not enter. Grid points flagged by the estimator (or with a
zero variance estimate) are excluded from the maxima; constancy pairs with a
zero pair-variance are skipped with a diagnostic count rather than failing
the test.

Each test's multipliers come from its own seed: :func:`multiplier_draws`
gives one row of normals per seed, and a test over k usable points reads
the first B x k of its row. The block test :func:`_test_from_estimate`
takes the estimator's block of bandwidths, columns and kernel terms whole,
with one such row per replication, and returns arrays, one entry per
replication, which a simulation sweep reads directly; only :func:`run_test`
builds a :class:`TestResult`.
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
    "global_resample",
    "pair_variance_table",
    "constancy_resample",
    "critical_value",
    "p_value",
    "run_test",
]

TEST_KINDS = ("global", "constancy")
# Bytes of the temporaries of one chunk of constancy pairs.
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


def multiplier_draws(seeds, resamples: int, points: int) -> np.ndarray:
    """Standard normals of shape (len(seeds), resamples x points), row i from ``seeds[i]``.

    Row i is the first resamples x points normals of the generator seeded by
    ``seeds[i]``. A test over k <= points usable points reads the first
    resamples x k of them as a (resamples, k) matrix, which is exactly that
    generator's ``standard_normal((resamples, k))``, so the tests of one
    replication at several c3 points, with different usable-point counts,
    read prefixes of one row.
    """
    normals = np.empty((len(seeds), resamples * points))
    for seed, row in zip(seeds, normals):
        np.random.default_rng(seed).standard_normal(out=row)
    return normals


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


def _usable_points(flagged: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    return ~flagged & (sigma2 > 0.0)


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
    past the last grid point are dropped. The terms' values are stored
    offset-major, so ``values.T`` is contiguous and both factors of every
    diagonal are contiguous rows of it. No array is larger than the terms
    themselves.
    """
    curve, start, values, widths = terms
    w = values.shape[1]
    curves = widths.size
    columns = np.ascontiguousarray(values.T)
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


def global_resample(scale: np.ndarray, sigma2: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The global maximum over usable points of c * x^2 / sigma2, shape (R, draws).

    ``sums`` holds x for R replications, shape (R, draws, u), one column per
    usable point, studentized by the (R, u) sigma2(v); ``scale`` holds each
    replication's c. The resampled statistic takes the multiplier sums G,
    which replace n * tau(v), with c = h / n; the observed statistic is the
    same maximum at one draw, x = tau and c = n h. The work runs
    point-major, (u, R, draws), so that every operation streams whole rows
    of draws.
    """
    reps, draws, points = sums.shape
    if points == 0:
        raise InferenceError(
            "no usable grid points: every point is flagged or has a zero variance estimate")
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
    mask of those that are positive. A replication skips the others: they
    take a pair-variance of +inf, so they score +0.0, below no kept pair.
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
    return j_idx, k_idx, np.where(keep, zeta_pairs, np.inf), keep


def constancy_resample(scale: np.ndarray, sums: np.ndarray, pairs: tuple) -> np.ndarray:
    """The constancy maximum over kept pairs j < k of c * (x_j - x_k)^2 / zeta, (R, draws).

    ``sums`` and ``scale`` are as in :func:`global_resample`: the
    multiplier sums G with c = h / n for the resampled statistic, tau at one
    draw with c = n h for the observed one; pair differences are
    differences of their columns. The pair list is scored in chunks of
    consecutive pairs, for as many replications at once as fit, against
    every draw, into each replication's running maximum; a pair a
    replication skips scores +0.0. A chunk holds at most
    ``_PAIR_CHUNK_BYTES`` (or one pair of one replication) and no more
    pairs than the list, so memory grows with draws x points rather than
    draws x pairs.
    """
    j_idx, k_idx, zeta_pairs, _ = pairs
    reps, draws, points = sums.shape
    # point-major, so that a pair's two columns are rows of draws
    columns = sums.transpose(2, 0, 1).copy()
    factor = np.repeat(scale[:, None], draws, axis=1)
    zeta = zeta_pairs.T[:, :, None]
    result = np.full((reps, draws), -np.inf)
    rows = max(1, _PAIR_CHUNK_BYTES // (8 * draws))
    stack = min(reps, rows)
    width = min(j_idx.size, max(1, rows // stack))
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


def p_value(resampled: np.ndarray, statistic: float, add_one_correction: bool = False,
            ) -> float:
    """Proportion of one replication's resampled values at or above its statistic.

    With ``add_one_correction`` both numerator and denominator are
    increased by one, which keeps the p-value strictly positive.
    """
    resampled = np.asarray(resampled, dtype=float)
    count = np.count_nonzero(resampled >= statistic)
    if add_one_correction:
        return (count + 1) / (resampled.size + 1)
    return count / resampled.size


def _test_from_estimate(kind: str, block: tuple, normals: np.ndarray, *, alpha: float,
                        pi: float | None = None) -> tuple[np.ndarray, ...]:
    """The tests of a block of estimates on one grid, arrays in and arrays out.

    ``block`` is ``(bandwidths, columns, terms)`` of
    :func:`~marktau.estimator._estimate_block`, whole: each row's bandwidth
    h, its (R, g) ``tau``, ``sigma2`` and ``flagged`` columns, its arm sizes
    ``n0`` and ``n1`` and the kernel terms, which one :func:`arm_grams` pass
    turns into each row's control and treated Grams over the whole grid.
    Each row's treated fraction is its n1 / n, or ``pi`` for every row when
    a design fraction is given. ``normals`` holds each row's multipliers,
    shape (R, B g), from :func:`multiplier_draws`; a row over k usable
    points reads the first B k of its own as a (B, k) matrix. Rows with the
    same usable points form a group, tested as one stack, which the block's
    size bounds: each row's covariance takes its own arm scales, one
    ``eigh`` call factors the stack, one matmul gives every multiplier sum
    draws @ L^T, and the kind's maximum gives the whole stack's statistics,
    at tau as one draw, and its resampled values, constancy from one pair
    list. So each row gets the numbers a block of that row alone gives.

    Returns, per row, the statistic, the sorted resampled values (R, B),
    the critical value, the covariance rank and the skipped constancy
    pairs. The callers check ``kind`` and B.
    """
    bandwidths, columns, terms = block
    tau, sigma2 = columns["tau"], columns["sigma2"]
    grams = arm_grams(terms, tau.shape[1])
    del block, terms  # block-sized, and read no further than the Grams
    h = np.array([bw.h for bw in bandwidths])
    sizes = np.array([columns["n0"], columns["n1"]], dtype=np.int64).T
    n = sizes.sum(axis=1)
    nh, scale = n * h, h / n
    pi = ([n1 / (n0 + n1) for n0, n1 in zip(columns["n0"], columns["n1"])] if pi is None
          else [pi] * len(normals))
    resamples = normals.shape[1] // tau.shape[1]
    usable = _usable_points(columns["flagged"], sigma2)
    stat, crit = np.empty((2, len(normals)))
    resampled = np.empty((len(normals), resamples))
    rank, skipped = np.zeros((2, len(normals)), np.intp)
    groups: dict[bytes, list[int]] = {}
    for i, mask in enumerate(usable):
        groups.setdefault(mask.tobytes(), []).append(i)
    for rows in groups.values():
        cols = np.flatnonzero(usable[rows[0]])
        at = np.ix_(rows, cols)
        stack = grams[rows][:, :, cols][:, :, :, cols]
        factor, rank[rows] = covariance_factor(
            resampling_covariance(stack, [pi[i] for i in rows]))
        draws = normals[rows, :resamples * cols.size].reshape(len(rows), resamples, cols.size)
        sums = draws @ factor.swapaxes(1, 2)
        del draws
        if kind == "global":
            stat[rows] = global_resample(nh[rows], sigma2[at], tau[at][:, None])[:, 0]
            values = global_resample(scale[rows], sigma2[at], sums)
        else:
            pairs = _constancy_pairs(pair_variance_table(stack, nh[rows], sizes[rows]))
            stat[rows] = constancy_resample(nh[rows], tau[at][:, None], pairs)[:, 0]
            values = constancy_resample(scale[rows], sums, pairs)
            skipped[rows] = np.count_nonzero(~pairs[3], axis=1)
        del sums
        values.sort(axis=1)
        resampled[rows] = values
        crit[rows] = critical_value(values, alpha)
    return stat, resampled, crit, rank, skipped


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
    critical value. The estimate is tested as a block of one row by
    :func:`_test_from_estimate`; only here are the p-value, with
    ``add_one_correction`` if asked, and the excluded points computed and a
    :class:`TestResult` built.
    """
    _check_kind(kind)
    if pi_design is not None and not 0.0 < pi_design < 1.0:
        raise InferenceError(f"pi_design must be in (0,1), got {pi_design!r}")
    _check_resamples(resamples)
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InferenceError(f"seed must be >= 0, got {seed}")
    est, block = _estimate_with_terms(dataset, grid, alpha=alpha, bandwidth=bandwidth,
                                      varpi=varpi)
    stat, resampled, crit, rank, skipped = (
        row[0] for row in _test_from_estimate(
            kind, block, multiplier_draws([seed], resamples, grid.points.size), alpha=alpha,
            pi=pi_design))
    usable = _usable_points(est.flagged, est.sigma2)
    return TestResult(
        statistic=float(stat), critical_value=float(crit),
        p_value=float(p_value(resampled, stat, add_one_correction)), reject=bool(stat > crit),
        resampled=resampled, excluded_points=tuple(grid.points[~usable].tolist()),
        skipped_pairs=int(skipped), covariance_rank=int(rank), estimate=est,
    )
