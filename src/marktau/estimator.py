"""IPCW kernel estimation of mark-specific treatment effects on a mark grid.

For arm a the estimator is

    tau_a(v) = (1/n_a) * sum over arm-a subjects of
               delta_i * (y_i / S_a(y_i)) * K_h(mark_i - v)

where S_a is the arm's censoring survival curve evaluated left-continuously
and K_h is the scaled Epanechnikov kernel. It estimates the kernel-smoothed
E[T(a) K_h(V(a) - v)] of the arm's failure time T(a) and mark V(a). As h
shrinks this tends to f_a(v) * mu_a(v), the arm's mark density at v times
its mean failure time given the mark v; it is not the mean failure time at
v alone unless the mark density is one there. The double integral against
each subject's marked counting process reduces to this single term because
the process carries one unit point mass at (y_i, mark_i) when delta_i = 1
and none otherwise; the integral form survives only in the test oracles.

Censored subjects therefore contribute exactly zero, and the kernel terms
are kept for observed failures only. A failure's term is nonzero only at
the grid points within h of its mark, so each failure keeps one window of
consecutive grid points, found by binary search on the grid, and the
kernel is evaluated there alone. Every per-point sum adds the arm's terms
left to right in record order. The contrast tau(v) = tau_1(v) - tau_0(v),
its variance estimate (n h) * sum over arms of n_a^(-2) * sum_i
theta_i(v)^2 and pointwise confidence intervals follow the large-sample
normal approximation for sqrt(n h).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data_model import Dataset, MarkInterval, _arm_sizes
from .kernels import Bandwidth, rule_of_thumb_bandwidth, scaled_kernel
from .km import fit_censoring_km

__all__ = [
    "EstimationError",
    "EvaluationGrid",
    "EstimateGrid",
    "normal_quantile",
    "ipcw_weights",
    "estimate_on_grid",
]


class EstimationError(ValueError):
    """Invalid estimation request (vanishing weights, bad grid or level)."""


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Strictly increasing mark values inside an evaluation interval."""

    points: np.ndarray
    interval: MarkInterval

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise EstimationError("grid needs at least one point")
        if not np.all(np.diff(pts) > 0):  # also false on a NaN
            raise EstimationError("grid points must be strictly increasing")
        if not self.interval.lower <= pts[0] <= pts[-1] <= self.interval.upper:
            raise EstimationError(
                f"grid points must lie in [{self.interval.lower}, {self.interval.upper}]"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def evenly_spaced(cls, interval: MarkInterval, count: int) -> "EvaluationGrid":
        """``count`` points from interval.lower to interval.upper inclusive."""
        if count < 2:
            raise EstimationError(f"evenly spaced grid needs count >= 2, got {count}")
        return cls(np.linspace(interval.lower, interval.upper, count), interval)

    @classmethod
    def explicit(cls, points, interval: MarkInterval | None = None) -> "EvaluationGrid":
        """Grid from explicit points; the interval defaults to their span."""
        pts = np.asarray(points, dtype=float)
        if interval is None:
            if pts.size < 2:
                raise EstimationError("an explicit single-point grid needs an interval")
            interval = MarkInterval(float(np.min(pts)), float(np.max(pts)))
        return cls(pts, interval)


@dataclass(frozen=True, eq=False)
class EstimateGrid:
    """Per-point estimates plus the bandwidth and group sizes behind them.

    ``flagged`` marks grid points whose kernel window contains no observed
    event in either arm; these carry tau = 0 and sigma2 = 0 by convention and
    are excluded from downstream test statistics.
    """

    points: np.ndarray
    tau1: np.ndarray
    tau0: np.ndarray
    tau: np.ndarray
    sigma2: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    events1: np.ndarray
    events0: np.ndarray
    flagged: np.ndarray
    bandwidth: Bandwidth
    n: int
    n0: int
    n1: int

    @property
    def h(self) -> float:
        return self.bandwidth.h

    @property
    def nh(self) -> float:
        return self.n * self.bandwidth.h


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF), by the standard library."""
    if not 0.0 < p < 1.0:
        raise EstimationError(f"quantile level must be in (0,1), got {p!r}")
    return NormalDist().inv_cdf(p)


def ipcw_weights(y, delta, arm) -> tuple[np.ndarray, np.ndarray]:
    """The factors delta_i * y_i / S_a(y_i) of every row of (R, n) arrays.

    Every row is one dataset. Each arm's censoring curve is fitted on that
    arm alone and evaluated left-continuously, so at an observed failure
    S_a(y_i) is positive and 1 / S_a(y_i) is at most the arm size. Returns
    the flat indices of the observed failures, in row and record order, and
    their weights; every other weight is zero.
    """
    *_, surv = fit_censoring_km(y, delta, arm)
    failed = np.flatnonzero(delta == 1)
    at_failure = surv.reshape(-1)[failed]
    vanished = at_failure <= 0.0
    if vanished.any():
        group = int(arm.reshape(-1)[failed[vanished]].min())
        raise EstimationError(
            f"censoring survival vanishes at an observed failure in group {group}"
        )
    return failed, y.reshape(-1)[failed] / at_failure


def _estimate_with_terms(dataset: Dataset, grid: EvaluationGrid, *,
                         alpha: float = 0.05, bandwidth: float | None = None,
                         varpi: float = 1.0,
                         ) -> tuple[EstimateGrid, tuple[np.ndarray, ...]]:
    """Estimates on the grid plus the windowed kernel terms they are sums of.

    The terms are ``(curve, start, values, widths)``, one row per observed
    failure in record order, with curve the failure's arm: ``values[k, i]``
    is (y / S_a(y)) * K_h(mark - v_j) at grid point j = start[k] + i, and
    ``widths[a]`` is arm a's window width, the widest window of its
    failures. Columns past a failure's window are zero, and a window that
    would run past the last grid point starts early instead. Censored
    subjects contribute zero and have no row. Each per-point sum adds the
    arm's terms left to right in record order. The multiplier resampling
    reuses the terms, so they are computed once here. This is
    :func:`_estimate_block` on a block of one dataset.
    """
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0,1), got {alpha!r}")
    bandwidths, columns, terms = _estimate_block(
        dataset.y[None], dataset.delta[None], dataset.mark[None], dataset.arm[None],
        grid.points, alpha=alpha, bandwidth=bandwidth, varpi=varpi,
    )
    return _row_estimate(grid.points, bandwidths, columns, 0), terms


def _estimate_block(y, delta, mark, arm, points: np.ndarray, *, alpha: float,
                    bandwidth: float | None, varpi: float):
    """Estimates of every row of (R, n) arrays, each row one dataset.

    Each row's arm sizes are checked first, so an empty arm fails before
    anything else, and each row then gets its own bandwidth: ``bandwidth``
    when given, else the rule of thumb on its observed marks. Returns the
    bandwidths, the columns of each row's :class:`EstimateGrid` (its (R, g)
    arrays and its arm sizes n1 and n0 as lists of R ints), and the windowed
    kernel terms of all rows' observed failures in row and record order:
    their curve (row * 2 + arm), window start and values, plus each
    curve's window width w. A failure's window starts early enough for its
    curve's width, and columns past the last grid point read points at
    infinity, where the kernel is zero. Every sum is an ``np.bincount``
    with one bin per (row, arm, grid point), so each bin adds its terms in
    record order, as a single dataset's estimate does.
    """
    rows, n = y.shape
    n1, n0 = (size[:, None] for size in _arm_sizes(arm))
    if bandwidth is None:
        bandwidths = [rule_of_thumb_bandwidth(m[d == 1], varpi=varpi)
                      for m, d in zip(mark, delta)]
    else:
        bandwidths = [Bandwidth(h=float(bandwidth))] * rows
    observed, weights = ipcw_weights(y, delta, arm)
    h = np.array([bw.h for bw in bandwidths])
    g = points.size
    row = observed // n
    curve = 2 * row + arm.reshape(-1)[observed]
    marks = mark.reshape(-1)[observed][:, None]
    h_at = h[row][:, None]
    # Rounding is monotone, so mark -/+ h already brackets every point within
    # h; the few ulps more are slack. The kernel's |(u - v) / h| < 1 and the
    # count's |u - v| < h decide each point of the window.
    reach = h_at * (1.0 + 4.0 * np.finfo(float).eps)
    start = np.searchsorted(points, (marks - reach).ravel())
    widths = np.zeros(2 * rows, np.intp)
    np.maximum.at(widths, curve,
                  np.searchsorted(points, (marks + reach).ravel(), side="right") - start)
    del observed, row, reach  # block-sized arrays go once used, as in km.fit_censoring_km
    w = int(widths.max())
    np.minimum(start, g - widths[curve], out=start)
    bins = start[:, None] + np.arange(w)
    at = np.concatenate((points, np.full(w, np.inf)))[bins]
    inside = (np.abs(marks - at) < h_at).ravel()
    values = scaled_kernel(marks, at, h_at)
    del at
    values *= weights[:, None]
    # g + w bins per (row, arm) pair: its grid points, then the points at infinity
    bins += (g + w) * curve[:, None]
    bins = bins.ravel()
    size = 2 * rows * (g + w)

    def per_point(sums):
        sums = sums.reshape(rows, 2, g + w)[:, :, :g]
        return sums[:, 0], sums[:, 1]

    totals0, totals1 = per_point(np.bincount(bins, weights=values.ravel(), minlength=size))
    squares0, squares1 = per_point(np.bincount(bins, weights=(values**2).ravel(),
                                               minlength=size))
    events0, events1 = per_point(np.bincount(bins[inside], minlength=size))

    tau1 = totals1 / n1
    tau0 = totals0 / n0
    tau = tau1 - tau0
    nh = n * h[:, None]
    sigma2 = nh * (squares1 / n1**2 + squares0 / n0**2)
    flagged = (events1 + events0) == 0

    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * np.sqrt(sigma2 / nh)
    columns = dict(tau1=tau1, tau0=tau0, tau=tau, sigma2=sigma2,
                   ci_lower=tau - half, ci_upper=tau + half,
                   events1=events1, events0=events0, flagged=flagged,
                   n1=n1.ravel().tolist(), n0=n0.ravel().tolist())
    return bandwidths, columns, (curve, start, values, widths)


def _row_estimate(points: np.ndarray, bandwidths, columns, i: int) -> EstimateGrid:
    """Row ``i`` of the bandwidths and columns of :func:`_estimate_block` as an estimate."""
    row = {name: column[i] for name, column in columns.items()}
    return EstimateGrid(points=points, **row, bandwidth=bandwidths[i], n=row["n0"] + row["n1"])


def estimate_on_grid(dataset: Dataset, grid: EvaluationGrid, *, alpha: float = 0.05,
                     bandwidth: float | None = None, varpi: float = 1.0,
                     ) -> EstimateGrid:
    """Estimate tau_1, tau_0, tau, sigma2 and pointwise intervals on a grid.

    Parameters
    ----------
    dataset : Dataset
        Validated marked survival data.
    grid : EvaluationGrid
        Mark values to evaluate at; output rows follow grid order.
    alpha : float
        Pointwise miscoverage level for the confidence intervals.
    bandwidth : float or None
        Explicit positive bandwidth; None selects the rule of thumb with
        scale ``varpi`` from the observed marks of both arms pooled.

    Grid points whose window (v - h, v + h) contains no observed event in
    either arm are flagged, not errors; they carry tau = 0, sigma2 = 0.
    """
    est, _ = _estimate_with_terms(
        dataset, grid, alpha=alpha, bandwidth=bandwidth, varpi=varpi
    )
    return est
