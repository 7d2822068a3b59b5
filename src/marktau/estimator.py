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

from .data_model import Dataset, MarkInterval
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


def ipcw_weights(dataset: Dataset) -> np.ndarray:
    """Per-subject factor delta_i * y_i / S_a(y_i).

    Weights are zero on censored rows. Each arm's censoring curve is fitted
    on that arm alone and evaluated left-continuously, so at an observed
    failure S_a(y_i) is positive and 1 / S_a(y_i) is at most the arm size.
    The curve is looked up at the arm's failure times in ascending order,
    so that successive binary searches stay in nearby, cached jump times;
    the values are the table entries an unsorted lookup returns.
    """
    weights = np.zeros(dataset.n)
    for a in (0, 1):
        idx = dataset.arm_indices(a)
        curve = fit_censoring_km(dataset.y[idx], dataset.delta[idx])
        events = idx[dataset.delta[idx] == 1]
        if events.size:
            times = dataset.y[events]
            order = np.argsort(times)
            surv_at_event = np.empty(times.size)
            surv_at_event[order] = curve.evaluate(times[order])
            if np.any(surv_at_event <= 0.0):
                raise EstimationError(
                    f"censoring survival vanishes at an observed failure in group {a}"
                )
            weights[events] = times / surv_at_event
    return weights


def _resolve_bandwidth(dataset: Dataset, bandwidth: float | None, varpi: float,
                       ) -> Bandwidth:
    if bandwidth is None:
        return rule_of_thumb_bandwidth(dataset.observed_marks(), varpi=varpi)
    return Bandwidth(h=float(bandwidth))


def _estimate_with_terms(dataset: Dataset, grid: EvaluationGrid, *,
                         alpha: float = 0.05, bandwidth: float | None = None,
                         varpi: float = 1.0,
                         ) -> tuple[EstimateGrid, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Estimates on the grid plus the windowed kernel terms they are sums of.

    The terms are a (control, treated) pair of ``(start, values)``, one row
    per observed failure of the arm in record order: ``values[k, i]`` is
    (y / S_a(y)) * K_h(mark - v_j) at grid point j = start[k] + i. Every
    failure gets the same number w of columns, the widest window's, and a
    window that would run past the last grid point starts early instead.
    Censored subjects contribute zero and have no row; grid points beyond a
    failure's window get zero from it and are left out. Each per-point sum
    adds the arm's terms left to right in record order. The multiplier
    resampling reuses the terms, so they are computed once here.
    """
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0,1), got {alpha!r}")
    bw = _resolve_bandwidth(dataset, bandwidth, varpi)
    weights = ipcw_weights(dataset)
    points, h = grid.points, bw.h
    g = points.size
    # Rounding is monotone, so mark -/+ h already brackets every point within
    # h; the few ulps more are slack. The kernel's |(u - v) / h| < 1 and the
    # count's |u - v| < h decide each point of the window.
    reach = h * (1.0 + 4.0 * np.finfo(float).eps)
    terms, totals, squares, events = [], [], [], []
    for a in (0, 1):
        observed = (dataset.arm == a) & (dataset.delta == 1)
        marks = dataset.mark[observed]
        first = np.searchsorted(points, marks - reach)
        widths = np.searchsorted(points, marks + reach, side="right") - first
        w = int(widths.max(initial=0))
        start = np.minimum(first, g - w)
        cols = start[:, None] + np.arange(w)
        at = points[cols]
        values = weights[observed][:, None] * scaled_kernel(marks[:, None], at, h)
        terms.append((start, values))
        flat = cols.ravel()
        totals.append(np.bincount(flat, weights=values.ravel(), minlength=g))
        squares.append(np.bincount(flat, weights=(values**2).ravel(), minlength=g))
        inside = (np.abs(marks[:, None] - at) < h).ravel()
        events.append(np.bincount(flat[inside], minlength=g))
    events0, events1 = events

    tau1 = totals[1] / dataset.n1
    tau0 = totals[0] / dataset.n0
    tau = tau1 - tau0
    nh = dataset.n * h
    sigma2 = nh * (squares[1] / dataset.n1**2 + squares[0] / dataset.n0**2)
    flagged = (events1 + events0) == 0

    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * np.sqrt(sigma2 / nh)
    est = EstimateGrid(
        points=grid.points, tau1=tau1, tau0=tau0, tau=tau, sigma2=sigma2,
        ci_lower=tau - half, ci_upper=tau + half,
        events1=events1, events0=events0, flagged=flagged,
        bandwidth=bw, n=dataset.n, n0=dataset.n0, n1=dataset.n1,
    )
    return est, tuple(terms)


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
