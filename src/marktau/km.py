"""Product-limit estimation of the censoring survival curve used for inverse weighting.

The curve here is for the censoring time C, so rows with ``delta == 0`` are
the events and failures only shrink the risk set. Evaluation is
left-continuous: the value at t multiplies the factors of jumps strictly
before t, which estimates P(C >= t) and keeps the weight of a failure at its
own censoring-jump time unaffected by that jump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DataError

__all__ = ["StepSurvival", "fit_censoring_km"]


@dataclass(frozen=True, eq=False)
class StepSurvival:
    """Right-continuous step curve evaluated left-continuously as P(C >= t).

    ``jump_times`` are the distinct times with at least one censoring event,
    strictly increasing; ``values[k]`` is the curve just after the k-th jump.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if jt.ndim != 1 or vals.shape != jt.shape:
            raise DataError("jump_times and values must be matching 1-d arrays")
        if jt.size and np.any(np.diff(jt) <= 0):
            raise DataError("jump times must be strictly increasing")
        if np.any(vals < 0.0) or np.any(vals > 1.0) or (vals.size and np.any(np.diff(vals) > 0)):
            raise DataError("values must be non-increasing within [0, 1]")
        jt.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)

    def evaluate(self, t):
        """P(C >= t): product of jump factors strictly before t. evaluate(0) == 1."""
        padded = np.concatenate(([1.0], self.values))
        idx = np.searchsorted(self.jump_times, t, side="left")
        out = padded[idx]
        return float(out) if np.isscalar(t) else out


def fit_censoring_km(y, delta) -> StepSurvival:
    """Kaplan-Meier curve for the censoring distribution of one treatment arm.

    Parameters
    ----------
    y, delta : array-like
        Follow-up times and failure indicators of the arm's subjects.
        ``delta == 0`` rows (censorings) are the events of this curve.

    Notes
    -----
    The risk set at time t is every subject with ``y >= t``; in particular a
    failure tied with a censoring is still at risk there, so failures are
    ordered before censorings at tied times. The returned curve is strictly
    positive at any time with a subject still at risk beyond it, which
    bounds the inverse weights by the arm size.
    """
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta, dtype=np.int64)
    if y.ndim != 1 or y.shape != delta.shape:
        raise DataError("y and delta must be matching 1-d arrays")
    if y.size == 0:
        raise DataError("cannot fit a survival curve on an empty group")

    censor_times, censor_counts = np.unique(y[delta == 0], return_counts=True)
    if censor_times.size == 0:
        return StepSurvival(np.empty(0), np.empty(0))
    y_sorted = np.sort(y)
    at_risk = y.size - np.searchsorted(y_sorted, censor_times, side="left")
    factors = (at_risk - censor_counts) / at_risk
    return StepSurvival(censor_times, np.cumprod(factors))
