"""Product-limit estimation of the censoring survival curve used for inverse weighting.

The curve here is for the censoring time C, so rows with ``delta == 0`` are
the events and failures only shrink the risk set. Evaluation is
left-continuous: the value at t multiplies the factors of jumps strictly
before t, which estimates P(C >= t) and keeps the weight of a failure at its
own censoring-jump time unaffected by that jump.
"""

from __future__ import annotations

import numpy as np

from .data_model import DataError

__all__ = ["fit_censoring_km"]


def fit_censoring_km(y, delta, arm):
    """Kaplan-Meier censoring curves of each arm of each row of (R, n) arrays.

    Every row is one dataset, and its arm-0 count is taken from ``arm``;
    ``delta == 0`` rows (censorings) are the events of its curves. The risk
    set at time t is every subject of the arm with ``y >= t``, so a failure
    tied with a censoring is still at risk there.
    A curve is strictly positive at any time with a subject still at risk
    beyond it, which bounds the inverse weights by the arm size.

    One row-wise sort on a bit key orders each row by arm, then by time, so
    each (row, arm) pair is a segment of runs of tied times. A run's
    censorings are the events of its step, everyone from the run's first
    position to the segment's end is at risk, and the factor (at risk -
    events) / at risk sits at the run's last position. Each segment gets
    its own stretch of cells, a leading 1.0 and then one cell per position
    holding the factor of the run that ends there, 1.0 elsewhere. One
    cumulative product per stretch then multiplies the curve's factors in
    time order, exactly as a fit of that arm alone does, since a product
    with 1.0 is exact.

    Returns the jumps of all curves end to end, ordered by row, arm and time
    (their times, their values and their curve, row * 2 + arm), and each
    record's own-arm curve at its own time, left-continuously, in record
    order.
    """
    if not np.all(y >= 0.0):
        raise DataError("censoring curves need non-negative follow-up times")
    rows, n = y.shape
    # + 0.0 turns a -0.0 into 0.0, whose sign bit would read as arm 1
    key = (y + 0.0).view(np.uint64)
    key |= arm.astype(np.uint64) << np.uint64(63)
    take = np.argsort(key, axis=1)
    # block-sized arrays go as soon as they are used: the heap a block
    # grows to stays resident
    del key
    take += n * np.arange(rows)[:, None]
    take = take.reshape(-1)
    times = y.reshape(-1)[take].reshape(rows, n)
    censored = (delta == 0).reshape(-1)[take].reshape(rows, n)
    n0 = n - np.count_nonzero(arm, axis=1, keepdims=True)
    position = np.arange(n)
    in_arm1 = position >= n0
    run_starts = position == n0
    run_starts[:, 0] = True
    run_starts[:, 1:] |= times[:, 1:] != times[:, :-1]
    jump = np.empty_like(run_starts)
    jump[:, :-1] = run_starts[:, 1:]
    jump[:, -1] = True
    # flat sorted position of the start of each position's run
    run_start = np.where(run_starts, position, 0)
    np.maximum.accumulate(run_start, axis=1, out=run_start)
    run_start += n * np.arange(rows)[:, None]
    run_start = run_start.reshape(-1)
    # censorings of its run up to each position: the whole run's at its end
    events = np.cumsum(censored, axis=1).reshape(-1)
    events -= (events - censored.reshape(-1))[run_start]
    jump = np.flatnonzero(jump.reshape(-1) & (events > 0))
    row = jump // n
    side = in_arm1.reshape(-1)[jump]
    curve = 2 * row + side
    at_risk = np.where(side, n, n0.ravel()[row]) - (run_start[jump] - n * row)
    # row r's stretches fill cells r * (n + 2) to (r + 1) * (n + 2): arm 0's
    # leading cell, its n0 positions, then arm 1's
    cell = jump + curve + 1
    steps = np.ones(rows * (n + 2))
    steps[cell] = (at_risk - events[jump]) / at_risk
    del events
    bounds = ((n + 2) * np.arange(rows)[:, None] + [0, 1] * (n0 + 1)).ravel().tolist()
    for lo, hi in zip(bounds, bounds[1:] + [steps.size]):
        np.multiply.accumulate(steps[lo:hi], out=steps[lo:hi])
    values = steps[cell]
    # tied times share their bits except -0.0 and 0.0, so a jump at zero takes the
    # sign of its curve's last censoring at zero in record order, not the sort's
    jump_times = times.reshape(-1)[jump]
    del times
    for j in np.flatnonzero(jump_times == 0.0):
        r, a = divmod(int(curve[j]), 2)
        jump_times[j] = y[r, np.flatnonzero((y[r] == 0.0) & (delta[r] == 0) & (arm[r] == a))[-1]]
    # a record's curve at its own time multiplies the factors before its run,
    # which end in the cell before its run's first one
    run_start += (2 * np.arange(rows)[:, None] + in_arm1).reshape(-1)
    surv = np.empty(rows * n)
    surv[take] = steps[run_start]
    return jump_times, values, curve, surv.reshape(rows, n)

