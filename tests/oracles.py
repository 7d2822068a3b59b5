"""Brute-force reference implementations that pin the closed-form code paths.

Everything here trades speed for obviousness: explicit loops, no shared
helpers with the package, and independent formulas wherever possible.
"""

import bisect
import csv
import io
import math

import numpy as np

from marktau.data_model import Dataset, DataError, ValidationReport, Violation
from marktau.kernels import scaled_kernel
from marktau.simulation import truncated_std_normal


def control_mean(v):
    """The control arm's mean failure time at marks v, 3 - 2 sin(2 pi v).

    The operations run in the generator's order, so its values are bitwise
    the generator's.
    """
    return 3.0 - 2.0 * np.sin(2.0 * np.pi * np.asarray(v, dtype=float))


def treated_mean(scenario, v):
    """The treated arm's mean failure time at marks v, c1 + c2 (1 - v) + c3 sin(2 pi v).

    Bitwise the generator's, as :func:`control_mean` is.
    """
    v = np.asarray(v, dtype=float)
    return scenario.c1 + scenario.c2 * (1.0 - v) + scenario.c3 * np.sin(2.0 * np.pi * v)


def product_limit_steps(y, delta):
    """The censoring curve's jumps, as (time, value just after) in ascending time.

    Censored rows (delta == 0) are the events; the risk set at time s is
    everyone with y >= s, so tied failures are still at risk. The value
    after a jump multiplies the one before it by (at risk - events) / at
    risk, one distinct censoring time after another.
    """
    y = [float(v) for v in y]
    delta = [int(d) for d in delta]
    ordered = sorted(y)
    censored = sorted(yi for yi, di in zip(y, delta) if di == 0)
    steps, value = [], 1.0
    for s in sorted(set(censored)):
        at_risk = len(ordered) - bisect.bisect_left(ordered, s)
        events = bisect.bisect_right(censored, s) - bisect.bisect_left(censored, s)
        value *= (at_risk - events) / at_risk
        steps.append((s, value))
    return steps


def product_limit_censoring(y, delta, t):
    """P(C >= t), left-continuous in t: the value after the last jump strictly before t."""
    value = 1.0
    for s, after in product_limit_steps(y, delta):
        if s >= t:
            break
        value = after
    return value


def ipcw_weights_oracle(dataset):
    """delta_i * y_i / P(C >= y_i) per record, each arm's curve by :func:`product_limit_steps`.

    The curve of an arm is fitted once and looked up at each of its
    failures, one record at a time; censored records weigh zero.
    """
    y, delta, arm = (column.tolist() for column in (dataset.y, dataset.delta, dataset.arm))
    weights = [0.0] * len(y)
    for a in (0, 1):
        rows = [i for i in range(len(y)) if arm[i] == a]
        steps = product_limit_steps([y[i] for i in rows], [delta[i] for i in rows])
        times = [s for s, _ in steps]
        for i in rows:
            if delta[i] == 1:
                before = bisect.bisect_left(times, y[i])  # jumps strictly before y_i
                weights[i] = y[i] / (steps[before - 1][1] if before else 1.0)
    return np.array(weights)


def _epanechnikov(x):
    ax = abs(x)
    return 0.0 if ax >= 1.0 else 0.75 * (1.0 - ax * ax)


def stieltjes_group_mean(y, delta, mark, surv_evaluate, v, h):
    """Group-level effect at v by double Stieltjes integration, one subject at a time.

    Iterates over the candidate jump set (all observed times crossed with all
    observed marks), measures each point's mass of the subject's counting
    process N_i(t, u) = delta_i * 1{y_i <= t, mark_i <= u} by
    inclusion-exclusion, and sums integrand * mass over the whole set, which
    covers [0, max(y)] x [0, 1]. The closed form in the package must agree
    to near machine precision.
    """
    n = len(y)
    times = sorted({float(t) for t in y})
    marks = sorted({float(u) for u, d in zip(mark, delta) if int(d) == 1})
    total = 0.0
    for i in range(n):
        if int(delta[i]) != 1:
            continue

        def process(t, u):
            return 1.0 if (y[i] <= t and mark[i] <= u) else 0.0

        for j, t in enumerate(times):
            t_prev = times[j - 1] if j > 0 else times[0] - 1.0
            for k, u in enumerate(marks):
                u_prev = marks[k - 1] if k > 0 else marks[0] - 1.0
                mass = (
                    process(t, u)
                    - process(t_prev, u)
                    - process(t, u_prev)
                    + process(t_prev, u_prev)
                )
                if mass != 0.0:
                    total += mass * (t / surv_evaluate(t)) * _epanechnikov((u - v) / h) / h
    return total / n


def ipcw_mean_difference(dataset):
    """Difference of IPCW-weighted group mean failure times, ignoring marks.

    This is the estimate an analysis gets by dropping the mark dimension
    entirely; effects that flip sign across marks can average to zero here
    while the mark-specific contrast is far from zero everywhere.
    """
    weights = ipcw_weights_oracle(dataset)
    idx1 = dataset.arm_indices(1)
    idx0 = dataset.arm_indices(0)
    return float(np.sum(weights[idx1]) / idx1.size - np.sum(weights[idx0]) / idx0.size)


def normal_quantile_bisect(p, tol=1e-13):
    """Standard normal quantile by bisection on the erfc-based CDF."""
    def cdf(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    lo, hi = -12.0, 12.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_kernel_terms(dataset, points, h):
    """Kernel terms at every (grid point, observed failure) pair, per arm.

    Returns the (control, treated) pair of (g, m_a) arrays whose entry
    (j, k) is (y / S_a(y)) * K_h(mark - v_j) for the k-th observed failure
    of arm a in record order, zero outside the kernel window.
    """
    weights = ipcw_weights_oracle(dataset)
    points = np.asarray(points, dtype=float)[:, None]
    out = []
    for a in (0, 1):
        observed = (dataset.arm == a) & (dataset.delta == 1)
        out.append(weights[observed] * scaled_kernel(dataset.mark[observed], points, h))
    return tuple(out)


def scatter_terms(terms, g):
    """The package's windowed terms of one dataset as dense (g, m_a) arrays, per arm.

    ``terms`` is ``(curve, start, values, widths)`` with curve the failure's
    arm. Entry (start[k] + i, k) of the failure's arm takes values[k, i] for
    i below its arm's width, one entry at a time; every other entry stays
    zero, and so must every value past the width.
    """
    curve, start, values, widths = terms
    out = []
    for a in (0, 1):
        rows = np.flatnonzero(curve == a)
        assert not values[rows, widths[a]:].any()
        dense = np.zeros((g, rows.size))
        for col, k in enumerate(rows):
            for i in range(widths[a]):
                dense[start[k] + i, col] = values[k, i]
        out.append(dense)
    return tuple(out)


def dense_gram(theta, start):
    """Gram matrix of dense (g, m) kernel terms, each entry a running sum.

    Entry (j, k) adds theta_f(v_j) * theta_f(v_k) one product at a time over
    every failure f, taken by window start ``start[f]``, latest first, and
    in record order within one start: the order in which the package's
    banded Gram adds an entry's nonzero products.
    """
    rows = np.asarray(theta, dtype=float).tolist()
    g = len(rows)
    order = sorted(range(len(start)), key=lambda f: -int(start[f]))  # a stable sort
    gram = np.zeros((g, g))
    for j in range(g):
        for k in range(j, g):
            total = 0.0
            for f in order:
                total += rows[j][f] * rows[k][f]
            gram[j, k] = gram[k, j] = total
    return gram


def subject_major(theta, dataset):
    """Scatter the per-arm kernel terms back into an n x g subject-by-point matrix.

    ``theta`` is a (control, treated) pair of dense (g, m_a) arrays whose
    columns are the arm's observed failures in record order (see
    :func:`scatter_terms`). Rows of censored subjects stay zero.
    """
    out = np.zeros((dataset.n, theta[0].shape[0]))
    seen = [0, 0]
    for i in range(dataset.n):
        if int(dataset.delta[i]) == 1:
            a = int(dataset.arm[i])
            out[i] = theta[a][:, seen[a]]
            seen[a] += 1
    assert seen == [theta[0].shape[1], theta[1].shape[1]]
    return out


def xi_matrix(theta, arm, pi):
    """Signed, inverse-assignment-weighted subject contributions, one row at a time.

    ``theta`` is subject-major (see :func:`subject_major`). Row i is
    theta_i / pi for a treated subject and -theta_i / (1 - pi) for a
    control, so that sum_i xi_i / n reproduces the treatment contrast of
    group means.
    """
    xi = np.array(theta, dtype=float)
    for i in range(xi.shape[0]):
        xi[i] = theta[i] / pi if int(arm[i]) == 1 else -theta[i] / (1.0 - pi)
    return xi


def subject_space_sums(theta, arm, pi, normals):
    """Multiplier sums the slow way: a (B, n) normal matrix times the contributions.

    ``theta`` is subject-major. The package draws these sums directly from
    their covariance instead.
    """
    return normals @ xi_matrix(theta, arm, pi)


def constancy_resample_dense(scale, sums, pairs):
    """Resampled constancy statistics with every pair of a replication scored at once.

    For each replication, builds the draws x kept-pairs array of
    ``(h / n) * diff**2 / zeta`` that the package avoids by scoring the pair
    list in chunks of bounded size; same elementwise formula.
    """
    j_idx, k_idx, zeta_pairs, keep = pairs
    out = np.empty(sums.shape[:2])
    for r, draws in enumerate(sums):
        kept = keep[r]
        diffs = draws[:, j_idx[kept]] - draws[:, k_idx[kept]]
        scaled = scale[r] * diffs**2 / zeta_pairs[r, kept]
        out[r] = scaled.max(axis=1)
    return out


def _parse_binary(field, name, line_no):
    try:
        value = float(field)
    except ValueError:
        raise DataError(f"line {line_no}: {name} is not numeric: {field!r}") from None
    if value not in (0.0, 1.0):
        raise DataError(f"line {line_no}: {name} must be 0 or 1, got {field!r}")
    return int(value)


def parse_dataset_rows(text, *, drop_missing_marks=False):
    """CSV ingest one row at a time through the ``csv`` module.

    Line numbers are lines of the file (``csv.reader.line_num``), so blank
    lines count. With ``drop_missing_marks`` a row is skipped exactly where
    it would raise "mark absent", and the result is ``(dataset, dropped)``.
    """
    text = text.lstrip("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [(reader.line_num, row) for row in reader if row]  # skip blank lines
    if not rows:
        raise DataError("empty input: missing header row")
    header = tuple(c.strip() for c in rows[0][1])
    if header != ("y", "delta", "mark", "a"):
        raise DataError(f"expected header 'y,delta,mark,a', got {','.join(header)!r}")
    if len(rows) == 1:
        raise DataError("no data rows")

    y, delta, mark, arm = [], [], [], []
    dropped = 0
    for line_no, row in rows[1:]:
        if len(row) != 4:
            raise DataError(f"line {line_no}: expected 4 fields, got {len(row)}")
        y_f, d_f, m_f, a_f = (c.strip() for c in row)
        try:
            y_i = float(y_f)
        except ValueError:
            raise DataError(f"line {line_no}: y is not numeric: {y_f!r}") from None
        d_i = _parse_binary(d_f, "delta", line_no)
        a_i = _parse_binary(a_f, "a", line_no)
        if d_i == 1:
            if m_f == "":
                if drop_missing_marks:
                    dropped += 1
                    continue
                raise DataError(f"line {line_no}: mark absent on an uncensored row (delta=1)")
            try:
                m_i = float(m_f)
            except ValueError:
                raise DataError(f"line {line_no}: mark is not numeric: {m_f!r}") from None
        else:
            if m_f != "":
                raise DataError(f"line {line_no}: mark present on a censored row (delta=0)")
            m_i = math.nan
        y.append(y_i)
        delta.append(d_i)
        mark.append(m_i)
        arm.append(a_i)

    if not arm:  # every data row was dropped
        raise DataError("no data rows")
    n1 = arm.count(1)
    if n1 == 0 or n1 == len(arm):
        raise DataError(f"empty treatment group (n1={n1}, n0={len(arm) - n1})")
    dataset = Dataset.from_arrays(y, delta, mark, arm)
    return (dataset, dropped) if drop_missing_marks else dataset


def serialize_dataset(dataset):
    """Inverse of ``parse_dataset``: one row per record, in record order.

    Floats are written with round-trip ``repr``, so
    ``parse(serialize(parse(text)))`` reproduces the dataset exactly.
    """
    lines = ["y,delta,mark,a"]
    for i in range(dataset.n):
        m = dataset.mark[i]
        mark_field = "" if math.isnan(m) else repr(float(m))
        lines.append(
            f"{float(dataset.y[i])!r},{int(dataset.delta[i])},{mark_field},{int(dataset.arm[i])}"
        )
    return "\n".join(lines) + "\n"


def validate_rows(dataset):
    """Every record invariant checked one record at a time, in rule order."""
    out = []
    for i in range(dataset.n):
        y = float(dataset.y[i])
        d = int(dataset.delta[i])
        m = float(dataset.mark[i])
        a = int(dataset.arm[i])
        if not (math.isfinite(y) and y >= 0.0):
            out.append(Violation(i, "y >= 0", f"y={y!r} must be finite and non-negative"))
        if d not in (0, 1):
            out.append(Violation(i, "delta in {0,1}", f"delta={d!r}"))
        if a not in (0, 1):
            out.append(Violation(i, "a in {0,1}", f"a={a!r}"))
        mark_present = not math.isnan(m)
        if d == 1 and not mark_present:
            out.append(Violation(i, "mark present iff delta = 1", "uncensored row without a mark"))
        if d == 0 and mark_present:
            out.append(Violation(i, "mark present iff delta = 1", "censored row carries a mark"))
        if mark_present and not (math.isfinite(m) and 0.0 <= m <= 1.0):
            out.append(Violation(i, "mark in [0,1]", f"mark={m!r} (is the data scaled?)"))
    return ValidationReport(tuple(out))


def generated_columns(scenario, rng):
    """y, delta, mark and arm of one dataset, drawn from ``rng`` alone.

    The generator draws the treatment uniforms and the marks, then the
    residuals by rejection, one batch of max(16, int(1.6 need) + 8) normals
    at a time while ``need`` values are missing, then the unit exponentials.
    """
    n = scenario.n
    uniform = rng.random((2, n))
    residuals = []
    while len(residuals) < n:
        need = n - len(residuals)
        batch = rng.standard_normal(max(16, int(need * 1.6) + 8))
        residuals.extend(x for x in batch.tolist() if abs(x) <= 1.0)
    del residuals[n:]
    unit_exp = rng.standard_exponential(n)
    arm = (uniform[0] < scenario.p_treat).astype(np.int64)
    v = uniform[1]
    mean = np.where(arm == 1, treated_mean(scenario, v), control_mean(v))
    t = mean + np.array(residuals)
    c = unit_exp * np.where(arm == 1, scenario.censor_mean1, scenario.censor_mean0)
    delta = (t <= c).astype(np.int64)
    return np.minimum(t, c), delta, np.where(delta == 1, v, np.nan), arm


def calibrate_censoring_bisect(scenario, mc_draws=200_000):
    """Per-arm censoring means by bracketing and bisecting the Monte Carlo rate.

    Draws the calibration's own seeded (V, residual, unit-exponential) sets,
    then widens a bracket until it holds the target rate and halves it to
    1e-10 relative. The package reads the same mean off one order statistic.
    """
    target = scenario.censor_target
    means = []
    for arm in (0, 1):
        ss = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(0, arm))
        rng = np.random.default_rng(ss)
        v = rng.random(mc_draws)
        eps = truncated_std_normal(rng, mc_draws)
        t = (treated_mean(scenario, v) if arm == 1 else control_mean(v)) + eps
        unit_exp = rng.exponential(1.0, mc_draws)

        def rate(mu):
            return np.count_nonzero(mu * unit_exp < t) / mc_draws

        lo, hi = 1e-3, 8.0
        while rate(hi) > target:
            hi *= 4.0
        while rate(lo) < target:
            lo /= 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if rate(mid) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-10 * max(1.0, hi):
                break
        means.append(0.5 * (lo + hi))
    return means[0], means[1]
