"""Monte Carlo engine: data generation, censoring calibration, and study drivers.

The generating model draws treatment A ~ Bernoulli(p_treat), a latent mark
V ~ Uniform[0,1], a residual from a standard normal truncated to [-1, 1],
and sets the failure time to the arm's mean curve at V plus the residual.
Censoring is exponential with an arm-specific mean, solved from the
population censoring rate so that the target fraction of each arm is
censored. The mark is observed only on uncensored subjects.

Mean curves:

    control:  3 - 2 sin(2 pi v)
    treated:  c1 + c2 (1 - v) + c3 sin(2 pi v)

so the true contrast is (c1 - 3) + c2 (1 - v) + (c3 + 2) sin(2 pi v); the
contrast vanishes identically at (c1, c2, c3) = (3, 0, -2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data_model import MarkInterval
from .estimator import EvaluationGrid, _estimate_block
from .estimator import _estimate_with_terms  # noqa: F401 - rebound by perfbench/spans.py
from .inference import _check_kind, _check_resamples, _test_from_estimate, multiplier_draws

__all__ = [
    "SimulationError",
    "Scenario",
    "MetricsTable",
    "PowerTable",
    "true_tau",
    "generate_dataset",
    "calibrate_censoring",
    "resolve_censoring",
    "run_replications",
    "size_power_curve",
]

# Seed-space tag of replication r's streams, spawn key (1, r, stream); the
# key 0 seeded a Monte Carlo censoring calibration up to format 6.
_REPLICATION_SPACE = 1
# The control arm's mean curve 3 - 2 sin(2 pi v), as (c1, c2, c3) of the treated form.
_CONTROL_CURVE = (3.0, 0.0, -2.0)
# Where the calibration bisects the censoring mean, and its Fejer rule's order per piece.
_MEAN_RANGE = (2.0**-100, 2.0**100)
_QUADRATURE_ORDER = 32
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Data rows a study's block holds, and bytes of normals and Grams a power block holds.
_BLOCK_ROWS = 10_000
_BLOCK_BYTES = 1 << 23


class SimulationError(ValueError):
    """Invalid scenario configuration or a failed calibration."""


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration; all randomness derives from ``seed``.

    ``censor_mean0``/``censor_mean1`` of None mean "calibrate to
    ``censor_target``"; :func:`resolve_censoring` fills them in with the
    means whose population censoring rate is the target, which no seed
    changes.
    ``grid`` defaults to 20 evenly spaced points on [0.1, 0.9].
    """

    c1: float
    c2: float
    c3: float
    n: int
    p_treat: float = 2.0 / 3.0
    censor_mean0: float | None = None
    censor_mean1: float | None = None
    censor_target: float = 0.4
    grid: EvaluationGrid = EvaluationGrid.evenly_spaced(MarkInterval(0.1, 0.9), 20)
    reps: int = 500
    seed: int = 0
    alpha: float = 0.05
    varpi: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("c1", self.c1), ("c2", self.c2), ("c3", self.c3)):
            if not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, got {value!r}")
        if self.n < 2:
            raise SimulationError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.p_treat < 1.0:
            raise SimulationError(f"p_treat must be in (0,1), got {self.p_treat!r}")
        if self.reps < 1:
            raise SimulationError(f"reps must be >= 1, got {self.reps}")
        if self.seed < 0:
            raise SimulationError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise SimulationError(f"alpha must be in (0,1), got {self.alpha!r}")
        if not (math.isfinite(self.varpi) and self.varpi > 0.0):
            raise SimulationError(f"bandwidth scale must be positive, got {self.varpi!r}")
        for mu in (self.censor_mean0, self.censor_mean1):
            if mu is not None and not (math.isfinite(mu) and mu > 0.0):
                raise SimulationError(f"censoring means must be positive and finite, got {mu!r}")
        if not 0.0 < self.censor_target < 1.0:
            raise SimulationError(
                "censoring target must be strictly inside (0,1); "
                f"got {self.censor_target!r} and 0 is unreachable under "
                "exponential censoring"
            )


def true_tau(scenario: Scenario, v):
    """True contrast (c1 - 3) + c2 (1 - v) + (c3 + 2) sin(2 pi v).

    This is the mean contrast mu1(v) - mu0(v). It equals the estimand, the
    density-weighted contrast f1(v) mu1(v) - f0(v) mu0(v), because the model
    draws V ~ U[0, 1] in both arms, so f1 = f0 = 1.
    """
    # the curve is linear in its coefficients, so the contrast is the curve of
    # their difference
    contrast = (c - c0 for c, c0 in zip((scenario.c1, scenario.c2, scenario.c3), _CONTROL_CURVE))
    out = _curve(*contrast, np.asarray(v, dtype=float))
    return float(out) if out.ndim == 0 else out


def _fill_truncated(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with standard normals conditioned on [-1, 1], by rejection.

    While ``need`` values are missing, a batch of max(16, int(1.6 need) + 8)
    normals keeps those in [-1, 1] (about 68 %), in draw order.
    """
    filled, size = 0, out.size
    while filled < size:
        need = size - filled
        batch = rng.standard_normal(max(16, int(need * 1.6) + 8))
        # gathered by index: a boolean mask gathers them several times slower
        keep = batch[np.flatnonzero(np.abs(batch) <= 1.0)]
        take = min(keep.size, need)
        out[filled:filled + take] = keep[:take]
        filled += take


def _block_draws(scenario: Scenario, rngs: list) -> tuple[np.ndarray, ...]:
    """The draws of a block that take no coefficient and no censoring mean.

    Each generator draws, in this order, the n treatment uniforms, the n
    marks, the n truncated normal residuals by :func:`_fill_truncated` and
    the n unit exponentials that, times the arm's censoring mean, are the
    censoring times; the rest runs once on the whole block. Returns the arm,
    the mark v, sin(2 pi v), the residuals and the unit exponentials as
    (R, n) arrays, row i from the i-th generator; every c3 point of a sweep
    reads these same draws.
    """
    n, count = scenario.n, len(rngs)
    uniform = np.empty((count, 2, n))  # the treatment draws, then the marks
    # the residuals and unit exponentials; the failure and censoring times
    # are built on them in place
    t, c = np.empty((count, n)), np.empty((count, n))
    for i, rng in enumerate(rngs):
        rng.random(out=uniform[i])
        _fill_truncated(rng, t[i])
        rng.standard_exponential(out=c[i])
    arm = (uniform[:, 0] < scenario.p_treat).astype(np.int64)
    # a copy, so that a sweep's block does not hold the treatment uniforms
    # through all of its points
    v = uniform[:, 1].copy()
    return arm, v, np.sin(2.0 * np.pi * v), t, c


def generate_dataset(scenario: Scenario, draws) -> tuple[np.ndarray, ...]:
    """y, delta, mark and arm as (R, n) arrays, from a block's :func:`_block_draws`.

    Row i is the dataset of size scenario.n that the i-th generator draws
    from the generating model. Requires resolved censoring means (see
    :func:`resolve_censoring`). Marks are recorded only where the failure is
    observed. Fails if the configured coefficients produce a negative
    failure time. Only here do the coefficients and censoring means enter,
    so a sweep derives each c3 point's columns from one set of draws. Sums
    and products are the ones a single draw makes, in either operand order,
    so each row is bitwise the dataset its generator alone would give.
    """
    mu0, mu1 = scenario.censor_mean0, scenario.censor_mean1
    if mu0 is None or mu1 is None:
        raise SimulationError(
            "censoring means are unresolved; call resolve_censoring() first"
        )
    arm, v, wave, residual, unit_exp = draws
    t = residual + np.where(arm == 1, _curve(scenario.c1, scenario.c2, scenario.c3, v, wave),
                            _curve(*_CONTROL_CURVE, v, wave))
    if np.any(t < 0.0):
        raise SimulationError(
            "generating model produced a negative failure time; "
            "check the coefficient configuration"
        )
    c = unit_exp * np.array([mu0, mu1])[arm]
    observed = t <= c
    y = np.minimum(t, c, out=t)
    mark = np.where(observed, v, np.nan)
    delta = observed.astype(np.int64)
    return y, delta, mark, arm


def calibrate_censoring(scenario: Scenario, arm: int) -> float:
    """Exponential censoring mean of one arm whose censoring rate is ``scenario.censor_target``.

    A subject is censored when C = mu E, E a unit exponential, falls below its
    failure time T = m(V) + eps, so the rate of a mean mu is the population
    value E[(1 - exp(-T / mu)) 1{T > 0}] that :func:`_censoring_rate` computes,
    with no random draw. The rate falls as mu grows, and bisecting the bit
    patterns of mu over [2^-100, 2^100], by the same 60 steps on every run,
    ends at adjacent doubles lo < hi with rate(lo) > target >= rate(hi); the
    mean is hi. It depends only on the arm's mean curve and the target; the
    control arm's takes no coefficient. Fails, naming the rate, when the
    target is not below the rate at 2^-100, which is P(T > 0), the largest
    any mean reaches, to double precision.
    """
    curve = (scenario.c1, scenario.c2, scenario.c3) if arm == 1 else _CONTROL_CURVE
    rate = _censoring_rate(*curve)
    target = scenario.censor_target
    lo, hi = np.array(_MEAN_RANGE).view(np.int64).tolist()
    largest, smallest = rate(_MEAN_RANGE[0]), rate(_MEAN_RANGE[1])
    if not target < largest:
        raise SimulationError(
            f"calibration for arm {arm} cannot reach target {target:.3f}, too large for "
            f"this scenario; the largest censoring rate, P(T > 0), is {largest:.6g}"
        )
    if not smallest <= target:
        raise SimulationError(
            f"calibration for arm {arm} cannot reach target {target!r}, below "
            f"{smallest:.3g}, the smallest censoring rate it resolves"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate(float(np.int64(mid).view(np.float64))) > target:
            lo = mid
        else:
            hi = mid
    return float(np.int64(hi).view(np.float64))


def _censoring_rate(c1: float, c2: float, c3: float):
    """The censoring rate of an exponential mean, for the mean curve m = :func:`_curve`.

    Given V = v, write m = m(v), s = 1 / mu and L = max(-1, -m), the lowest
    residual with T > 0; the residual has density phi / z on [-1, 1], with
    z = Phi(1) - Phi(-1). Then

        E[exp(-s T) 1{T > 0} | v] z = phi(L) exp(-s (m + L)) R(s + L)
                                      - phi(1) exp(-s (m + 1)) R(s + 1),

    R the Mills ratio (1 - Phi) / phi, which keeps every factor finite, and
    the rate is P(T > 0) less the mean of that over V, taken by
    :func:`_mark_quadrature`. Where m >= 1, L = -1 and R(s - 1) is one
    number for all the nodes; only the nodes with |m| < 1 take a Mills ratio
    each.
    """
    v, w = _mark_quadrature(c1, c2, c3)
    m = _curve(c1, c2, c3, v)
    full = m >= 1.0
    w_full, excess = w[full], m[full] - 1.0
    bent = ~full & (m > -1.0)
    w_bent, m_bent = w[bent], m[bent]
    pdf_bent = np.exp(-0.5 * m_bent * m_bent) / _SQRT_2PI
    pdf1 = math.exp(-0.5) / _SQRT_2PI
    z = math.erf(_SQRT_HALF)
    # P(T > 0) z, with Phi(1) - Phi(-m) = (erf(1 / sqrt 2) + erf(m / sqrt 2)) / 2 where m < 1
    positive = w_full.sum() * z + w_bent @ np.array(
        [0.5 * (z + math.erf(x * _SQRT_HALF)) for x in m_bent.tolist()])

    def rate(mu: float) -> float:
        s = 1.0 / mu
        tail = pdf1 * _mills_ratio(s + 1.0)
        laplace = ((pdf1 * _mills_ratio(s - 1.0) - math.exp(-2.0 * s) * tail)
                   * (w_full @ np.exp(-s * excess)))
        if m_bent.size:
            mills = np.array([_mills_ratio(s - x) for x in m_bent.tolist()])
            laplace += w_bent @ (pdf_bent * mills - tail * np.exp(-s * (1.0 + m_bent)))
        return (positive - laplace) / z

    return rate


def _curve(c1: float, c2: float, c3: float, v, wave=None):
    """The mean curve c1 + c2 (1 - v) + c3 sin(2 pi v) at marks v.

    ``wave`` is sin(2 pi v) when the caller has it, so that a block of
    datasets evaluates the sine once for both arms.
    """
    if wave is None:
        wave = np.sin(2.0 * np.pi * v)
    return c1 + c2 * (1.0 - v) + c3 * wave


def _mark_quadrature(c1: float, c2: float, c3: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1]: a Fejer rule on each piece where :func:`_curve` is smooth.

    The curve turns where 2 pi c3 cos(2 pi v) = c2, and between its turns it
    crosses each of -1 and 1 at most once, where bisection finds the
    crossing; the censoring rate has a kink in v at each crossing, so no
    piece holds one.
    """
    curve = partial(_curve, c1, c2, c3)
    cuts = [0.0, 1.0]
    if abs(c2) < abs(2.0 * math.pi * c3):
        turn = math.acos(c2 / (2.0 * math.pi * c3)) / (2.0 * math.pi)
        cuts[1:1] = [turn, 1.0 - turn]
    breaks = list(cuts)
    for start, stop in zip(cuts, cuts[1:]):
        for level in (-1.0, 1.0):
            if not (curve(start) - level) * (curve(stop) - level) < 0.0:
                continue
            above, a, b = curve(start) > level, start, stop
            while a < (mid := 0.5 * (a + b)) < b:
                if (curve(mid) > level) == above:
                    a = mid
                else:
                    b = mid
            breaks.append(mid)
    breaks.sort()
    # Fejer's first rule of order n on (-1, 1): nodes cos(theta_j), theta_j = (j + 1/2) pi / n
    n = _QUADRATURE_ORDER
    theta = np.pi * (np.arange(n) + 0.5) / n
    k = np.arange(1, n // 2 + 1)[:, None]
    unit_w = (2.0 / n) * (1.0 - 2.0 * (np.cos(2 * k * theta) / (4.0 * k * k - 1.0)).sum(axis=0))
    lo, half = np.array(breaks[:-1])[:, None], 0.5 * np.diff(breaks)[:, None]
    return (lo + half * (1.0 + np.cos(theta))).ravel(), (half * unit_w).ravel()


def _mills_ratio(x: float) -> float:
    """(1 - Phi(x)) / phi(x), the standard normal Mills ratio."""
    if x < 26.0:
        return math.erfc(x * _SQRT_HALF) * math.exp(0.5 * x * x) * (0.5 * _SQRT_2PI)
    # the asymptotic series 1/x - 1/x^3 + 3/x^5 - ...; at x >= 26 its next
    # term is below 1e-18 relative
    step, term, total = 1.0 / (x * x), 1.0, 1.0
    for k in range(1, 9):
        term *= -(2 * k - 1) * step
        total += term
    return total / x


def resolve_censoring(scenario: Scenario) -> Scenario:
    """Fill in each unresolved censoring mean by :func:`calibrate_censoring` of that arm.

    A mean already set is kept; the calibrated ones depend on the arm's
    mean curve and the target only, not on the seed.
    """
    mu0, mu1 = scenario.censor_mean0, scenario.censor_mean1
    if mu0 is not None and mu1 is not None:
        return scenario
    return replace(
        scenario,
        censor_mean0=calibrate_censoring(scenario, 0) if mu0 is None else mu0,
        censor_mean1=calibrate_censoring(scenario, 1) if mu1 is None else mu1,
    )


def _replication_seed(seed: int, rep: int, stream: int) -> np.random.SeedSequence:
    """Stream 0 (the data) or 1 (the multipliers) of replication ``rep``.

    Built directly, it is the ``stream``-th child that ``.spawn(2)`` gives of
    the replication's own sequence.
    """
    return np.random.SeedSequence(entropy=seed,
                                  spawn_key=(_REPLICATION_SPACE, rep, stream))


@dataclass(frozen=True, eq=False)
class MetricsTable:
    """Per-grid-point bias, sd-ratio and interval coverage across replications.

    ``ratio`` is the mean estimated standard deviation of tau over the
    empirical standard deviation of the replicated estimates; NaN (with a
    warning at build time) when only one replication was run. ``*_se`` are
    Monte Carlo standard errors; the ratio one is a delta-method
    approximation.
    """

    points: np.ndarray
    true_tau: np.ndarray
    bias: np.ndarray
    bias_se: np.ndarray
    ratio: np.ndarray
    ratio_se: np.ndarray
    coverage: np.ndarray
    coverage_se: np.ndarray


def _replication_draws(scenario: Scenario, reps: range) -> tuple[np.ndarray, ...]:
    """:func:`_block_draws` of replications ``reps``, replication r from data stream (r, 0)."""
    return _block_draws(scenario, [np.random.default_rng(_replication_seed(scenario.seed, r, 0))
                                   for r in reps])


def _block_estimates(scenario: Scenario, draws, rows: slice):
    """:func:`~marktau.estimator._estimate_block` of some rows of a block.

    The rows' columns are derived from their ``draws`` under the scenario,
    and every check of a single replication runs on each.
    """
    y, delta, mark, arm = generate_dataset(scenario, [draw[rows] for draw in draws])
    return _estimate_block(y, delta, mark, arm, scenario.grid.points, alpha=scenario.alpha,
                           bandwidth=None, varpi=scenario.varpi)


def _replayed(stage, rows: int):
    """``stage(slice(0, rows))``, where a failing block is replayed one row at a time.

    So the error raised is that of the block's first failing replication, as
    a run of single replications would raise it.
    """
    try:
        return stage(slice(0, rows))
    except ValueError:
        if rows > 1:
            for i in range(rows):
                stage(slice(i, i + 1))
        raise


def _metrics_rep(args: tuple[Scenario, range]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau, its estimated sd and interval coverage, (R, g) each, for a block of replications."""
    scenario, reps = args
    draws = _replication_draws(scenario, reps)
    truth = true_tau(scenario, scenario.grid.points)

    def metrics(rows: slice):
        bandwidths, est, _ = _block_estimates(scenario, draws, rows)
        nh = scenario.n * np.array([bw.h for bw in bandwidths])[:, None]
        covered = (est["ci_lower"] <= truth) & (truth <= est["ci_upper"])
        return est["tau"], np.sqrt(est["sigma2"] / nh), covered

    return _replayed(metrics, len(reps))


def _map_replications(worker, items: list, workers: int) -> list:
    """``worker`` on each block, results in block order.

    One pool runs all the blocks, with at most one worker per block; a run
    of one block or one worker stays in process.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [worker(item) for item in items]
    # imported here: it loads multiprocessing, which an in-process run never needs
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items, chunksize=chunk))


def _blocks(scenario: Scenario, resamples: int = 0) -> list[range]:
    """Blocks of about ``_BLOCK_ROWS`` rows over the scenario's replications.

    A power block, of ``resamples`` B > 0, also holds at most ``_BLOCK_BYTES``
    in its one array of multiplier normals, B x g per replication, and its
    replications' 2 g x g Gram entries.
    """
    size = _BLOCK_ROWS // scenario.n
    if resamples:
        g = scenario.grid.points.size
        size = min(size, _BLOCK_BYTES // (8 * g * (resamples + 2 * g)))
    size = max(1, size)
    return [range(lo, min(lo + size, scenario.reps)) for lo in range(0, scenario.reps, size)]


def run_replications(scenario: Scenario, *, workers: int = 1) -> MetricsTable:
    """Replicate estimation under a scenario and aggregate quality metrics.

    Replication r draws its dataset from a stream derived from
    (scenario.seed, r). Replications run in the blocks of :func:`_blocks`
    through one pool of at most ``workers`` processes, none beyond the
    block count, and every sum of a replication adds its own terms in record
    order, so the table is identical for any block size and worker count;
    aggregation runs in replication order.
    """
    scenario = resolve_censoring(scenario)
    grid = scenario.grid
    reps = scenario.reps
    taus, sds, covered = (
        np.concatenate(part)
        for part in zip(*_map_replications(_metrics_rep,
                                           [(scenario, block) for block in _blocks(scenario)],
                                           workers))
    )
    truth = true_tau(scenario, grid.points)

    bias = taus.mean(axis=0) - truth
    coverage = covered.mean(axis=0)
    coverage_se = np.sqrt(coverage * (1.0 - coverage) / reps)
    if reps < 2:
        warnings.warn("ratio requires at least 2 replications; reporting NaN")
        bias_se, ratio, ratio_se = (np.full(grid.points.size, np.nan) for _ in range(3))
    else:
        emp_sd = taus.std(axis=0, ddof=1)
        bias_se = emp_sd / math.sqrt(reps)
        mean_sd = sds.mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = mean_sd / emp_sd
            # delta method, treating the replications as iid and the estimated
            # sd as roughly chi-distributed
            ratio_se = ratio * np.sqrt(
                sds.var(axis=0, ddof=1) / reps / mean_sd**2 + 1.0 / (2.0 * (reps - 1))
            )
    return MetricsTable(
        points=grid.points, true_tau=truth, bias=bias, bias_se=bias_se,
        ratio=ratio, ratio_se=ratio_se, coverage=coverage, coverage_se=coverage_se,
    )


@dataclass(frozen=True, eq=False)
class PowerTable:
    """Rejection rates of one test kind across a sweep of c3 values.

    ``censor_mean0`` is the control arm's censoring mean at every point and
    ``censor_mean1`` the treated arm's at each c3, given or calibrated.
    """

    c3: np.ndarray
    rate: np.ndarray
    se: np.ndarray
    rejections: np.ndarray
    censor_mean0: float
    censor_mean1: np.ndarray


def _test_rep(args: tuple[list[Scenario], range, str, int]) -> list:
    """The sweep worker: whether the test rejects, per c3 point and replication of a block.

    ``args`` holds the sweep's scenarios, one per c3 point, and a block of
    replications. The block makes its data draws (replication r from stream
    (r, 0)) and its one array of multiplier normals (row r from stream
    (r, 1), B x g of them) once, and every point reads them: a point's block
    estimate, derived from the shared draws as in :func:`_metrics_rep`, goes
    whole to one call of the block test, where replication r reads the first
    B x k normals of its row, k its usable points there, so each test gets
    the numbers it would get alone; :func:`_blocks` bounds the array.
    Returns one list of flags per point, in point order; at the first point
    that fails, the list ends with the error of that point's first failing
    replication.
    """
    scenarios, reps, kind, resamples = args
    draws = _replication_draws(scenarios[0], reps)
    normals = multiplier_draws([_replication_seed(scenarios[0].seed, r, 1) for r in reps],
                               resamples, scenarios[0].grid.points.size)
    outcomes: list = []
    for scenario in scenarios:
        try:
            outcomes.append(_replayed(partial(_point_tests, scenario, draws, normals, kind),
                                      len(reps)))
        except ValueError as exc:
            outcomes.append(exc)
            break
    return outcomes


def _point_tests(scenario: Scenario, draws, normals: np.ndarray, kind: str,
                 rows: slice) -> list[bool]:
    """Whether the test rejects at one c3 point, for some rows of a block."""
    stat, _, crit, _, _ = _test_from_estimate(
        kind, _block_estimates(scenario, draws, rows), normals[rows], alpha=scenario.alpha)
    return (stat > crit).tolist()


def rejection_rate(scenario: Scenario, kind: str, *, resamples: int = 500,
                   workers: int = 1) -> tuple[float, int]:
    """Fraction of replications on which the test rejects, with the raw count.

    This is :func:`size_power_curve` at the scenario's own c3, so its
    replications share one worker pool too.
    """
    table = size_power_curve(scenario, [scenario.c3], kind, resamples=resamples,
                             workers=workers)
    return float(table.rate[0]), int(table.rejections[0])


def size_power_curve(scenario: Scenario, c3_values, kind: str, *,
                     resamples: int = 500, workers: int = 1) -> PowerTable:
    """Rejection rate of one test across c3 values.

    The test settings are checked first, then every c3 point gets its censoring
    means: an unresolved mean is calibrated once for the control arm, whose
    failure times take no coefficient, and :func:`resolve_censoring` calibrates
    the treated arm at every c3, so a point that cannot be calibrated fails the
    sweep before any replication runs. The blocks of :func:`_blocks`, whose
    memory is bounded, share one worker pool, and each holds every c3 point, so
    the block count does not grow with the points. A block draws its
    replications' data and multiplier normals once, and every point reads them
    (see :func:`_test_rep`): only the treated mean and its censoring mean
    change with c3. Each test reads only its own estimate, Grams and row of
    normals and gets the numbers it would get alone, so the counts are the same
    for any block size and worker count. A failing sweep raises the error of
    its first failing replication at its first failing point, as the points run
    one after another would.
    """
    c3_values = np.asarray(c3_values, dtype=float)
    if c3_values.size == 0:
        raise SimulationError("need at least one c3 value")
    _check_resamples(resamples)
    _check_kind(kind)
    if scenario.censor_mean0 is None:
        scenario = replace(scenario, censor_mean0=calibrate_censoring(scenario, 0))
    points = [resolve_censoring(replace(scenario, c3=float(c3))) for c3 in c3_values]
    blocks = [(points, reps, kind, resamples) for reps in _blocks(scenario, resamples)]
    outcomes = _map_replications(_test_rep, blocks, workers)
    rejections = np.zeros(c3_values.size, np.int64)
    # point-major, so a failure at an earlier point wins whichever block it is in
    for p in range(c3_values.size):
        for outcome in outcomes:
            if isinstance(outcome[p], ValueError):
                raise outcome[p]
            rejections[p] += sum(outcome[p])
    rates = rejections / scenario.reps
    se = np.sqrt(rates * (1.0 - rates) / scenario.reps)
    return PowerTable(c3=c3_values, rate=rates, se=se, rejections=rejections,
                      censor_mean0=scenario.censor_mean0,
                      censor_mean1=np.array([point.censor_mean1 for point in points]))
