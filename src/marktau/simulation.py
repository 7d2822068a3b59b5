"""Monte Carlo engine: data generation, censoring calibration, and study drivers.

The generating model draws treatment A ~ Bernoulli(p_treat), a latent mark
V ~ Uniform[0,1], a residual from a standard normal truncated to [-1, 1],
and sets the failure time to the arm's mean curve at V plus the residual.
Censoring is exponential with an arm-specific mean, calibrated in closed
form so that roughly a target fraction of subjects is censored. The mark is
observed only on uncensored subjects.

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

from .data_model import Dataset, MarkInterval, _arm_sizes
from .estimator import EvaluationGrid, _estimate_block, _row_estimate
from .estimator import _estimate_with_terms  # noqa: F401 - rebound by perfbench/spans.py
from .inference import _check_kind, _check_resamples, _test_from_estimate, arm_grams
from .inference import multiplier_draws  # noqa: F401 - rebound by perfbench/spans.py

__all__ = [
    "SimulationError",
    "Scenario",
    "MetricsTable",
    "PowerTable",
    "true_tau",
    "truncated_std_normal",
    "generate_dataset",
    "calibrate_censoring",
    "resolve_censoring",
    "run_replications",
    "size_power_curve",
]

# Seed-space tags: calibration uses (0, arm), replication r uses (1, r).
_CALIBRATION_SPACE = 0
_REPLICATION_SPACE = 1
# Monte Carlo draws per arm in the censoring calibration, and how far its
# achieved rate may fall from the target.
_CALIBRATION_DRAWS = 200_000
_CALIBRATION_TOL = 0.005
# Rows of the (replications, n) arrays that a study's replications run in at once.
_BLOCK_ROWS = 10_000


class SimulationError(ValueError):
    """Invalid scenario configuration or a failed calibration."""


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration; all randomness derives from ``seed``.

    ``censor_mean0``/``censor_mean1`` of None mean "calibrate to
    ``censor_target``"; :func:`resolve_censoring` fills them in.
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
        if not 0.0 < self.alpha < 1.0:
            raise SimulationError(f"alpha must be in (0,1), got {self.alpha!r}")
        if not (math.isfinite(self.varpi) and self.varpi > 0.0):
            raise SimulationError(f"bandwidth scale must be positive, got {self.varpi!r}")
        for mu in (self.censor_mean0, self.censor_mean1):
            if mu is not None and not mu > 0.0:
                raise SimulationError(f"censoring means must be positive, got {mu!r}")
        if not 0.0 < self.censor_target < 1.0:
            raise SimulationError(
                "censoring target must be strictly inside (0,1); "
                f"got {self.censor_target!r} and 0 is unreachable under "
                "exponential censoring"
            )


# The arms' mean curves at marks v, given wave = sin(2 pi v), so that a block
# of datasets evaluates the sine once for both arms.
def _control_mean(wave):
    return 3.0 - 2.0 * wave


def _treated_mean(scenario: Scenario, v, wave):
    return scenario.c1 + scenario.c2 * (1.0 - v) + scenario.c3 * wave


def true_tau(scenario: Scenario, v):
    """True contrast (c1 - 3) + c2 (1 - v) + (c3 + 2) sin(2 pi v).

    This is the mean contrast mu1(v) - mu0(v). It equals the estimand, the
    density-weighted contrast f1(v) mu1(v) - f0(v) mu0(v), because the model
    draws V ~ U[0, 1] in both arms, so f1 = f0 = 1.
    """
    v = np.asarray(v, dtype=float)
    out = (
        (scenario.c1 - 3.0)
        + scenario.c2 * (1.0 - v)
        + (scenario.c3 + 2.0) * np.sin(2.0 * np.pi * v)
    )
    return float(out) if out.ndim == 0 else out


def truncated_std_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal conditioned on [-1, 1], by rejection (acceptance ~ 0.683)."""
    out = np.empty(size)
    _fill_truncated(rng, out, 0)
    return out


def _first_batch(need: int) -> int:
    """Normals the rejection sampler draws at once while ``need`` values are missing."""
    return max(16, int(need * 1.6) + 8)


def _fill_truncated(rng: np.random.Generator, out: np.ndarray, filled: int) -> None:
    """Fill ``out[filled:]`` as :func:`truncated_std_normal` continues from there."""
    size = out.size
    while filled < size:
        need = size - filled
        batch = rng.standard_normal(_first_batch(need))
        # gathered by index: a boolean mask gathers them several times slower
        keep = batch[np.flatnonzero(np.abs(batch) <= 1.0)]
        take = min(keep.size, need)
        out[filled:filled + take] = keep[:take]
        filled += take


def generate_dataset(scenario: Scenario, rng: np.random.Generator) -> Dataset:
    """Draw one dataset of size scenario.n from the generating model.

    Requires resolved censoring means (see :func:`resolve_censoring`). Marks
    are recorded only where the failure is observed. Fails if the configured
    coefficients produce a negative failure time. This is
    :func:`_block_columns` on a block of one draw.
    """
    return Dataset.from_arrays(*(column[0] for column in _block_columns(scenario, [rng])))


def _block_columns(scenario: Scenario, rngs: list) -> tuple[np.ndarray, ...]:
    """y, delta, mark and arm as (R, n) arrays, row i drawn from the i-th generator.

    Each generator draws, in this order, the n treatment uniforms, the n
    marks, the n truncated normal residuals and the n unit exponentials
    that, times the arm's censoring mean, are the censoring times; the rest
    runs once on the whole block. The residuals' first rejection batch of
    every generator is screened in one pass, and only a row it leaves short
    draws further batches, before its exponentials. Sums and products are
    the ones a single draw makes, in either operand order, so each row is
    bitwise the dataset its generator alone would give.
    """
    mu0, mu1 = scenario.censor_mean0, scenario.censor_mean1
    if mu0 is None or mu1 is None:
        raise SimulationError(
            "censoring means are unresolved; call resolve_censoring() first"
        )
    n, count = scenario.n, len(rngs)
    uniform = np.empty((count, 2, n))  # the treatment draws, then the marks
    normals = np.empty((count, _first_batch(n)))
    for i, rng in enumerate(rngs):
        rng.random(out=uniform[i])
        rng.standard_normal(out=normals[i])
    # every row's accepted normals, row after row, and where each row's
    # start (a boolean mask gathers them several times slower)
    accepted = np.abs(normals) <= 1.0
    counts = np.count_nonzero(accepted, axis=1)
    kept = normals.reshape(-1)[np.flatnonzero(accepted)]
    starts = np.cumsum(counts) - counts
    del normals, accepted
    # the residuals and unit exponentials; the failure and censoring times
    # are built on them in place
    t, c = np.empty((count, n)), np.empty((count, n))
    full = counts >= n
    t[full] = kept[starts[full, None] + np.arange(n)]
    for i, rng in enumerate(rngs):
        if not full[i]:
            t[i, :counts[i]] = kept[starts[i]:starts[i] + counts[i]]
            _fill_truncated(rng, t[i], int(counts[i]))
        rng.standard_exponential(out=c[i])
    arm = (uniform[:, 0] < scenario.p_treat).astype(np.int64)
    v = uniform[:, 1]
    wave = np.sin(2.0 * np.pi * v)
    t += np.where(arm == 1, _treated_mean(scenario, v, wave), _control_mean(wave))
    if np.any(t < 0.0):
        raise SimulationError(
            "generating model produced a negative failure time; "
            "check the coefficient configuration"
        )
    c *= np.array([mu0, mu1])[arm]
    observed = t <= c
    y = np.minimum(t, c, out=t)
    mark = np.where(observed, v, np.nan)
    delta = observed.astype(np.int64)
    return y, delta, mark, arm


def calibrate_censoring(scenario: Scenario, arm: int) -> float:
    """Exponential censoring mean of one arm hitting ``scenario.censor_target``.

    One Monte Carlo set of (V, residual, unit-exponential) draws is held
    fixed, so the estimated censoring rate count(mu E < T) / N is a step
    function of the mean that falls at each ratio T / E. The mean is the
    smallest one whose rate is at most the target: the (k + 1)-th largest
    ratio, with k the largest count for which k / N <= target.
    Deterministic given ``scenario.seed`` and ``arm``; the control arm's
    mean does not depend on the coefficients. Fails when that ratio is not
    positive, or when the rate it achieves misses the target by more than
    0.5 percentage points.
    """
    return _solve_censoring(scenario, arm, _calibration_draws(scenario.seed, arm))


def _calibration_draws(seed: int, arm: int) -> tuple[np.ndarray, ...]:
    """The draws that calibrate ``arm``: V, sin(2 pi V), residuals, unit exponentials.

    No coefficient enters them, so a sweep draws them once.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_CALIBRATION_SPACE, arm))
    rng = np.random.default_rng(ss)
    v = rng.random(_CALIBRATION_DRAWS)
    eps = truncated_std_normal(rng, _CALIBRATION_DRAWS)
    return v, np.sin(2.0 * np.pi * v), eps, rng.exponential(1.0, _CALIBRATION_DRAWS)


def _largest_count(target: float, draws: int) -> int:
    """The largest k with k / draws <= target, by the comparison the achieved rate makes.

    The rounded quotient k / draws rises with k, so k starts at
    floor(target * draws) and steps until it is the last k that passes.
    """
    k = math.floor(target * draws)
    while (k + 1) / draws <= target:
        k += 1
    while k / draws > target:
        k -= 1
    return k


def _solve_censoring(scenario: Scenario, arm: int, sample) -> float:
    """:func:`calibrate_censoring` on a ``sample`` from :func:`_calibration_draws`."""
    target, draws = scenario.censor_target, _CALIBRATION_DRAWS
    # the (k + 1)-th largest ratio sits at ascending position N - 1 - k
    rank = draws - 1 - _largest_count(target, draws)
    v, wave, eps, unit_exp = sample
    t = (_treated_mean(scenario, v, wave) if arm == 1 else _control_mean(wave)) + eps
    # partitioned in place: a sweep holds the sample, and a copy here would
    # set the sweep's peak memory
    ratio = t / unit_exp
    ratio.partition(rank)
    mu = float(ratio[rank])
    del ratio
    if not mu > 0.0:
        raise SimulationError(
            f"calibration for arm {arm} needs a censoring mean of {mu!r}; "
            f"target {target:.3f} is too large for this scenario"
        )
    # censored exactly when C = mu * E falls strictly below T
    achieved = np.count_nonzero(mu * unit_exp < t) / draws
    if abs(achieved - target) > _CALIBRATION_TOL:
        raise SimulationError(
            f"calibration for arm {arm} reached rate {achieved:.4f}, "
            f"more than {_CALIBRATION_TOL:.3f} from target {target:.3f}"
        )
    return mu


def resolve_censoring(scenario: Scenario) -> Scenario:
    """Fill in each unresolved censoring mean by calibrating that arm."""
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


def _block_estimates(scenario: Scenario, reps: range):
    """Arm sizes and :func:`~marktau.estimator._estimate_block` of a block of replications.

    Replication r draws its data from stream (r, 0), and every check of a
    single replication runs on each.
    """
    rngs = [np.random.default_rng(_replication_seed(scenario.seed, r, 0)) for r in reps]
    y, delta, mark, arm = _block_columns(scenario, rngs)
    sizes = _arm_sizes(arm)
    return sizes, *_estimate_block(y, delta, mark, arm, scenario.grid.points,
                                   alpha=scenario.alpha, bandwidth=None,
                                   varpi=scenario.varpi)


def _metrics_rep(args: tuple[Scenario, range]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau, its estimated sd and interval coverage, (R, g) each, for a block of replications."""
    scenario, reps = args
    _, bandwidths, est, _ = _block_estimates(scenario, reps)
    nh = scenario.n * np.array([bw.h for bw in bandwidths])[:, None]
    truth = true_tau(scenario, scenario.grid.points)
    covered = (est["ci_lower"] <= truth) & (truth <= est["ci_upper"])
    return est["tau"], np.sqrt(est["sigma2"] / nh), covered


def _replayed(worker, item: tuple):
    """``worker(item)``, where a failing block is replayed one replication at a time.

    So the error raised is that of the block's first failing replication, as
    a run of single replications would raise it.
    """
    try:
        return worker(item)
    except ValueError:
        scenario, reps, *extra = item
        if len(reps) > 1:
            for r in reps:
                worker((scenario, range(r, r + 1), *extra))
        raise


def _map_replications(worker, items: list, workers: int) -> list:
    """``worker`` on each block through :func:`_replayed`, results in block order.

    One pool runs all the blocks, with at most one worker per block; a run
    of one block or one worker stays in process.
    """
    run, workers = partial(_replayed, worker), min(workers, len(items))
    if workers <= 1:
        return [run(item) for item in items]
    # imported here: it loads multiprocessing, which an in-process run never needs
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items, chunksize=chunk))


def _blocks(scenario: Scenario, *extra) -> list[tuple]:
    """Blocks of about ``_BLOCK_ROWS`` rows over the scenario's replications."""
    size = max(1, _BLOCK_ROWS // scenario.n)
    return [(scenario, range(lo, min(lo + size, scenario.reps)), *extra)
            for lo in range(0, scenario.reps, size)]


def run_replications(scenario: Scenario, *, workers: int = 1) -> MetricsTable:
    """Replicate estimation under a scenario and aggregate quality metrics.

    Replication r draws its dataset from a stream derived from
    (scenario.seed, r). Replications run in blocks of about
    ``_BLOCK_ROWS`` rows through one pool of at most ``workers`` processes,
    none beyond the block count, and every sum of a replication adds its own
    terms in record order, so the table is identical for any block size and
    worker count; aggregation runs in replication order.
    """
    scenario = resolve_censoring(scenario)
    grid = scenario.grid
    reps = scenario.reps
    taus, sds, covered = (
        np.concatenate(part)
        for part in zip(*_map_replications(_metrics_rep, _blocks(scenario), workers))
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
    """Rejection rates of one test kind across a sweep of c3 values."""

    c3: np.ndarray
    rate: np.ndarray
    se: np.ndarray
    rejections: np.ndarray


def _test_rep(args: tuple[Scenario, range, str, int]) -> list[bool]:
    """Whether the test rejects, for each replication of a block.

    The block is estimated as in :func:`_metrics_rep`, and one
    :func:`~marktau.inference.arm_grams` pass gives every replication's
    Grams; then one call of the block test runs every replication's test on
    its own estimate, Grams and multiplier stream (r, 1).
    """
    scenario, reps, kind, resamples = args
    points = scenario.grid.points
    (n1, n0), bandwidths, columns, terms = _block_estimates(scenario, reps)
    ests = [_row_estimate(points, bandwidths, columns, i,
                          n=scenario.n, n0=int(n0[i]), n1=int(n1[i]))
            for i in range(len(reps))]
    seeds = [_replication_seed(scenario.seed, r, 1) for r in reps]
    results = _test_from_estimate(kind, ests, arm_grams(terms, points.size), seeds,
                                  resamples=resamples, alpha=scenario.alpha)
    return [result.reject for result in results]


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

    The test settings are checked first, then every c3 point gets its
    censoring means before any replication runs: an unresolved mean is
    calibrated once for the control arm, whose failure times take no
    coefficient, and at every c3 for the treated arm from one set of its
    draws, which take none either. The blocks of all points then share one
    worker pool as in :func:`run_replications`. Each block runs its
    replications' tests in one call of the block test, where each test
    reads only its own estimate, Grams and multiplier stream and gets the
    numbers it would get alone, so the counts are the same for any block
    size and worker count.
    """
    c3_values = np.asarray(c3_values, dtype=float)
    if c3_values.size == 0:
        raise SimulationError("need at least one c3 value")
    _check_resamples(resamples)
    _check_kind(kind)
    if scenario.censor_mean0 is None:
        scenario = replace(scenario, censor_mean0=calibrate_censoring(scenario, 0))
    points = [replace(scenario, c3=float(c3)) for c3 in c3_values]
    if scenario.censor_mean1 is None:
        treated_draws = _calibration_draws(scenario.seed, 1)
        points = [replace(point, censor_mean1=_solve_censoring(point, 1, treated_draws))
                  for point in points]
    blocks = [block for point in points for block in _blocks(point, kind, resamples)]
    flags = [flag for block in _map_replications(_test_rep, blocks, workers) for flag in block]
    rejections = np.array(flags).reshape(c3_values.size, scenario.reps).sum(axis=1)
    rates = rejections / scenario.reps
    se = np.sqrt(rates * (1.0 - rates) / scenario.reps)
    return PowerTable(c3=c3_values, rate=rates, se=se, rejections=rejections)
