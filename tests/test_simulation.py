import concurrent.futures
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import marktau as mt
from marktau import inference, simulation
from marktau.data_model import validate
from marktau.estimator import _estimate_block, _estimate_with_terms
from marktau.inference import TEST_KINDS, InferenceError, _test_from_estimate, arm_grams
from marktau.simulation import (
    SimulationError,
    _block_draws,
    _metrics_rep,
    _replication_seed,
    _test_rep,
    calibrate_censoring,
    generate_dataset,
    rejection_rate,
    resolve_censoring,
    true_tau,
)
from oracles import (censoring_mean, censoring_rate, control_mean, draw_dataset,
                     generated_columns, positive_share, treated_mean, truncated_std_normal)


def _scenario(**kw):
    base = dict(c1=3.0, c2=0.0, c3=-1.0, n=200, reps=1, seed=0,
                censor_mean0=5.440745, censor_mean1=5.757202)
    base.update(kw)
    return mt.Scenario(**base)


def test_true_tau_vanishes_on_the_null():
    scenario = _scenario(c3=-2.0)
    v = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(true_tau(scenario, v), 0.0, atol=1e-12)


def test_true_tau_hand_values():
    scenario = _scenario(c3=-1.0)
    assert true_tau(scenario, 0.25) == pytest.approx(1.0, rel=1e-12)
    assert true_tau(scenario, 0.75) == pytest.approx(-1.0, rel=1e-12)
    assert control_mean(0.25) == pytest.approx(1.0, rel=1e-12)
    assert treated_mean(scenario, 0.25) == pytest.approx(2.0, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(1.5, 6.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0),
    st.floats(0.0, 1.0),
)
def test_true_tau_is_curve_difference(c1, c2, c3, v):
    scenario = _scenario(c1=c1, c2=c2, c3=c3)
    diff = treated_mean(scenario, v) - control_mean(v)
    assert true_tau(scenario, v) == pytest.approx(diff, abs=1e-12)


def test_truncated_normal_draws():
    rng = np.random.default_rng(12)
    draws = truncated_std_normal(rng, 1_000_000)
    assert draws.shape == (1_000_000,)
    assert np.all(np.abs(draws) <= 1.0)
    assert abs(float(np.mean(draws))) <= 0.005

    # distribution check against the truncated-normal CDF
    z = stats.norm.cdf(1.0) - stats.norm.cdf(-1.0)
    ks = stats.kstest(
        draws[:200_000],
        lambda x: (stats.norm.cdf(x) - stats.norm.cdf(-1.0)) / z,
    )
    assert ks.statistic < 0.005


def test_generate_dataset_moments():
    scenario = _scenario(n=100_000)
    ds = draw_dataset(scenario, np.random.default_rng(77))
    assert ds.n == scenario.n
    se = math.sqrt(2.0 / 9.0 / scenario.n)
    assert abs(ds.n1 / ds.n - 2.0 / 3.0) <= 3.0 * se
    rate = 1.0 - float(np.mean(ds.delta))
    assert 0.38 <= rate <= 0.42
    # marks recorded exactly on observed failures
    assert np.all(np.isnan(ds.mark[ds.delta == 0]))
    assert np.all(~np.isnan(ds.mark[ds.delta == 1]))
    assert validate(ds).ok


def test_block_rows_are_each_generators_own_draws():
    # at n = 30 the first rejection batch of 56 normals leaves a row short of
    # 30 accepted values about once in a hundred; such a row draws further
    # batches before its exponentials
    scenario = _scenario(n=30)
    seeds = range(400)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    block = generate_dataset(scenario, _block_draws(scenario, rngs))
    short = 0
    for i, seed in enumerate(seeds):
        want = generated_columns(scenario, np.random.default_rng(seed))
        for got, column in zip(block, want, strict=True):
            assert got[i].dtype == column.dtype and got[i].tobytes() == column.tobytes()
        rng = np.random.default_rng(seed)
        rng.random((2, scenario.n))
        short += np.count_nonzero(np.abs(rng.standard_normal(56)) <= 1.0) < scenario.n
    assert short > 0


def test_generate_dataset_requires_resolved_means():
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=50, reps=1, seed=0)
    with pytest.raises(SimulationError, match="unresolved"):
        draw_dataset(scenario, np.random.default_rng(0))


def test_generate_dataset_rejects_negative_failure_times():
    scenario = _scenario(c1=-10.0, c3=0.0, n=500)
    with pytest.raises(SimulationError, match="negative failure time"):
        draw_dataset(scenario, np.random.default_rng(0))


def test_calibration_against_quadrature():
    # with c3 = 0 the treated failure time is 3 + eps and the censoring rate
    # P(C < T) = E[1 - exp(-T / mu)] has a one-dimensional integral form;
    # solving that for a 40% rate gives the reference value below
    from scipy.integrate import quad
    from scipy.optimize import brentq

    z = stats.norm.cdf(1.0) - stats.norm.cdf(-1.0)

    def censor_rate(mu):
        integrand = lambda e: (1.0 - np.exp(-(3.0 + e) / mu)) * stats.norm.pdf(e) / z
        return quad(integrand, -1.0, 1.0)[0]

    mu_star = brentq(lambda mu: censor_rate(mu) - 0.4, 1.0, 20.0, xtol=1e-12)
    assert mu_star == pytest.approx(5.82395440196643, rel=1e-9)

    scenario = _scenario(c3=0.0, censor_mean0=None, censor_mean1=None)
    assert calibrate_censoring(scenario, 1) == pytest.approx(mu_star, rel=1e-9)

    # sanity anchor: a constant failure time T = 3 would need -3 / ln(0.6)
    assert abs(-3.0 / math.log(0.6) - mu_star) < 0.1


def test_calibration_hits_target_rate():
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=200, reps=1, seed=0)
    resolved = dataclasses.replace(resolve_censoring(scenario), n=200_000)
    ds = draw_dataset(resolved, np.random.default_rng(123))
    rate = 1.0 - float(np.mean(ds.delta))
    assert abs(rate - 0.4) <= 0.01


def test_calibration_is_deterministic():
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=200, reps=1, seed=0)
    for arm in (0, 1):
        assert calibrate_censoring(scenario, arm) == calibrate_censoring(scenario, arm)


def test_censoring_rate_decreases_in_mean():
    base = _scenario(n=100_000)
    doubled = dataclasses.replace(
        base, censor_mean0=2.0 * base.censor_mean0,
        censor_mean1=2.0 * base.censor_mean1,
    )
    r1 = 1.0 - float(np.mean(draw_dataset(base, np.random.default_rng(5)).delta))
    r2 = 1.0 - float(
        np.mean(draw_dataset(doubled, np.random.default_rng(5)).delta)
    )
    assert r2 < r1


@pytest.mark.parametrize("target", [0.0, 1.0, -0.2])
def test_calibration_target_must_be_interior(target):
    with pytest.raises(SimulationError, match="0 is unreachable"):
        mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=200, reps=1, seed=0,
                    censor_target=target)


@pytest.mark.parametrize("target", [0.1, 0.4, 0.7])
@pytest.mark.parametrize("c3", [-2.0, 0.0, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_calibration_matches_bisection_oracle(seed, c3, target):
    # the means are population values, so every seed gets the same ones
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=c3, n=200, reps=1, seed=seed,
                           censor_target=target)
    np.testing.assert_allclose(
        [calibrate_censoring(scenario, arm) for arm in (0, 1)],
        [censoring_mean(CONTROL, target), censoring_mean((3.0, 0.0, c3), target)], rtol=1e-8)


# (c1, c2, c3) of the control curve 3 - 2 sin(2 pi v), and of a treated curve
# 0.5 + 0.7 (1 - v) + 2 sin(2 pi v) that falls below 1 and below -1, so the
# residual's lower limit max(-1, -m(v)) bends and some failure times are negative
CONTROL = (3.0, 0.0, -2.0)
BENT = (0.5, 0.7, 2.0)


@pytest.mark.parametrize("target", [0.1, 0.4, 0.6])
def test_calibration_matches_the_oracle_where_the_residual_limit_bends(target):
    scenario = mt.Scenario(*BENT, n=200, reps=1, censor_target=target)
    assert calibrate_censoring(scenario, 1) == pytest.approx(censoring_mean(BENT, target),
                                                             rel=1e-8)


@pytest.mark.parametrize("treated, target", [
    ((3.0, 0.0, -1.0), 1e-3),
    ((3.0, 0.0, -1.0), 0.999),
    (BENT, 1e-3),
    (BENT, 0.6),
])
def test_calibration_at_extreme_targets_is_warning_free(treated, target):
    scenario = mt.Scenario(*treated, n=200, reps=1, censor_target=target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means = [calibrate_censoring(scenario, arm) for arm in (0, 1)]
    for curve, mu in zip((CONTROL, treated), means):
        assert censoring_rate(curve, mu) == pytest.approx(target, rel=1e-8)


def test_calibration_fails_without_a_positive_mean():
    # every failure time is negative, so no positive mean censors anyone
    scenario = mt.Scenario(c1=-10.0, c2=0.0, c3=0.0, n=200, reps=1, seed=0)
    with pytest.raises(SimulationError, match=re.escape(
            "calibration for arm 1 cannot reach target 0.400, too large for this scenario; "
            "the largest censoring rate, P(T > 0), is 0")):
        calibrate_censoring(scenario, 1)


def test_calibration_fails_below_the_smallest_rate_it_resolves():
    # at the largest mean, 2^100, the control arm still censors about 1.6e-16
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=100, censor_target=1e-40)
    with pytest.raises(SimulationError, match=re.escape(
            "calibration for arm 0 cannot reach target 1e-40, below 1.63e-16, "
            "the smallest censoring rate it resolves")):
        calibrate_censoring(scenario, 0)


@pytest.mark.parametrize("target", [0.62, 0.999])
def test_calibration_fails_at_or_above_the_share_of_positive_failure_times(target):
    # P(T > 0) is about 0.618 on the bent curve, and no mean censors more
    largest = positive_share(BENT)
    scenario = mt.Scenario(*BENT, n=200, reps=1, censor_target=target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="arm 1 .* too large") as raised:
            calibrate_censoring(scenario, 1)
    named = float(str(raised.value).rsplit(" ", 1)[1])
    assert named == pytest.approx(largest, rel=1e-5)
    assert calibrate_censoring(dataclasses.replace(scenario, censor_target=0.617), 1) > 0.0


def _count_calibrations(monkeypatch):
    """Record the arm of every censoring calibration the engine runs."""
    arms = []

    def counted(scenario, arm):
        arms.append(arm)
        return calibrate_censoring(scenario, arm)

    monkeypatch.setattr(simulation, "calibrate_censoring", counted)
    return arms


def test_resolve_censoring_fills_only_missing(monkeypatch):
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=200, reps=1, seed=0,
                           censor_mean0=6.0, censor_mean1=6.5)
    assert resolve_censoring(scenario) is scenario
    arms = _count_calibrations(monkeypatch)
    resolved = resolve_censoring(dataclasses.replace(scenario, censor_mean1=None))
    assert arms == [1]
    assert resolved.censor_mean0 == 6.0
    assert resolved.censor_mean1 == calibrate_censoring(scenario, 1)


def test_sweep_calibrates_the_control_arm_once(monkeypatch):
    # the control curve takes no coefficient, so its mean is the same at every c3
    scenario = mt.Scenario(
        c1=3.0, c2=0.0, c3=-2.0, n=100, reps=2, seed=0,
        grid=mt.EvaluationGrid.explicit([0.25, 0.5, 0.75], mt.MarkInterval(0.1, 0.9)),
    )
    mu0 = calibrate_censoring(scenario, 0)
    for c3 in (0.0, 2.0):
        assert calibrate_censoring(dataclasses.replace(scenario, c3=c3), 0) == mu0
    arms = _count_calibrations(monkeypatch)
    mt.size_power_curve(scenario, [-2.0, 0.0, 2.0], "global", resamples=10)
    assert arms == [0, 1, 1, 1]


def test_sweep_gives_each_point_its_own_treated_calibration(monkeypatch):
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-2.0, n=100, reps=2, seed=4)
    c3_values = [-2.0, -0.5, 1.0, 2.5]
    expected = [calibrate_censoring(dataclasses.replace(scenario, c3=c3), 1)
                for c3 in c3_values]
    means = []

    def record(args):
        points, reps, *_ = args
        means.extend(point.censor_mean1 for point in points)
        return [[False] * len(reps) for _ in points]

    monkeypatch.setattr(simulation, "_test_rep", record)
    mt.size_power_curve(scenario, c3_values, "global", resamples=10)
    # the 2 replications are one block, which holds every point
    assert means == expected  # exactly, not approximately


def test_sweep_checks_the_treated_calibration_at_every_c3():
    # every treated failure time is negative, so no positive mean censors anyone
    scenario = mt.Scenario(c1=-10.0, c2=0.0, c3=0.0, n=200, reps=1, seed=0)
    with pytest.raises(SimulationError, match="arm 1 .* too large for this scenario"):
        mt.size_power_curve(scenario, [0.0], "global", resamples=10)


def test_sweep_calibrates_every_point_before_any_replication(monkeypatch):
    # a treated failure time -0.5 + 5 sin(2 pi v) + eps is positive often
    # enough for a 40 % censoring rate, -0.5 + eps is not
    scenario = mt.Scenario(c1=-0.5, c2=0.0, c3=5.0, n=200, reps=2, seed=0)
    assert calibrate_censoring(scenario, 1) > 0.0
    monkeypatch.setattr(simulation, "_block_draws", None)  # no replication may start
    with pytest.raises(SimulationError, match="arm 1 .* too large for this scenario"):
        mt.size_power_curve(scenario, [5.0, 0.0], "global", resamples=10)


def test_replication_seeds_are_disjoint_streams():
    a = np.random.default_rng(_replication_seed(3, 0, 0)).random(4)
    b = np.random.default_rng(_replication_seed(3, 1, 0)).random(4)
    c = np.random.default_rng(_replication_seed(3, 0, 1)).random(4)
    assert not np.array_equal(a, b) and not np.array_equal(a, c)
    again = np.random.default_rng(_replication_seed(3, 0, 0)).random(4)
    np.testing.assert_array_equal(a, again)


@pytest.mark.parametrize("seed, rep", [(0, 0), (3, 7), (2**40 + 5, 499)])
def test_replication_seeds_equal_the_spawned_children(seed, rep):
    # the streams once came from spawning two children of (seed, (1, rep))
    children = np.random.SeedSequence(entropy=seed, spawn_key=(1, rep)).spawn(2)
    for stream, child in enumerate(children):
        direct = _replication_seed(seed, rep, stream)
        assert direct.state == child.state
        np.testing.assert_array_equal(direct.generate_state(8), child.generate_state(8))


def test_metrics_identical_across_worker_counts(monkeypatch):
    scenario = _scenario(
        n=200, reps=12,
        seed=31,
        grid=mt.EvaluationGrid.explicit(
            [0.2, 0.35, 0.5, 0.65, 0.8], mt.MarkInterval(0.1, 0.9)
        ),
    )
    # two blocks of 6 replications, so 2 and 8 workers both run a pool of two
    monkeypatch.setattr(simulation, "_BLOCK_ROWS", 6 * scenario.n)
    tables = [mt.run_replications(scenario, workers=w) for w in (1, 2, 8)]
    for other in tables[1:]:
        np.testing.assert_array_equal(tables[0].bias, other.bias)
        np.testing.assert_array_equal(tables[0].ratio, other.ratio)
        np.testing.assert_array_equal(tables[0].coverage, other.coverage)


def _recorded_pools(monkeypatch):
    """Record the ``max_workers`` of every process pool the engine builds.

    The recording pool maps in this process, so no test here starts one.
    """
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return built


def test_one_pool_per_study_and_no_more_workers_than_blocks(monkeypatch):
    # at n = 300 a block holds 33 replications, so all 8 are one block, which
    # holds every c3 point of a sweep
    scenario = _scenario(n=300, reps=8, seed=5, grid=mt.EvaluationGrid.explicit(
        [0.25, 0.5, 0.75], mt.MarkInterval(0.1, 0.9)))
    c3_values = [-2.0, -1.0, 0.0]
    in_process = mt.size_power_curve(scenario, c3_values, "global", resamples=20)
    built = _recorded_pools(monkeypatch)
    # one block runs in process, whatever the worker count
    pooled = mt.size_power_curve(scenario, c3_values, "global", resamples=20, workers=2)
    rejection_rate(scenario, "global", resamples=20, workers=5000)
    mt.run_replications(scenario, workers=5000)
    assert built == []
    np.testing.assert_array_equal(pooled.rejections, in_process.rejections)
    # blocks of 4 replications: two for the sweep, then two for the study
    monkeypatch.setattr(simulation, "_BLOCK_ROWS", 4 * scenario.n)
    pooled = mt.size_power_curve(scenario, c3_values, "global", resamples=20, workers=5000)
    mt.run_replications(scenario, workers=5000)
    assert built == [2, 2]
    np.testing.assert_array_equal(pooled.rejections, in_process.rejections)


def test_sweep_blocks_do_not_grow_with_its_points(monkeypatch):
    scenario = _scenario(n=300, reps=8, seed=5, grid=mt.EvaluationGrid.explicit(
        [0.25, 0.5, 0.75], mt.MarkInterval(0.1, 0.9)))
    received = []
    mapped = simulation._map_replications

    def recorded(worker, items, workers):
        received.append([(len(points), reps) for points, reps, *_ in items])
        return mapped(worker, items, workers)

    monkeypatch.setattr(simulation, "_map_replications", recorded)
    _recorded_pools(monkeypatch)
    sweeps = ([0.0], [-2.0, -1.0, 0.0], np.linspace(-2.0, 2.0, 17))
    for c3_values in sweeps:
        mt.size_power_curve(scenario, c3_values, "global", resamples=20, workers=2)
    assert received == [[(size, range(0, 8))] for size in (1, 3, 17)]
    # blocks of 3 replications, each with every point
    monkeypatch.setattr(simulation, "_BLOCK_ROWS", 3 * scenario.n)
    received.clear()
    for c3_values in sweeps:
        mt.size_power_curve(scenario, c3_values, "global", resamples=20, workers=2)
    assert received == [[(size, range(0, 3)), (size, range(3, 6)), (size, range(6, 8))]
                        for size in (1, 3, 17)]


def test_single_replication_has_no_ratio():
    scenario = _scenario(n=150, reps=1, grid=mt.EvaluationGrid.explicit(
        [0.3, 0.6], mt.MarkInterval(0.1, 0.9)))
    with pytest.warns(UserWarning, match="at least 2 replications"):
        table = mt.run_replications(scenario)
    assert np.all(np.isnan(table.ratio))
    assert np.all(np.isnan(table.bias_se)) and np.all(np.isnan(table.ratio_se))
    assert np.all(np.isfinite(table.bias))


def test_metrics_table_shapes_and_truth():
    grid = mt.EvaluationGrid.explicit([0.2, 0.5, 0.8], mt.MarkInterval(0.1, 0.9))
    scenario = _scenario(n=300, reps=6, grid=grid)
    table = mt.run_replications(scenario)
    assert table.points.shape == (3,)
    np.testing.assert_allclose(
        table.true_tau, true_tau(scenario, grid.points), rtol=1e-12
    )
    for field in (table.bias, table.bias_se, table.ratio, table.ratio_se,
                  table.coverage, table.coverage_se):
        assert field.shape == (3,)
    assert np.all((table.coverage >= 0.0) & (table.coverage <= 1.0))


@pytest.mark.parametrize(
    "kw",
    [
        dict(reps=0),
        dict(n=1),
        dict(p_treat=0.0),
        dict(p_treat=1.0),
        dict(alpha=1.0),
        dict(censor_mean0=-1.0),
        dict(censor_target=1.5),
        # nan < 0 is False, so a NaN coefficient would pass the negative
        # failure-time check in generate_dataset
        dict(c1=math.nan),
        dict(c2=math.inf),
        dict(c3=-math.inf),
        # a bad bandwidth scale once failed only in the first replication,
        # after the censoring calibration
        dict(varpi=0.0),
        dict(varpi=-1.0),
        dict(varpi=math.nan),
    ],
)
def test_scenario_validation(kw):
    base = dict(c1=3.0, c2=0.0, c3=-1.0, n=100, reps=2, seed=0)
    base.update(kw)
    with pytest.raises(SimulationError):
        mt.Scenario(**base)


def test_rejection_rate_smoke():
    scenario = _scenario(
        c3=0.0, censor_mean1=5.64, n=250, reps=10, seed=71,
        grid=mt.EvaluationGrid.explicit(
            [0.25, 0.5, 0.75], mt.MarkInterval(0.1, 0.9)
        ),
    )
    rate, rejections = rejection_rate(scenario, "global", resamples=40)
    assert 0.0 <= rate <= 1.0
    assert rejections == round(rate * scenario.reps)
    again, _ = rejection_rate(scenario, "global", resamples=40)
    assert rate == again


def test_size_power_curve_recalibrates_per_point():
    scenario = mt.Scenario(
        c1=3.0, c2=0.0, c3=-2.0, n=250, reps=6, seed=11,
        grid=mt.EvaluationGrid.explicit(
            [0.25, 0.5, 0.75], mt.MarkInterval(0.1, 0.9)
        ),
    )
    curve = mt.size_power_curve(scenario, [-2.0, 0.0], "global", resamples=30)
    np.testing.assert_array_equal(curve.c3, [-2.0, 0.0])
    assert np.all((curve.rate >= 0.0) & (curve.rate <= 1.0))
    np.testing.assert_allclose(
        curve.se, np.sqrt(curve.rate * (1.0 - curve.rate) / scenario.reps), rtol=1e-12
    )
    np.testing.assert_array_equal(curve.rejections, curve.rate * scenario.reps)


def _single_replication(scenario, rep):
    """Replication ``rep`` the way one dataset is drawn and estimated on its own."""
    rng = np.random.default_rng(_replication_seed(scenario.seed, rep, 0))
    return _estimate_with_terms(draw_dataset(scenario, rng), scenario.grid,
                                alpha=scenario.alpha, varpi=scenario.varpi)


@pytest.mark.parametrize("n", [300, 1000, 2000])
@pytest.mark.parametrize("p_treat", [0.3, 0.5, 2.0 / 3.0])
@pytest.mark.parametrize("c3", [-2.0, -1.0, 0.0])
def test_block_equals_single_replications_bitwise(n, p_treat, c3):
    scenario = _scenario(n=n, p_treat=p_treat, c3=c3, seed=17)
    g = scenario.grid.points.size
    truth = true_tau(scenario, scenario.grid.points)
    # blocks of 1, 2 and 5 replications
    for block in (range(3, 4), range(4, 6), range(6, 11)):
        rngs = [np.random.default_rng(_replication_seed(scenario.seed, r, 0)) for r in block]
        bandwidths, est, (curve, start, values, widths) = _estimate_block(
            *generate_dataset(scenario, _block_draws(scenario, rngs)), scenario.grid.points,
            alpha=scenario.alpha, bandwidth=None, varpi=scenario.varpi)
        grams = arm_grams((curve, start, values, widths), g)
        taus, sds, covered = _metrics_rep((scenario, block))
        for i, rep in enumerate(block):
            single, terms = _single_replication(scenario, rep)
            assert bandwidths[i] == single.bandwidth
            for field in ("tau1", "tau0", "tau", "sigma2", "ci_lower", "ci_upper",
                          "events1", "events0", "flagged"):
                got, want = est[field][i], getattr(single, field)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
            single_curve, single_start, single_values, single_widths = terms
            for a in (0, 1):
                k = np.flatnonzero(curve == 2 * i + a)
                want = np.flatnonzero(single_curve == a)
                w = widths[2 * i + a]
                assert w == single_widths[a]
                assert start[k].tobytes() == single_start[want].tobytes()
                assert values[k, :w].tobytes() == single_values[want, :w].tobytes()
            assert grams[i].tobytes() == arm_grams(terms, g)[0].tobytes()
            assert taus[i].tobytes() == single.tau.tobytes()
            assert sds[i].tobytes() == np.sqrt(single.sigma2 / single.nh).tobytes()
            np.testing.assert_array_equal(
                covered[i], (single.ci_lower <= truth) & (truth <= single.ci_upper))


def test_metrics_do_not_depend_on_the_block_size(monkeypatch):
    # 27 replications of 1500 rows: blocks of 6, 6, 6, 6 and 3, against blocks of one
    scenario = _scenario(n=1500, reps=27, seed=8)
    assert simulation._BLOCK_ROWS // scenario.n == 6
    tables = [mt.run_replications(scenario)]
    monkeypatch.setattr(simulation, "_BLOCK_ROWS", 1)
    tables.append(mt.run_replications(scenario))
    for field in ("bias", "bias_se", "ratio", "ratio_se", "coverage", "coverage_se"):
        assert getattr(tables[0], field).tobytes() == getattr(tables[1], field).tobytes()


@pytest.mark.parametrize("kw, first, message", [
    # replication 4 draws a negative failure time
    (dict(c1=0.97, c3=0.0, n=20, seed=0), 4, "generating model produced a negative"),
    # replication 1 has no control arm; 3 draws a negative failure time
    (dict(c1=0.97, c3=0.0, n=6, p_treat=0.85, seed=1, censor_mean0=0.8,
          censor_mean1=0.8), 1, "empty treatment group (n1=6, n0=0)"),
    # replication 3 observes one mark; 4 draws a negative failure time
    (dict(c1=0.97, c3=0.0, n=8, p_treat=0.6, seed=6, censor_mean0=0.6,
          censor_mean1=0.6), 3, "need at least 2 observed marks for a bandwidth"),
])
def test_failing_study_raises_its_first_failing_replication(kw, first, message):
    # a block checks negative failure times before empty arms and bandwidths,
    # yet the error must be the one replications run one at a time raise first
    scenario = _scenario(reps=12, **kw)
    errors = []
    for rep in range(scenario.reps):
        try:
            _single_replication(scenario, rep)
        except ValueError as exc:
            errors.append((rep, exc))
    assert errors[0][0] == first and message in str(errors[0][1])
    if first > 0:
        assert any(isinstance(exc, SimulationError) for _, exc in errors[1:])
    with pytest.raises(type(errors[0][1])) as raised:
        mt.run_replications(scenario)
    assert str(raised.value) == str(errors[0][1])


def _single_test(scenario, rep, kind, resamples):
    """Replication ``rep``'s test the way one dataset is drawn, estimated and tested."""
    est, terms = _single_replication(scenario, rep)
    grams = arm_grams(terms, scenario.grid.points.size)
    stream = inference._MultiplierStream(_replication_seed(scenario.seed, rep, 1))
    return _test_from_estimate(kind, [est], grams, [stream], resamples=resamples,
                               alpha=scenario.alpha)[0]


def _recorded_tests(monkeypatch):
    """Record the number of block tests the engine runs, and every replication's result."""
    calls, results = [], []

    def recorded(*args, **kwargs):
        calls.append(len(args[1]))
        results.extend(_test_from_estimate(*args, **kwargs))
        return results[-calls[-1]:]

    monkeypatch.setattr(simulation, "_test_from_estimate", recorded)
    return calls, results


@pytest.mark.parametrize("varpi", [1.0, 0.05])
@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize("kind", TEST_KINDS)
def test_power_block_equals_single_tests_bitwise(monkeypatch, kind, n, varpi):
    # at varpi = 0.05 the bandwidth is so small that some grid points see no
    # event, so the usable points differ between replications of one block
    scenario = _scenario(n=n, c3=0.0, varpi=varpi, reps=8, seed=23)
    singles = [_single_test(scenario, rep, kind, 60) for rep in range(scenario.reps)]
    # stacks as large as a group, then stacks of one replication each
    for stack_bytes in (inference._STACK_BYTES, 1):
        monkeypatch.setattr(inference, "_STACK_BYTES", stack_bytes)
        calls, results = _recorded_tests(monkeypatch)
        # blocks of 1, 2 and 5 replications, each one call of the block test
        flags = [flag for block in (range(0, 1), range(1, 3), range(3, 8))
                 for flag in _test_rep(([scenario], block, kind, 60))[0]]
        assert calls == [1, 2, 5]
        assert flags == [single.reject for single in singles]
        for got, want in zip(results, singles, strict=True):
            assert np.float64(got.statistic).tobytes() == np.float64(want.statistic).tobytes()
            assert got.resampled.tobytes() == want.resampled.tobytes()
            assert np.float64(got.critical_value).tobytes() == \
                np.float64(want.critical_value).tobytes()
            assert np.float64(got.p_value).tobytes() == np.float64(want.p_value).tobytes()
            assert got.covariance_rank == want.covariance_rank
            assert got.excluded_points == want.excluded_points
            assert got.skipped_pairs == want.skipped_pairs
        if varpi < 1.0:
            excluded = {result.excluded_points for result in results[3:]}
            assert len(excluded) > 1
    # a block boundary inside the replications, and the default blocks
    count = sum(single.reject for single in singles)
    for rows in (1, 3 * n, simulation._BLOCK_ROWS):
        monkeypatch.setattr(simulation, "_BLOCK_ROWS", rows)
        assert rejection_rate(scenario, kind, resamples=60) == (count / scenario.reps, count)


@pytest.mark.parametrize("kw, kind, message", [
    # replication 1 has no control arm; 3 draws a negative failure time, which
    # a block checks first
    (dict(c1=0.97, c3=0.0, n=6, p_treat=0.85, seed=1, censor_mean0=0.8,
          censor_mean1=0.8), "global", "empty treatment group (n1=6, n0=0)"),
    # replication 1 keeps one usable point of three: only its constancy test fails
    (dict(n=300, seed=23, varpi=0.05, grid=mt.EvaluationGrid.explicit(
        [0.3, 0.5, 0.7], mt.MarkInterval(0.1, 0.9))), "constancy",
     "constancy test needs at least 2 usable grid points, got 1"),
    # a sweep whose first point, c3 = 0.25, has no failing replication; at
    # c3 = -0.25 replication 1 observes one mark and 2 draws a negative
    # failure time, which a block checks first
    (dict(lead=[0.25], c1=0.97, c3=-0.25, n=8, p_treat=0.6, seed=19, censor_mean0=0.8,
          censor_mean1=0.8), "global",
     "need at least 2 observed marks for a bandwidth, got 1"),
])
def test_failing_power_study_raises_its_first_failing_replication(kw, kind, message):
    # ``lead`` holds the c3 points a sweep runs before the scenario's own
    kw = dict(kw)
    lead = kw.pop("lead", [])
    scenario = _scenario(reps=6, **kw)
    errors = []
    for k, c3 in enumerate([*lead, scenario.c3]):
        for rep in range(scenario.reps):
            try:
                _single_test(dataclasses.replace(scenario, c3=c3), rep, kind, 20)
            except ValueError as exc:
                errors.append((k, rep, exc))
    assert errors[0][:2] == (len(lead), 1) and str(errors[0][2]) == message
    with pytest.raises(type(errors[0][2])) as raised:
        if lead:
            mt.size_power_curve(scenario, [*lead, scenario.c3], kind, resamples=20)
        else:
            rejection_rate(scenario, kind, resamples=20)
    assert str(raised.value) == message
    if kind == "constancy":
        rejection_rate(scenario, "global", resamples=20)


@pytest.mark.parametrize("kind, resamples, message", [
    ("global", 0, "resamples must be >= 1, got 0"),
    ("constancy", -3, "resamples must be >= 1, got -3"),
    ("pointwise", 100, "unknown test kind 'pointwise'; expected one of ('global', 'constancy')"),
])
def test_power_settings_fail_before_calibrating(monkeypatch, kind, resamples, message):
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=-2.0, n=300, reps=2, seed=0)
    arms = _count_calibrations(monkeypatch)
    monkeypatch.setattr(simulation, "_block_draws", None)  # no replication may start
    with pytest.raises(InferenceError, match=re.escape(message)):
        mt.size_power_curve(scenario, [-2.0, 0.0], kind, resamples=resamples)
    with pytest.raises(InferenceError, match=re.escape(message)):
        rejection_rate(scenario, kind, resamples=resamples)
    assert arms == []


@pytest.mark.parametrize("varpi", [1.0, 0.05])
@pytest.mark.parametrize("kind", TEST_KINDS)
def test_sweep_counts_equal_single_point_sweeps(monkeypatch, kind, varpi):
    # every c3 point of a sweep reads its replications' shared data draws and
    # multiplier streams; at varpi = 0.05 a replication's usable points differ
    # between the c3 points, so its tests read different prefixes of one stream
    scenario = _scenario(n=300, c3=0.0, varpi=varpi, reps=8, seed=23)
    c3_values = [-2.0, -0.5, 1.0]
    singles = [[_single_test(dataclasses.replace(scenario, c3=c3), rep, kind, 60)
                for rep in range(scenario.reps)] for c3 in c3_values]
    if varpi < 1.0:
        assert any(len({point[rep].excluded_points for point in singles}) > 1
                   for rep in range(scenario.reps))
    # the default blocks hold all 8 replications: one block test per point
    calls, results = _recorded_tests(monkeypatch)
    sweep = mt.size_power_curve(scenario, c3_values, kind, resamples=60)
    assert calls == [scenario.reps] * len(c3_values)
    for got, want in zip(results, [test for point in singles for test in point], strict=True):
        assert np.float64(got.statistic).tobytes() == np.float64(want.statistic).tobytes()
        assert got.resampled.tobytes() == want.resampled.tobytes()
        assert got.excluded_points == want.excluded_points
    counts = [sum(test.reject for test in point) for point in singles]
    assert sweep.rejections.tolist() == counts
    for rows in (1, 3 * scenario.n, simulation._BLOCK_ROWS):
        monkeypatch.setattr(simulation, "_BLOCK_ROWS", rows)
        alone = [int(mt.size_power_curve(scenario, [c3], kind, resamples=60).rejections[0])
                 for c3 in c3_values]
        swept = mt.size_power_curve(scenario, c3_values, kind, resamples=60)
        assert alone == counts and swept.rejections.tolist() == counts


def test_failing_sweep_raises_its_first_point_whichever_block_fails_first(monkeypatch):
    # at c3 = 0 replication 4 is the first to fail (no control arm); at
    # c3 = -0.5 replication 0 already draws a negative failure time. In blocks
    # of 2 replications the later point fails in the first block and the
    # earlier point only in the last, yet the earlier point's error is raised
    scenario = _scenario(c1=0.97, c3=0.0, n=8, p_treat=0.6, seed=104, censor_mean0=0.8,
                         censor_mean1=0.8, reps=6)
    c3_values = [0.0, -0.5]
    errors = []
    for k, c3 in enumerate(c3_values):
        for rep in range(scenario.reps):
            try:
                _single_test(dataclasses.replace(scenario, c3=c3), rep, "global", 20)
            except ValueError as exc:
                errors.append((k, rep, exc))
    assert errors[0][:2] == (0, 4)
    assert str(errors[0][2]) == "empty treatment group (n1=8, n0=0)"
    assert next(rep for k, rep, _ in errors if k == 1) == 0
    # blocks of 2 in process and across two worker processes, then one block
    for rows, workers in ((2 * scenario.n, 1), (2 * scenario.n, 2), (simulation._BLOCK_ROWS, 1)):
        monkeypatch.setattr(simulation, "_BLOCK_ROWS", rows)
        with pytest.raises(type(errors[0][2])) as raised:
            mt.size_power_curve(scenario, c3_values, "global", resamples=20, workers=workers)
        assert str(raised.value) == str(errors[0][2])
