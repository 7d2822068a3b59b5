import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import marktau as mt
from marktau import inference
from marktau.estimator import EstimateGrid, _estimate_block, _estimate_with_terms
from marktau.inference import (
    InferenceError,
    _constancy_pairs,
    _test_from_estimate,
    _usable_points,
    arm_grams,
    constancy_resample,
    constancy_statistic,
    covariance_factor,
    critical_value,
    global_resample,
    global_statistic,
    multiplier_draws,
    p_value,
    pair_variance_table,
    resampling_covariance,
)
from marktau.kernels import Bandwidth
from marktau.simulation import _block_draws, generate_dataset

from conftest import hand_dataset
from oracles import (
    constancy_resample_dense,
    dense_gram,
    dense_kernel_terms,
    draw_dataset,
    scatter_terms,
    subject_major,
    subject_space_sums,
    xi_matrix,
)

NULL_SCENARIO = mt.Scenario(
    c1=3.0, c2=0.0, c3=-2.0, n=500, reps=1, seed=0,
    censor_mean0=5.440745, censor_mean1=5.499379,
    grid=mt.EvaluationGrid.explicit([0.2, 0.4, 0.6, 0.8], mt.MarkInterval(0.1, 0.9)),
)
# kernel windows of neighbouring points overlap here, so the resampling
# covariance has off-diagonal terms
DENSE_GRID = mt.EvaluationGrid.evenly_spaced(mt.MarkInterval(0.1, 0.9), 20)


def _manual_grid(points, tau, sigma2, *, n=1000, h=0.1, flagged=None):
    points = np.asarray(points, dtype=float)
    tau = np.asarray(tau, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if flagged is None:
        flagged = np.zeros(points.size, dtype=bool)
    zeros = np.zeros(points.size)
    return EstimateGrid(
        points=points, tau1=tau, tau0=zeros, tau=tau, sigma2=sigma2,
        ci_lower=zeros, ci_upper=zeros,
        events1=np.ones(points.size, dtype=np.int64),
        events0=np.ones(points.size, dtype=np.int64),
        flagged=np.asarray(flagged, dtype=bool),
        bandwidth=Bandwidth(h=h), n=n, n0=n // 2, n1=n - n // 2,
    )


def _stacked(est):
    """n h, h / n, tau and sigma2 of one estimate as a block of one, over its usable points."""
    usable = _usable_points(est)
    return (np.array([est.nh]), np.array([est.h / est.n]), est.tau[usable][None],
            est.sigma2[usable][None])


def _global_statistic(est):
    nh, _, tau, sigma2 = _stacked(est)
    return float(global_statistic(nh, tau, sigma2)[0])


def _pair_table(grams, est):
    """:func:`pair_variance_table` of one estimate, from its (2, u, u) Grams."""
    return pair_variance_table(np.asarray(grams)[None], np.array([est.nh]),
                               np.array([[est.n0, est.n1]]))


def test_global_statistic_hand_value():
    est = _manual_grid([0.5], [0.5], [25.0])  # nh = 100
    assert _global_statistic(est) == pytest.approx(1.0, rel=1e-12)


def test_global_statistic_takes_max():
    est = _manual_grid([0.3, 0.7], [0.5, 1.0], [25.0, 25.0])
    assert _global_statistic(est) == pytest.approx(4.0, rel=1e-12)


def test_flagged_points_leave_the_maximum():
    est = _manual_grid(
        [0.3, 0.7], [100.0, 0.5], [25.0, 25.0], flagged=[True, False]
    )
    assert _global_statistic(est) == pytest.approx(1.0, rel=1e-12)


def test_zero_variance_points_leave_the_maximum():
    est = _manual_grid([0.3, 0.7], [100.0, 0.5], [0.0, 25.0])
    assert _global_statistic(est) == pytest.approx(1.0, rel=1e-12)


def test_all_points_flagged_errors():
    est = _manual_grid([0.3], [0.5], [25.0], flagged=[True])
    with pytest.raises(InferenceError, match="no usable grid points"):
        _global_statistic(est)


def test_constancy_statistic_hand_value():
    est = _manual_grid([0.3, 0.7], [1.0, 0.5], [25.0, 25.0])
    zeta = np.array([[[0.0, 25.0], [25.0, 0.0]]])
    pairs = _constancy_pairs(zeta)
    nh, _, tau, _ = _stacked(est)
    assert constancy_statistic(nh, tau, pairs)[0] == pytest.approx(1.0, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 30),
    st.integers(1, 3),
    st.one_of(st.integers(1, 40), st.integers(1000, 3000)),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_constancy_resample_matches_dense_oracle_bitwise(g, reps, resamples, skip_frac, seed):
    # random grids with some flagged points, a block of replications sharing
    # them, and some zero pair-variances that each replication skips; at up
    # to 3000 draws the default byte cap takes several chunks
    rng = np.random.default_rng(seed)
    flagged = rng.uniform(size=g) < 0.2
    assume(np.count_nonzero(~flagged) >= 2)
    usable = int(np.count_nonzero(~flagged))
    zeta = rng.uniform(0.1, 5.0, (reps, usable, usable))
    zeta[rng.uniform(size=zeta.shape) < skip_frac] = 0.0
    upper = np.triu_indices(usable, k=1)
    assume(all(np.any(table[upper] > 0.0) for table in zeta))
    pairs = _constancy_pairs(zeta)
    scale = rng.uniform(0.01, 0.5, reps) / rng.integers(10, 10_000, reps)
    sums = rng.normal(scale=rng.uniform(0.1, 10.0), size=(reps, resamples, usable))
    dense = constancy_resample_dense(scale, sums, pairs)
    row = 8 * resamples  # the bytes of one pair of one replication
    # one pair a chunk; chunks of max(1, usable - 2) pairs, whose boundaries
    # fall inside an anchor point's pairs and whose chunks span two anchors;
    # the whole list in one chunk; the default cap
    for cap in (row, row * reps * max(1, usable - 2), row * reps * upper[0].size,
                inference._PAIR_CHUNK_BYTES):
        with mock.patch.object(inference, "_PAIR_CHUNK_BYTES", cap):
            chunked = constancy_resample(scale, sums, pairs)
        assert chunked.tobytes() == dense.tobytes(), cap


@pytest.mark.parametrize("cap", [8 * 4000, 1 << 16, 1 << 19])
def test_constancy_resample_memory_follows_draws_times_points(cap):
    # 780 pairs of 2 replications at 4000 draws would be 50 MB at once; the
    # scoring holds the point-major copy of the sums, the (R, draws) factor
    # and maxima, and a chunk under the cap with its maximum, plus index
    # arrays of a few pairs each
    reps, draws, points = 2, 4000, 40
    rng = np.random.default_rng(3)
    sums = rng.normal(size=(reps, draws, points))
    j_idx, k_idx = np.triu_indices(points, k=1)
    pairs = (j_idx, k_idx, rng.uniform(0.5, 2.0, (reps, j_idx.size)),
             rng.uniform(size=(reps, j_idx.size)) > 0.1)
    scale = rng.uniform(1e-4, 1e-3, reps)
    with mock.patch.object(inference, "_PAIR_CHUNK_BYTES", cap):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            constancy_resample(scale, sums, pairs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak <= sums.nbytes + 2 * reps * draws * 8 + 2 * cap + 64 * 1024


def test_xi_matrix_decomposition():
    # per-arm (points, events) blocks: subjects 0 and 2 are treated, 1 and 3
    # controls, all uncensored
    theta = np.arange(8.0).reshape(4, 2) + 1.0
    arm = np.array([1, 0, 1, 0])
    xi = xi_matrix(theta, arm, pi=0.25)
    np.testing.assert_allclose(xi[0], theta[0] / 0.25)
    np.testing.assert_allclose(xi[2], theta[2] / 0.25)
    np.testing.assert_allclose(xi[1], -theta[1] / 0.75)
    np.testing.assert_allclose(xi[3], -theta[3] / 0.75)
    # every window starts at the first point and spans both: the dense form
    terms = (arm, np.zeros(4, dtype=np.intp), theta, np.array([2, 2]))
    grams = arm_grams(terms, 2)
    np.testing.assert_allclose(resampling_covariance(grams, [0.25])[0], xi.T @ xi,
                               rtol=1e-12)
    with pytest.raises(InferenceError, match="treated fraction"):
        resampling_covariance(grams, [1.0])


def test_block_grams_equal_the_dense_oracle():
    # three datasets in one block: row 0's marks squeezed toward 0.5 get windows
    # of one point, row 1's span the whole grid (w = g), row 2's three points,
    # so row 2's windows near 0.7 start early and overrun the grid at offsets
    # past their own width
    scenario = dataclasses.replace(NULL_SCENARIO, n=40)
    rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
    y, delta, mark, arm = generate_dataset(scenario, _block_draws(scenario, rngs))
    mark[0] = 0.5 + 0.05 * (mark[0] - 0.5)
    mark[2] = 0.5 + 0.3 * (mark[2] - 0.5)
    points = np.linspace(0.3, 0.7, 5)
    bandwidths, _, terms = _estimate_block(y, delta, mark, arm, points, alpha=0.05,
                                           bandwidth=None, varpi=3.0)
    curve, start, _, widths = terms
    assert widths.tolist() == [1, 1, 5, 5, 3, 3]
    grams = arm_grams(terms, points.size)
    assert grams.shape == (3, 2, 5, 5)
    for row in range(3):
        ds = mt.Dataset.from_arrays(y[row], delta[row], mark[row], arm[row])
        dense = dense_kernel_terms(ds, points, bandwidths[row].h)
        for a in (0, 1):
            want = dense_gram(dense[a], start[curve == 2 * row + a])
            assert grams[row, a].tobytes() == want.tobytes()


def _grid_covariance(est, theta, pi):
    usable = _usable_points(est)
    grams = arm_grams(theta, est.points.size)[0][np.ix_((0, 1), usable, usable)]
    return usable, grams, resampling_covariance(grams[None], [pi])[0]


def test_conditional_variance_identity():
    # with the empirical treated fraction, (h/n) * diag(xi^T xi) equals the
    # variance estimate at v exactly
    ds = hand_dataset()
    grid = mt.EvaluationGrid.explicit([0.45, 0.5, 0.55], mt.MarkInterval(0.1, 0.9))
    h = 0.1
    est, theta = _estimate_with_terms(ds, grid, alpha=0.05, bandwidth=h, varpi=1.0)
    usable, _, cov = _grid_covariance(est, theta, ds.n1 / ds.n)
    assert np.all(usable)
    np.testing.assert_allclose((h / ds.n) * np.diag(cov), est.sigma2, rtol=1e-12)


def _mirrored_fixture():
    # both failure marks sit at 0.5; the grid points mirrored around 0.5 carry
    # identical contributions, so the resampling covariance is singular
    ds = hand_dataset(v=0.5)
    grid = mt.EvaluationGrid.explicit([0.375, 0.5, 0.625], mt.MarkInterval(0.1, 0.9))
    return ds, grid, 0.25


def _null_fixture():
    ds = draw_dataset(NULL_SCENARIO, np.random.default_rng(44))
    return ds, DENSE_GRID, None


@pytest.mark.parametrize("fixture, rank", [(_mirrored_fixture, 1), (_null_fixture, 20)])
def test_covariance_factor_reproduces_xi_gram(fixture, rank):
    ds, grid, h = fixture()
    est, theta = _estimate_with_terms(ds, grid, alpha=0.05, bandwidth=h, varpi=1.0)
    for pi in (ds.n1 / ds.n, 0.25):
        usable, _, cov = _grid_covariance(est, theta, pi)
        full = subject_major(scatter_terms(theta, grid.points.size), ds)
        xi = xi_matrix(full, ds.arm, pi)[:, usable]
        scale = np.abs(cov).max()
        np.testing.assert_allclose(cov, xi.T @ xi, rtol=0, atol=1e-12 * scale)
        factor, found = covariance_factor(cov)
        assert factor.shape == cov.shape
        assert np.abs(factor @ factor.T - cov).max() <= 1e-12 * scale
        assert found == rank


@pytest.mark.parametrize("g", [4, 20, 30])
@pytest.mark.parametrize("n", [200, 1000, 4000])
def test_stacked_factor_and_sums_equal_the_single_calls_bitwise(n, g):
    # the block test factors a stack of covariances with one eigh call and
    # multiplies a stack of draws with one matmul; each matrix must get the
    # bytes a call on it alone gives, or the block test would need the
    # single calls back
    scenario = dataclasses.replace(NULL_SCENARIO, n=n, grid=mt.EvaluationGrid.evenly_spaced(
        mt.MarkInterval(0.1, 0.9), g))
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=n + g, spawn_key=(r,)))
            for r in range(8)]
    y, delta, mark, arm = generate_dataset(scenario, _block_draws(scenario, rngs))
    _, _, terms = _estimate_block(y, delta, mark, arm, scenario.grid.points, alpha=0.05,
                                  bandwidth=None, varpi=1.0)
    n1 = arm.sum(axis=1)
    cov = resampling_covariance(arm_grams(terms, g), n1 / n)
    w, u = np.linalg.eigh(cov)
    factor, rank = covariance_factor(cov)
    draws = np.random.default_rng(g).standard_normal((8, 500, g))
    sums = draws @ factor.swapaxes(1, 2)
    for i in range(8):
        single_w, single_u = np.linalg.eigh(cov[i])
        assert w[i].tobytes() == single_w.tobytes()
        assert u[i].tobytes() == single_u.tobytes()
        single_factor, single_rank = covariance_factor(cov[i])
        assert factor[i].tobytes() == single_factor.tobytes()
        assert rank[i] == single_rank
        assert sums[i].tobytes() == (draws[i] @ single_factor.T).tobytes()


def test_multiplier_draws_are_one_stream_in_grid_space():
    ds = hand_dataset(v=0.5)
    grid = mt.EvaluationGrid.explicit([0.15, 0.5, 0.55], mt.MarkInterval(0.1, 0.9))
    est, _ = _estimate_with_terms(ds, grid, alpha=0.05, bandwidth=0.1, varpi=1.0)
    points = int(np.count_nonzero(_usable_points(est)))
    draws = multiplier_draws(points, 5, inference._MultiplierStream(99))
    assert draws.shape == (5, 2)  # (B, usable points), never (B, n)
    np.testing.assert_array_equal(
        draws, np.random.default_rng(99).standard_normal((5, 2))
    )


def test_multiplier_draws_are_prefixes_of_the_replication_stream():
    # standard_normal((B, k)) is the first B k normals of the flat stream, so
    # a replication's tests at several c3 points share one draw of B x k_max
    seed = np.random.SeedSequence(entropy=3, spawn_key=(1, 5, 1))
    flat = np.random.default_rng(seed).standard_normal(200 * 21)
    stream = inference._MultiplierStream(seed)
    for k in (3, 20, 1, 20, 7):
        want = flat[:200 * k].reshape(200, k)
        fresh = inference._MultiplierStream(seed)
        assert multiplier_draws(k, 200, fresh).tobytes() == want.tobytes()
        assert multiplier_draws(k, 200, stream).tobytes() == want.tobytes()
    # the stream drew B x k_max normals in all, and the generator goes on from there
    assert stream.first(200 * 21)[-200:].tobytes() == flat[-200:].tobytes()


@pytest.mark.parametrize("kind", ["global", "constancy"])
def test_grid_space_resampler_matches_subject_space_oracle(kind):
    # the package draws the multiplier sums from N(0, xi^T xi); the oracle
    # multiplies a (B, n) normal matrix into xi; the resampled statistics
    # must agree in distribution
    ds = draw_dataset(NULL_SCENARIO, np.random.default_rng(45))
    est, theta = _estimate_with_terms(ds, DENSE_GRID, alpha=0.05, bandwidth=None, varpi=1.0)
    reps = 4000
    resampled = _test_from_estimate(kind, [est], arm_grams(theta, DENSE_GRID.points.size),
                                    [inference._MultiplierStream(46)], resamples=reps,
                                    alpha=0.05)[0].resampled
    assert np.all(np.isfinite(resampled))

    usable = _usable_points(est)
    normals = np.random.default_rng(47).standard_normal((reps, ds.n))
    full = subject_major(scatter_terms(theta, DENSE_GRID.points.size), ds)
    sums = subject_space_sums(full, ds.arm, ds.n1 / ds.n, normals)
    sums = sums[:, usable][None]
    _, scale, _, sigma2 = _stacked(est)
    if kind == "global":
        oracle = global_resample(scale, sigma2, sums)[0]
    else:
        _, grams, _ = _grid_covariance(est, theta, ds.n1 / ds.n)
        pairs = _constancy_pairs(_pair_table(grams, est))
        oracle = constancy_resample(scale, sums, pairs)[0]
    assert stats.ks_2samp(resampled, oracle).pvalue > 0.01


def test_resampled_values_scale_quadratically():
    ds = hand_dataset()
    grid = mt.EvaluationGrid.explicit([0.48, 0.5], mt.MarkInterval(0.1, 0.9))
    est, theta = _estimate_with_terms(ds, grid, alpha=0.05, bandwidth=0.1, varpi=1.0)
    _, grams, cov = _grid_covariance(est, theta, ds.n1 / ds.n)
    draws = multiplier_draws(int(np.count_nonzero(_usable_points(est))), 50,
                             inference._MultiplierStream(4))
    sums = (draws @ covariance_factor(cov)[0].T)[None]
    _, scale, _, sigma2 = _stacked(est)
    base = global_resample(scale, sigma2, sums)
    tripled = global_resample(scale, sigma2, 3.0 * sums)
    np.testing.assert_allclose(tripled, 9.0 * base, rtol=1e-12)
    pairs = _constancy_pairs(_pair_table(grams, est))
    base_c = constancy_resample(scale, sums, pairs)
    tripled_c = constancy_resample(scale, 3.0 * sums, pairs)
    np.testing.assert_allclose(tripled_c, 9.0 * base_c, rtol=1e-12)


def test_pair_variance_table_against_direct_sum():
    ds = hand_dataset()
    grid = mt.EvaluationGrid.explicit([0.42, 0.5, 0.58], mt.MarkInterval(0.1, 0.9))
    est, theta = _estimate_with_terms(ds, grid, alpha=0.05, bandwidth=0.1, varpi=1.0)
    _, grams, _ = _grid_covariance(est, theta, ds.n1 / ds.n)
    table = _pair_table(grams, est)[0]
    full = subject_major(scatter_terms(theta, grid.points.size), ds)
    g = grid.points.size
    direct = np.zeros((g, g))
    for j in range(g):
        for k in range(g):
            total = 0.0
            for a in (0, 1):
                rows = full[ds.arm == a]
                total += np.sum((rows[:, j] - rows[:, k]) ** 2) / rows.shape[0] ** 2
            direct[j, k] = ds.n * 0.1 * total
    np.testing.assert_allclose(table, direct, rtol=1e-12, atol=1e-15)
    assert np.all(np.diag(table) == 0.0)


def test_critical_value_order_statistic():
    rng = np.random.default_rng(0)
    values = rng.permutation(np.arange(1.0, 5001.0))
    assert critical_value(values, alpha=0.05) == 4750.0
    values = rng.permutation(np.arange(1.0, 101.0))
    assert critical_value(values, alpha=0.10) == 90.0
    assert critical_value(np.array([3.0, 1.0, 2.0]), alpha=0.999) == 1.0
    with pytest.raises(InferenceError, match="alpha"):
        critical_value(values, alpha=0.0)
    with pytest.raises(InferenceError, match="no resampled"):
        critical_value(np.array([]), alpha=0.05)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=5, max_size=200),
    st.floats(0.01, 0.5, allow_nan=False),
    st.floats(0.01, 0.5, allow_nan=False),
)
def test_critical_value_monotone_in_alpha(values, a1, a2):
    lo, hi = sorted([a1, a2])
    arr = np.array(values)
    assert critical_value(arr, lo) >= critical_value(arr, hi)
    assert critical_value(arr, lo) in arr


def test_p_value_conventions():
    resampled = np.array([1.0, 2.0, 3.0, 4.0])
    assert p_value(resampled, 2.5) == 0.5
    assert p_value(resampled, 2.0) == 0.75  # ties count as extreme
    assert p_value(resampled, 5.0) == 0.0
    assert p_value(resampled, 5.0, add_one_correction=True) == 0.2
    assert p_value(resampled, 2.5, add_one_correction=True) == 0.6


def test_run_test_is_deterministic():
    ds = draw_dataset(NULL_SCENARIO, np.random.default_rng(41))
    first = mt.run_test("global", ds, NULL_SCENARIO.grid, resamples=80, seed=123)
    second = mt.run_test("global", ds, NULL_SCENARIO.grid, resamples=80, seed=123)
    assert first.statistic == second.statistic
    assert first.critical_value == second.critical_value
    assert first.p_value == second.p_value
    np.testing.assert_array_equal(first.resampled, second.resampled)

    reseeded = mt.run_test("global", ds, NULL_SCENARIO.grid, resamples=80, seed=124)
    assert reseeded.statistic == first.statistic
    assert not np.array_equal(reseeded.resampled, first.resampled)


def test_statistic_invariant_under_record_order():
    ds = draw_dataset(NULL_SCENARIO, np.random.default_rng(42))
    perm = np.random.default_rng(1).permutation(ds.n)
    shuffled = mt.Dataset.from_arrays(ds.y[perm], ds.delta[perm], ds.mark[perm], ds.arm[perm])
    for kind in ("global", "constancy"):
        a = mt.run_test(kind, ds, NULL_SCENARIO.grid, resamples=10, seed=9)
        b = mt.run_test(kind, shuffled, NULL_SCENARIO.grid, resamples=10, seed=9)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)
        np.testing.assert_allclose(
            a.estimate.tau, b.estimate.tau, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            a.estimate.sigma2, b.estimate.sigma2, rtol=1e-12, atol=1e-15
        )


def test_resample_distribution_matches_sampling_distribution():
    # the multiplier reference should track the true null distribution of the
    # statistic; compare upper-tail quantiles from 2000 of each
    reps = 2000
    observed = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=777, spawn_key=(1, r))
        )
        ds = draw_dataset(NULL_SCENARIO, rng)
        est, _ = _estimate_with_terms(
            ds, NULL_SCENARIO.grid, alpha=0.05, bandwidth=None, varpi=1.0
        )
        observed[r] = _global_statistic(est)

    ds = draw_dataset(
        NULL_SCENARIO, np.random.default_rng(np.random.SeedSequence(778))
    )
    est, theta = _estimate_with_terms(
        ds, NULL_SCENARIO.grid, alpha=0.05, bandwidth=None, varpi=1.0
    )
    grams = arm_grams(theta, NULL_SCENARIO.grid.points.size)
    resampled = _test_from_estimate("global", [est], grams, [inference._MultiplierStream(779)],
                                    resamples=reps, alpha=0.05)[0].resampled

    q_obs = float(np.quantile(observed, 0.95))
    q_res = float(np.quantile(resampled, 0.95))
    assert abs(q_res - q_obs) / q_obs <= 0.15


def test_constancy_needs_two_usable_points():
    ds = hand_dataset()
    grid = mt.EvaluationGrid.explicit([0.5], mt.MarkInterval(0.1, 0.9))
    with pytest.raises(InferenceError, match="at least 2 usable"):
        mt.run_test("constancy", ds, grid, resamples=10, seed=0, bandwidth=0.1)


def test_global_all_flagged_errors():
    ds = hand_dataset(v=0.9)
    grid = mt.EvaluationGrid.explicit([0.2, 0.3], mt.MarkInterval(0.1, 0.9))
    with pytest.raises(InferenceError,
                       match="^no usable grid points: every point is flagged$"):
        mt.run_test("global", ds, grid, resamples=10, seed=0, bandwidth=0.1)


def test_one_usable_point_of_several():
    # no failure mark lies within h of 0.2 or 0.8, so only 0.5 is usable
    ds = hand_dataset(v=0.5)
    grid = mt.EvaluationGrid.explicit([0.2, 0.5, 0.8], mt.MarkInterval(0.1, 0.9))
    settings = dict(resamples=20, seed=0, bandwidth=0.1)
    result = mt.run_test("global", ds, grid, **settings)
    assert result.excluded_points == (0.2, 0.8)
    assert result.covariance_rank == 1
    assert np.isfinite(result.statistic) and np.all(np.isfinite(result.resampled))
    with pytest.raises(InferenceError, match="at least 2 usable grid points, got 1$"):
        mt.run_test("constancy", ds, grid, **settings)


def test_constancy_zero_variance_pairs():
    # both failure marks sit at 0.5; grid points mirrored around 0.5 at
    # exactly representable offsets carry identical subject contributions
    # and hence a zero pair-variance
    ds = hand_dataset(v=0.5)
    mirrored = mt.EvaluationGrid.explicit([0.375, 0.625], mt.MarkInterval(0.1, 0.9))
    with pytest.raises(InferenceError, match="zero pair-variance"):
        mt.run_test("constancy", ds, mirrored, resamples=10, seed=0, bandwidth=0.25)

    wider = mt.EvaluationGrid.explicit(
        [0.375, 0.5, 0.625], mt.MarkInterval(0.1, 0.9)
    )
    result = mt.run_test("constancy", ds, wider, resamples=10, seed=0, bandwidth=0.25)
    assert result.skipped_pairs == 1
    # the mirrored columns make the resampling covariance singular; the
    # factorization still succeeds and every resampled value is finite
    assert result.covariance_rank == 1
    assert np.all(np.isfinite(result.resampled))


def test_pi_design_changes_resampling_only():
    ds = draw_dataset(NULL_SCENARIO, np.random.default_rng(43))
    base = mt.run_test("global", ds, NULL_SCENARIO.grid, resamples=40, seed=7)
    designed = mt.run_test(
        "global", ds, NULL_SCENARIO.grid, resamples=40, seed=7, pi_design=0.25
    )
    assert designed.statistic == base.statistic
    assert not np.array_equal(designed.resampled, base.resampled)
    with pytest.raises(InferenceError, match="pi_design"):
        mt.run_test("global", ds, NULL_SCENARIO.grid, pi_design=1.5)


def test_unknown_kind_rejected():
    ds = hand_dataset()
    grid = mt.EvaluationGrid.explicit([0.5], mt.MarkInterval(0.1, 0.9))
    with pytest.raises(InferenceError, match="unknown test kind"):
        mt.run_test("trend", ds, grid, resamples=5)


def test_result_excluded_points_reported():
    ds = hand_dataset(v=0.5)
    grid = mt.EvaluationGrid.explicit([0.15, 0.5, 0.55], mt.MarkInterval(0.1, 0.9))
    result = mt.run_test("global", ds, grid, resamples=20, seed=3, bandwidth=0.1)
    assert result.excluded_points == (0.15,)
    # both failure marks sit at 0.5, so the two usable columns are proportional
    assert result.covariance_rank == 1
    assert result.resampled.shape == (20,)
    assert result.reject == (result.statistic > result.critical_value)
