import functools
import itertools
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import marktau as mt
from marktau.estimator import (
    EstimationError,
    _estimate_with_terms,
    _rank,
    ipcw_weights,
    normal_quantile,
)
from marktau.inference import arm_grams
from marktau.kernels import rule_of_thumb_bandwidth, scaled_kernel
from marktau.km import fit_censoring_km
from marktau.simulation import resolve_censoring

from conftest import hand_dataset
from oracles import (
    dense_gram,
    dense_kernel_terms,
    draw_dataset,
    ipcw_mean_difference,
    ipcw_weights_oracle,
    left_continuous,
    normal_quantile_bisect,
    scatter_terms,
    stieltjes_group_mean,
    subject_major,
)

UNIT = mt.MarkInterval(0.0, 1.0)


def _at(ds, points, h, **kwargs):
    """Estimates at explicit points inside [0, 1] with bandwidth h."""
    grid = mt.EvaluationGrid.explicit(points, UNIT)
    return mt.estimate_on_grid(ds, grid, bandwidth=h, **kwargs)


def _terms(ds, points, h):
    """Estimates and the per-arm kernel terms, scattered into dense (points,
    failures) arrays, at explicit points inside [0, 1]."""
    est, (_, _, terms) = _estimate_with_terms(ds, mt.EvaluationGrid.explicit(points, UNIT),
                                              bandwidth=h)
    return est, scatter_terms(terms, len(points))


def test_censored_record_contributes_zero():
    # a censoring after every treated failure changes no weight: it adds one
    # subject to the treated denominator and no kernel term
    ds = hand_dataset()
    more = mt.Dataset.from_arrays(
        np.append(ds.y, 12.0), np.append(ds.delta, 0),
        np.append(ds.mark, math.nan), np.append(ds.arm, 1),
    )
    est, theta = _terms(ds, [0.45, 0.5], 0.1)
    est_more, theta_more = _terms(more, [0.45, 0.5], 0.1)
    assert [t.shape for t in theta_more] == [t.shape for t in theta] == [(2, 1), (2, 1)]
    np.testing.assert_array_equal(theta_more[1], theta[1])
    np.testing.assert_array_equal(est_more.tau1, theta[1].sum(axis=1) / 5)
    np.testing.assert_array_equal(est_more.tau0, est.tau0)
    assert est_more.tau1[1] == pytest.approx(3.0, rel=1e-12)


def test_kernel_term_hand_value():
    _, (control, treated) = _terms(hand_dataset(), [0.5], 0.1)
    assert treated[0, 0] == pytest.approx(15.0, rel=1e-12)
    assert control[0, 0] == pytest.approx(10.0, rel=1e-12)


def test_hand_dataset_point_estimates():
    est = _at(hand_dataset(), [0.5], 0.1)
    assert est.tau1[0] == pytest.approx(3.75, rel=1e-12)
    assert est.tau0[0] == pytest.approx(2.5, rel=1e-12)
    assert est.tau[0] == pytest.approx(1.25, rel=1e-12)
    assert est.sigma2[0] == pytest.approx(16.25, rel=1e-12)


def test_confidence_interval_hand_value():
    # nh = 0.8, so the half-width is 1.959964 * sqrt(16.25 / 0.8) around 1.25
    est = _at(hand_dataset(), [0.5], 0.1)
    assert est.ci_lower[0] == pytest.approx(-7.5834, abs=1e-4)
    assert est.ci_upper[0] == pytest.approx(10.0834, abs=1e-4)
    narrow = _at(hand_dataset(), [0.5], 0.1, alpha=0.5)
    assert narrow.ci_lower[0] > est.ci_lower[0] and narrow.ci_upper[0] < est.ci_upper[0]


def test_confidence_interval_validation():
    for alpha in (1.5, 0.0):
        with pytest.raises(EstimationError, match="alpha"):
            _at(hand_dataset(), [0.5], 0.1, alpha=alpha)


@pytest.mark.parametrize("p", [0.5, 0.975, 0.95, 0.9, 0.995, 0.025, 0.1])
def test_normal_quantile_against_bisection(p):
    assert abs(normal_quantile(p) - normal_quantile_bisect(p)) <= 1e-9


@settings(deadline=None, max_examples=300)
@given(st.floats(1e-10, 1.0 - 1e-10))
def test_normal_quantile_against_scipy(p):
    expected = float(stats.norm.ppf(p))
    assert abs(normal_quantile(p) - expected) <= 2e-15 * abs(expected)


def test_normal_quantile_pinned_value():
    assert normal_quantile(0.975) == 1.9599639845400536


@pytest.mark.parametrize("p", [0.0, 1.0, math.nan])
def test_normal_quantile_rejects_levels_outside_the_open_unit_interval(p):
    with pytest.raises(EstimationError, match="quantile level"):
        normal_quantile(p)


def test_group_mean_matches_double_integral_oracle():
    # every censoring pattern of six treated subjects, several v; one fixed
    # control failure keeps both arms non-empty
    y = np.array([1.0, 2.0, 2.0, 3.0, 4.5, 5.0])
    base_marks = np.array([0.15, 0.4, 0.55, 0.6, 0.8, 0.35])
    h = 0.3
    points = [0.3, 0.5, 0.75]
    for pattern in itertools.product([0, 1], repeat=6):
        delta = np.array(pattern)
        if delta.sum() == 0:
            continue
        mark = np.where(delta == 1, base_marks, np.nan)
        ds = mt.Dataset.from_arrays(np.append(y, 1.5), np.append(delta, 1),
                                    np.append(mark, 0.5), [1] * 6 + [0])
        est = _at(ds, points, h)
        jump_times, values, curve, _ = fit_censoring_km(ds.y[None], ds.delta[None], ds.arm[None])
        surv = functools.partial(left_continuous, jump_times[curve == 1], values[curve == 1])
        for j, v in enumerate(points):
            want = stieltjes_group_mean(y, delta, mark, surv, v, h)
            assert abs(est.tau1[j] - want) <= 1e-12, (pattern, v)


def test_no_censoring_reduces_to_plain_kernel_mean():
    rng = np.random.default_rng(7)
    n = 40
    y = rng.exponential(2.0, n)
    mark = rng.random(n)
    arm = np.array([1] * 25 + [0] * 15)
    ds = mt.Dataset.from_arrays(y, np.ones(n, dtype=int), mark, arm)
    h = 0.2
    points = [0.25, 0.5, 0.9]
    est = _at(ds, points, h)
    for a, curve in ((0, est.tau0), (1, est.tau1)):
        idx = np.flatnonzero(ds.arm == a)
        for j, v in enumerate(points):
            # the estimator adds an arm's terms left to right in record order
            terms = y[idx] * scaled_kernel(mark[idx], v, h)
            plain = functools.reduce(operator.add, terms) / idx.size
            assert curve[j] == plain  # bitwise


def test_groups_do_not_interact():
    ds = hand_dataset()
    # doubling a control failure time must leave the treated curve alone
    y = ds.y.copy()
    y[4] = 8.0 / 3.0
    modified = mt.Dataset.from_arrays(y, ds.delta, ds.mark, ds.arm)
    est = _at(ds, [0.45, 0.5], 0.1)
    est_modified = _at(modified, [0.45, 0.5], 0.1)
    np.testing.assert_array_equal(est_modified.tau1, est.tau1)
    np.testing.assert_array_equal(est_modified.tau0, 2.0 * est.tau0)


def test_mark_rescaling_equivariance():
    # halving marks, points and bandwidth doubles the density factor exactly
    rng = np.random.default_rng(11)
    n = 30
    y = rng.exponential(2.0, n) + 0.1
    delta = (rng.random(n) < 0.7).astype(int)
    if delta.sum() == 0:
        delta[0] = 1
    mark = np.where(delta == 1, rng.random(n), np.nan)
    arm = (rng.random(n) < 0.5).astype(int)
    arm[:2] = [0, 1]
    ds = mt.Dataset.from_arrays(y, delta, mark, arm)
    half = mt.Dataset.from_arrays(y, delta, mark / 2.0, arm)
    est = _at(ds, [0.3, 0.6], 0.2)
    est_half = _at(half, [0.15, 0.3], 0.1)
    np.testing.assert_array_equal(est_half.tau1, 2.0 * est.tau1)
    np.testing.assert_array_equal(est_half.tau0, 2.0 * est.tau0)


def test_zero_event_window_is_flagged():
    ds = hand_dataset(v=0.5)
    grid = mt.EvaluationGrid.explicit([0.1, 0.5], mt.MarkInterval(0.05, 0.9))
    est = mt.estimate_on_grid(ds, grid, bandwidth=0.1)
    assert bool(est.flagged[0]) and not bool(est.flagged[1])
    assert est.events1[0] == 0 and est.events0[0] == 0
    assert est.tau[0] == 0.0 and est.sigma2[0] == 0.0
    assert est.events1[1] == 1 and est.events0[1] == 1
    assert est.tau[1] == pytest.approx(1.25, rel=1e-12)


def test_estimate_grid_matches_pointwise_functions():
    # a grid point's estimates do not depend on the other points of the grid
    ds = hand_dataset()
    points = [0.45, 0.5, 0.55]
    est = _at(ds, points, 0.1)
    fields = ("tau1", "tau0", "tau", "sigma2", "ci_lower", "ci_upper",
              "events1", "events0", "flagged")
    for j, v in enumerate(points):
        alone = _at(ds, [v], 0.1)
        for field in fields:
            assert getattr(est, field)[j] == getattr(alone, field)[0], (field, v)
    # K_h(0.05) = 5.625 with h = 0.1, against 7.5 at the centre
    np.testing.assert_allclose(est.tau1, [2.8125, 3.75, 2.8125], rtol=1e-12)
    np.testing.assert_allclose(est.tau0, [1.875, 2.5, 1.875], rtol=1e-12)
    assert est.n == 8 and est.n1 == 4 and est.n0 == 4
    assert est.n * est.h == pytest.approx(0.8)


def test_kernel_matrix_shape_and_censored_rows():
    ds = hand_dataset()
    grid = mt.EvaluationGrid.explicit([0.45, 0.5], UNIT)
    _, (_, _, terms) = _estimate_with_terms(ds, grid, bandwidth=0.1)
    # observed failures by window points, a view of one offset-major block
    assert terms[2].T.flags.c_contiguous
    theta = scatter_terms(terms, 2)
    # points by observed failures
    assert [t.shape for t in theta] == [(2, 1), (2, 1)]
    full = subject_major(theta, ds)
    assert full.shape == (8, 2)
    np.testing.assert_array_equal(full[ds.delta == 0], 0.0)
    assert full[0, 1] == pytest.approx(15.0, rel=1e-12)
    assert full[4, 1] == pytest.approx(10.0, rel=1e-12)


def test_zero_time_failure_is_an_event_with_a_zero_term():
    # a failure at y = 0 has the term (0 / S(0)) * K = 0 at v = 0.5, yet its
    # mark is within h of v: the point counts it as an event and is not flagged
    ds = mt.Dataset.from_arrays([0.0, 2.0, 3.0, 1.0, 4.0], [1, 1, 0, 1, 1],
                                [0.5, 0.1, np.nan, 0.1, 0.9], [0, 0, 0, 1, 1])
    est = _at(ds, [0.5], 0.1)
    assert est.events0.tolist() == [1]
    assert est.events1.tolist() == [0]
    assert est.flagged.tolist() == [False]
    assert est.tau0.tolist() == [0.0]
    assert est.sigma2.tolist() == [0.0]


def test_single_point_grid_needs_explicit_interval():
    grid = mt.EvaluationGrid.explicit([0.5], mt.MarkInterval(0.2, 0.8))
    assert grid.points.size == 1
    with pytest.raises(EstimationError, match="interval"):
        mt.EvaluationGrid.explicit([0.5])


def test_grid_validation_errors():
    with pytest.raises(EstimationError, match="increasing"):
        mt.EvaluationGrid.explicit([0.5, 0.4], mt.MarkInterval(0.1, 0.9))
    with pytest.raises(EstimationError, match="lie in"):
        mt.EvaluationGrid.explicit([0.05, 0.5], mt.MarkInterval(0.1, 0.9))
    with pytest.raises(EstimationError, match="count >= 2"):
        mt.EvaluationGrid.evenly_spaced(mt.MarkInterval(0.1, 0.9), 1)
    grid = mt.EvaluationGrid.evenly_spaced(mt.MarkInterval(0.1, 0.9), 5)
    np.testing.assert_allclose(grid.points, [0.1, 0.3, 0.5, 0.7, 0.9], rtol=1e-12)


def test_bandwidth_override_beats_rule_of_thumb():
    ds = hand_dataset()
    grid = mt.EvaluationGrid.explicit([0.5], mt.MarkInterval(0.2, 0.8))
    est = mt.estimate_on_grid(ds, grid, bandwidth=0.25)
    assert est.h == 0.25
    est_scaled, _ = _estimate_with_terms(ds, grid, alpha=0.05, bandwidth=0.4, varpi=1.0)
    assert est_scaled.h == 0.4


def test_rule_of_thumb_used_when_no_override():
    rng = np.random.default_rng(3)
    n = 60
    y = rng.exponential(2.0, n) + 0.05
    mark = rng.random(n)
    arm = np.array([1, 0] * 30)
    ds = mt.Dataset.from_arrays(y, np.ones(n, dtype=int), mark, arm)
    grid = mt.EvaluationGrid.explicit([0.5], mt.MarkInterval(0.2, 0.8))
    est = mt.estimate_on_grid(ds, grid, varpi=2.0)
    expected = rule_of_thumb_bandwidth(ds.observed_marks(), varpi=2.0)
    assert est.h == expected.h
    assert est.bandwidth.varpi == 2.0
    assert est.bandwidth.m == n


def _weights(ds):
    """Every record's weight: :func:`ipcw_weights` on a block of one, zero off the failures."""
    failed, at_failed = ipcw_weights(ds.y[None], ds.delta[None], ds.arm[None])
    weights = np.zeros(ds.n)
    weights[failed] = at_failed
    return weights


def _tied_datasets(rng, rows, n):
    """(rows, n) integer times in 0..4, tied across arms and status, some -0.0."""
    y = rng.integers(0, 5, (rows, n)).astype(float)
    y[rng.random((rows, n)) < 0.15] = -0.0
    delta = rng.integers(0, 2, (rows, n))
    arm = rng.integers(0, 2, (rows, n))
    arm[:, :2] = (0, 1)  # both arms present in every row
    return y, delta, arm


def test_ipcw_weights_match_product_limit_oracle_bitwise():
    # the oracle multiplies the same factors in the same order, so the
    # weights agree to the last bit, one dataset or a block of them
    rng = np.random.default_rng(2026)
    for _ in range(150):
        rows, n = int(rng.integers(1, 6)), int(rng.integers(2, 25))
        y, delta, arm = _tied_datasets(rng, rows, n)
        wants = []
        for r in range(rows):
            ds = mt.Dataset.from_arrays(y[r], delta[r],
                                        np.where(delta[r] == 1, 0.5, np.nan), arm[r])
            wants.append(ipcw_weights_oracle(ds))
            assert _weights(ds).tobytes() == wants[-1].tobytes()
        failed, weights = ipcw_weights(y, delta, arm)
        block = np.zeros(rows * n)
        block[failed] = weights
        assert block.tobytes() == np.concatenate(wants).tobytes()


def test_negative_zero_time_stays_in_its_arm():
    # -0.0 has the sign bit set; a control failure at -0.0 must still see the
    # control censoring at 0.0 as a tie and the treated censorings not at all
    y = np.array([-0.0, 0.0, 1.0, 2.0, 0.0, 1.0, 1.0, 3.0])
    delta = np.array([1, 0, 1, 0, 0, 0, 1, 1])
    arm = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    ds = mt.Dataset.from_arrays(y, delta, np.where(delta == 1, 0.5, np.nan), arm)
    weights = _weights(ds)
    assert weights.tobytes() == ipcw_weights_oracle(ds).tobytes()
    # control: at risk at 0 are all 4, one censored there, so S(1) = 3/4
    np.testing.assert_array_equal(weights[arm == 0], [-0.0, 0.0, 4.0 / 3.0, 0.0])
    assert math.copysign(1.0, weights[0]) == -1.0
    # treated: the censoring at 0.0 leaves 3 of 4, the one at 1.0 then 2 of 3
    np.testing.assert_array_equal(weights[arm == 1],
                                  [0.0, 0.0, 4.0 / 3.0, 3.0 / (0.75 * (2 / 3))])


def test_ipcw_mean_difference_no_censoring():
    rng = np.random.default_rng(5)
    n = 50
    y = rng.exponential(2.0, n)
    mark = rng.random(n)
    arm = np.array([1] * 30 + [0] * 20)
    ds = mt.Dataset.from_arrays(y, np.ones(n, dtype=int), mark, arm)
    plain = float(np.mean(y[:30]) - np.mean(y[30:]))
    assert ipcw_mean_difference(ds) == pytest.approx(plain, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.floats(0.15, 0.85, allow_nan=False), st.floats(0.05, 0.3, allow_nan=False))
def test_group_estimates_are_nonnegative(v, h):
    # nonnegative outcomes and weights keep every localized mean nonnegative
    est = _at(hand_dataset(v=0.5), [v], h)
    assert est.tau1[0] >= 0.0
    assert est.tau0[0] >= 0.0
    assert est.sigma2[0] >= 0.0


# Marks, grid points and bandwidths on a dyadic lattice make 1 - v and the
# kernel arguments exact, so observed marks land exactly on window edges.
_LATTICE = st.integers(0, 64).map(lambda k: k / 64.0)


@st.composite
def _marked_data(draw):
    """A dataset with both arms non-empty, grid points and a bandwidth."""
    n = draw(st.integers(2, 14))

    def column(elements):
        return st.lists(elements, min_size=n, max_size=n)

    y = np.array(draw(column(st.floats(0.05, 10.0, allow_nan=False))))
    delta = np.array(draw(column(st.integers(0, 1))))
    marks = np.array(draw(column(_LATTICE)))
    arm = np.array(draw(column(st.integers(0, 1)).filter(lambda a: 0 < sum(a) < len(a))))
    points = sorted(set(draw(st.lists(_LATTICE, min_size=1, max_size=6))))
    h = draw(st.integers(2, 32)) / 64.0
    ds = mt.Dataset.from_arrays(y, delta, np.where(delta == 1, marks, np.nan), arm)
    return ds, np.array(points), h


@settings(deadline=None, max_examples=100)
@given(_marked_data())
def test_arm_swap_negates_the_contrast(data):
    ds, points, h = data
    swapped = mt.Dataset.from_arrays(ds.y, ds.delta, ds.mark, 1 - ds.arm)
    est = _at(ds, points, h)
    est_swapped = _at(swapped, points, h)
    np.testing.assert_array_equal(est_swapped.tau1, est.tau0)
    np.testing.assert_array_equal(est_swapped.tau0, est.tau1)
    np.testing.assert_array_equal(est_swapped.tau, -est.tau)
    np.testing.assert_array_equal(est_swapped.sigma2, est.sigma2)


@settings(deadline=None, max_examples=100)
@given(_marked_data())
def test_mark_reflection_mirrors_the_curve(data):
    ds, points, h = data
    reflected = mt.Dataset.from_arrays(ds.y, ds.delta, 1.0 - ds.mark, ds.arm)
    est = _at(ds, points, h)
    mirror = _at(reflected, (1.0 - points)[::-1], h)
    for field in ("tau1", "tau0", "tau", "sigma2"):
        np.testing.assert_allclose(getattr(mirror, field)[::-1], getattr(est, field),
                                   rtol=1e-12, atol=0.0, err_msg=field)
    np.testing.assert_array_equal(mirror.events1[::-1], est.events1)
    np.testing.assert_array_equal(mirror.events0[::-1], est.events0)


def _assert_windows_match_dense(ds, points, h):
    # every arm's window width as two binary searches per failure find it,
    # every (point, failure) term bitwise as the dense evaluation has it, the
    # event counts bitwise as the dense window predicate counts them, and the
    # Gram bitwise as the dense oracle sums the dense terms
    points = np.asarray(points, dtype=float)
    est, (_, _, terms) = _estimate_with_terms(ds, mt.EvaluationGrid.explicit(points, UNIT),
                                              bandwidth=h)
    # the points from the first at or above mark - h to the last at or below
    # mark + h, with the window's few ulps of slack
    reach = h * (1.0 + 4.0 * np.finfo(float).eps)
    for a in (0, 1):
        marks = ds.mark[(ds.arm == a) & (ds.delta == 1)]
        widths = (np.searchsorted(points, marks + reach, side="right")
                  - np.searchsorted(points, marks - reach))
        assert terms[3][a] == widths.max(initial=0)
    dense = dense_kernel_terms(ds, points, h)
    for got, want in zip(scatter_terms(terms, points.size), dense):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for a, events in ((0, est.events0), (1, est.events1)):
        marks = ds.mark[(ds.arm == a) & (ds.delta == 1)]
        counts = np.count_nonzero(np.abs(marks - points[:, None]) < h, axis=1)
        assert events.dtype == counts.dtype
        assert events.tobytes() == counts.tobytes()
    # a BLAS product sums the dense products in another order: within the
    # worst-case rounding of m-term sums
    eps = np.finfo(float).eps
    curve, start = terms[:2]
    for a, (gram, arm_dense) in enumerate(zip(arm_grams(terms, points.size)[0], dense)):
        bound = 2 * arm_dense.shape[1] * eps * (np.abs(arm_dense) @ np.abs(arm_dense).T)
        assert np.all(np.abs(gram - arm_dense @ arm_dense.T) <= bound)
        assert gram.tobytes() == dense_gram(arm_dense, start[curve == a]).tobytes()


@st.composite
def _window_cases(draw):
    """:func:`_marked_data`, or one of the inputs a window search must also get exact.

    These are grid points clustered from an ulp to a few thousandths apart,
    windows that span a grid of up to 20 points, marks at v - h or v + h as
    rounding puts them for a bandwidth off the lattice, and raw marks far
    outside [0, 1] that no scaling or validation moved.
    """
    ds, points, h = draw(_marked_data())
    case = draw(st.sampled_from(("lattice", "clustered", "spanning", "edges", "raw")))
    if case == "clustered":
        step = draw(st.sampled_from((np.finfo(float).eps, 1e-9, 1.0 / 640.0)))
        offsets = np.array(draw(st.lists(st.integers(0, 20), min_size=1, max_size=16)))
        points = np.unique(np.clip(draw(_LATTICE) + step * offsets, 0.0, 1.0))
        h = draw(st.sampled_from((h, step * draw(st.integers(1, 6)))))
    elif case == "spanning":
        points = np.array(sorted(set(draw(st.lists(_LATTICE, min_size=1, max_size=20)))))
        h = draw(st.sampled_from((1.0, 1.5, 2.0)))
    elif case == "edges":
        h = draw(st.floats(0.01, 0.5))
        picks = draw(st.lists(st.integers(0, points.size - 1), min_size=ds.n, max_size=ds.n))
        sides = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=ds.n, max_size=ds.n))
        marks = points[picks] + np.array(sides) * h
        ds = mt.Dataset.from_arrays(ds.y, ds.delta, np.where(ds.delta == 1, marks, np.nan),
                                    ds.arm)
    elif case == "raw":
        scale = draw(st.sampled_from((1.0, 50.0, 1000.0)))
        shift = draw(st.sampled_from((-500.0, -20.0, 0.0, 3.0, 1e6)))
        ds = mt.Dataset.from_arrays(ds.y, ds.delta, ds.mark * scale + shift, ds.arm)
    return ds, points, h


@settings(deadline=None, max_examples=200)
@given(_window_cases())
def test_window_terms_match_dense_oracle_on_window_edges(data):
    # lattice marks sit exactly at v - h and v + h for many grid points v
    _assert_windows_match_dense(*data)


def test_window_width_with_grid_points_at_its_rounded_ends():
    # mark - h and mark + h, with the window's slack, both round outward here,
    # so the two grid points placed there are a little more than 2h apart:
    # the window still holds both
    mark, h = 0.39161900052816123, 0.26817956208138977
    reach = h * (1.0 + 4.0 * np.finfo(float).eps)
    ds = mt.Dataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1], [mark, 0.0, 1.0], [0, 1, 1])
    _assert_windows_match_dense(ds, [mark - reach, mark + reach], h)


@pytest.mark.parametrize("points, h", [
    ([0.5], 0.1),
    ([0.4, 0.45, 0.5, 0.55, 0.6], 0.1),
    ([0.1, 0.3, 0.5, 0.7, 0.9], 0.2),
    ([0.05, 0.5, 0.95], 0.45),
    ([0.0, 0.25, 0.5, 0.75, 1.0], 3.0),
    ([0.2, 0.8], 0.1),
])
def test_window_terms_match_dense_oracle_on_hand_dataset(points, h):
    _assert_windows_match_dense(hand_dataset(), points, h)
    _assert_windows_match_dense(hand_dataset(v=0.4), points, h)


@st.composite
def _rank_cases(draw):
    """A grid and the keys its ranks must get exact.

    The grids are evenly spaced with 2 to 200 points on a subinterval of
    [0, 1], irregular, or one point. The keys are every grid point, the
    floats one ulp either side of each, keys inside and outside the grid,
    the largest finite floats, the infinities and NaN, in a drawn order.
    """
    kind = draw(st.sampled_from(("even", "irregular", "one")))
    if kind == "even":
        lower = draw(st.floats(0.0, 0.999))
        upper = draw(st.floats(lower + 1e-3, 1.0))
        count = draw(st.integers(2, 200))
        points = mt.EvaluationGrid.evenly_spaced(mt.MarkInterval(lower, upper), count).points
    else:
        size = 1 if kind == "one" else draw(st.integers(2, 30))
        floats = st.floats(0.0, 1.0)
        points = np.array(sorted(draw(st.lists(floats, min_size=size, max_size=size,
                                                unique=True))))
    near = np.concatenate((points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)))
    loose = draw(st.lists(st.floats(-2.0, 3.0), max_size=20))
    extreme = [-np.finfo(float).max, np.finfo(float).max, -np.inf, np.inf, np.nan]
    keys = np.concatenate((near, loose, extreme))
    return points, keys[draw(st.permutations(range(keys.size)))]


@settings(deadline=None, max_examples=300)
@given(_rank_cases())
def test_rank_is_searchsorted(data):
    # the guess from even spacing, its check and its search fallback together
    # give np.searchsorted's rank on every increasing grid, with no warning on
    # a NaN, infinite or far key
    points, keys = data
    for side in ("left", "right"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _rank(points, keys, side)
        want = np.searchsorted(points, keys, side)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _assert_record_order_invariant(ds, points, h, perm):
    # the event counts are integers and must not move at all; each float sum
    # of m terms may move by rounding, at most 2 * m * eps * sum |term| (the
    # worst-case error of two summation orders, plus the final division)
    shuffled = mt.Dataset.from_arrays(ds.y[perm], ds.delta[perm], ds.mark[perm],
                                      ds.arm[perm])
    grid = mt.EvaluationGrid.explicit(points, UNIT)
    est, (_, _, terms) = _estimate_with_terms(ds, grid, bandwidth=h)
    est_s, (_, _, terms_s) = _estimate_with_terms(shuffled, grid, bandwidth=h)
    assert est_s.events0.tobytes() == est.events0.tobytes()
    assert est_s.events1.tobytes() == est.events1.tobytes()

    eps = np.finfo(float).eps
    dense = scatter_terms(terms, len(points))
    tau_bound, sigma2_bound = 0.0, 0.0
    for a, n_a, curve, curve_s in ((0, ds.n0, est.tau0, est_s.tau0),
                                   (1, ds.n1, est.tau1, est_s.tau1)):
        m = dense[a].shape[1]
        bound = 2 * m * eps * np.abs(dense[a]).sum(axis=1) / n_a
        assert np.all(np.abs(curve_s - curve) <= bound)
        tau_bound = tau_bound + bound
        sigma2_bound = sigma2_bound + 2 * m * eps * (dense[a] ** 2).sum(axis=1) / n_a**2
    assert np.all(np.abs(est_s.tau - est.tau) <= tau_bound)
    assert np.all(np.abs(est_s.sigma2 - est.sigma2) <= est.n * est.h * sigma2_bound)

    for gram, gram_s, arm_dense in zip(arm_grams(terms, len(points))[0],
                                       arm_grams(terms_s, len(points))[0], dense):
        m = arm_dense.shape[1]
        bound = 2 * m * eps * (np.abs(arm_dense) @ np.abs(arm_dense).T)
        assert np.all(np.abs(gram_s - gram) <= bound)


@settings(deadline=None, max_examples=100)
@given(_marked_data(), st.randoms(use_true_random=False))
def test_record_order_moves_sums_by_rounding_only(data, random):
    ds, points, h = data
    perm = np.array(random.sample(range(ds.n), ds.n))
    _assert_record_order_invariant(ds, points, h, perm)


def test_record_order_moves_sums_by_rounding_only_at_scale():
    scenario = resolve_censoring(mt.Scenario(c1=3.0, c2=0.0, c3=-1.0, n=3000, reps=1,
                                             seed=31))
    ds = draw_dataset(scenario, np.random.default_rng(31))
    perm = np.random.default_rng(32).permutation(ds.n)
    points = np.linspace(0.1, 0.9, 20)
    for h in (0.03, 0.12, 0.6):
        _assert_record_order_invariant(ds, points, h, perm)


def test_monte_carlo_bias_is_small():
    scenario = mt.Scenario(
        c1=3.0, c2=0.0, c3=-1.0, n=2000, reps=150, seed=5150,
        censor_mean0=5.440745, censor_mean1=5.757202,
        grid=mt.EvaluationGrid.explicit(
            [0.2, 0.4, 0.6, 0.8], mt.MarkInterval(0.1, 0.9)
        ),
    )
    table = mt.run_replications(scenario)
    # estimator consistency: bias indistinguishable from MC noise, plus slack
    # for the smoothing bias a fixed-n bandwidth leaves behind
    assert np.all(np.abs(table.bias) <= 3.0 * table.bias_se + 0.03)


def test_variance_estimate_tracks_sampling_spread():
    scenario = mt.Scenario(
        c1=3.0, c2=0.0, c3=-1.0, n=1000, reps=400, seed=2291,
        censor_mean0=5.440745, censor_mean1=5.757202,
        grid=mt.EvaluationGrid.explicit(
            [0.2, 0.4, 0.6, 0.8], mt.MarkInterval(0.1, 0.9)
        ),
    )
    table = mt.run_replications(scenario)
    assert np.all(table.ratio >= 0.85) and np.all(table.ratio <= 1.3)
