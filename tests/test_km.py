import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marktau.data_model import DataError
from marktau.km import fit_censoring_km

from oracles import left_continuous, product_limit_censoring, product_limit_steps


def _fit(y, delta):
    """The censoring curve of one arm: the fit of a block of one dataset, all in arm 0."""
    y = np.asarray(y, dtype=float)
    jump_times, values, curve, _ = fit_censoring_km(y[None], np.asarray(delta)[None],
                                                    np.zeros((1, y.size), np.int64))
    assert not curve.any()
    return jump_times, values


def test_hand_example():
    # times 1, 2, 3 with the middle one censored: one censoring jump at t=2
    y = np.array([1.0, 2.0, 3.0])
    delta = np.array([1, 0, 1])
    jump_times, values = _fit(y, delta)
    np.testing.assert_array_equal(jump_times, [2.0])
    np.testing.assert_array_equal(values, [0.5])
    # left-continuous: the jump at 2 is not yet applied when evaluating at 2
    assert left_continuous(jump_times, values, 2.0) == 1.0
    assert left_continuous(jump_times, values, 3.0) == 0.5
    assert left_continuous(jump_times, values, 0.0) == 1.0


def test_tied_failure_and_censoring():
    # failure at a censoring time stays in the risk set for that censoring
    y = np.array([1.0, 1.0])
    delta = np.array([0, 1])
    jump_times, values = _fit(y, delta)
    np.testing.assert_array_equal(jump_times, [1.0])
    np.testing.assert_array_equal(values, [0.5])
    assert left_continuous(jump_times, values, 1.0) == 1.0


def test_no_censoring_is_flat_one():
    y = np.array([1.0, 2.0, 3.0])
    delta = np.array([1, 1, 1])
    jump_times, values = _fit(y, delta)
    assert jump_times.size == 0
    assert left_continuous(jump_times, values, 0.0) == 1.0
    assert left_continuous(jump_times, values, 100.0) == 1.0


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 50.0, allow_nan=False), st.booleans()),
        min_size=1,
        max_size=20,
    )
)
def test_survival_properties(rows):
    y = np.array([r[0] for r in rows])
    delta = np.array([int(r[1]) for r in rows])
    jump_times, values = _fit(y, delta)
    assert left_continuous(jump_times, values, 0.0) == 1.0
    probes = np.sort(np.concatenate([y, y + 0.5, [0.0]]))
    vals = left_continuous(jump_times, values, probes)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    # evaluated at an uncensored time the curve cannot dip below 1/n
    n = y.size
    for yi, di in zip(y, delta):
        if di == 1:
            assert left_continuous(jump_times, values, yi) >= 1.0 / n - 1e-15


def test_exhaustive_against_oracle():
    base_times = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0]
    for n in range(1, 9):
        y = np.array(base_times[:n])
        for pattern in itertools.product([0, 1], repeat=n):
            delta = np.array(pattern)
            jump_times, values = _fit(y, delta)
            probes = sorted(set([0.0, 6.0] + list(y) + [t + 0.5 for t in y]))
            for t in probes:
                expected = product_limit_censoring(y, delta, t)
                assert abs(left_continuous(jump_times, values, t) - expected) <= 1e-12, (
                    n,
                    pattern,
                    t,
                )


def test_step_survival_vector_evaluation():
    out = left_continuous(np.array([1.0, 3.0]), np.array([0.5, 0.25]),
                          np.array([0.5, 1.0, 2.0, 3.0, 10.0]))
    np.testing.assert_array_equal(out, [1.0, 1.0, 0.5, 0.5, 0.25])


def test_fit_matches_product_limit_steps_bitwise():
    # tie-heavy integer times: the oracle multiplies the same factors in the
    # same order, so every value agrees to the last bit
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        y = rng.integers(0, 5, n).astype(float)
        delta = rng.integers(0, 2, n)
        jump_times, values = _fit(y, delta)
        steps = product_limit_steps(y, delta)
        assert jump_times.tolist() == [s for s, _ in steps]
        assert values.tobytes() == np.array([v for _, v in steps]).tobytes()


def test_block_curves_are_each_arms_own_fit_bitwise():
    # every (row, arm) curve of a block is the fit of that arm alone, with an
    # arm that has no censoring or no subject giving no jumps; censorings at
    # -0.0 and 0.0 tie, and their jump has the sign of the last in record
    # order, as the oracle's has
    rng = np.random.default_rng(8)
    for _ in range(100):
        rows, n = int(rng.integers(1, 5)), int(rng.integers(1, 30))
        y = rng.integers(0, 5, (rows, n)).astype(float)
        y[rng.random((rows, n)) < 0.2] = -0.0
        delta = rng.integers(0, 2, (rows, n))
        arm = rng.integers(0, 2, (rows, n))
        jump_times, values, curve, _ = fit_censoring_km(y, delta, arm)
        assert (np.diff(curve) >= 0).all()
        for r, a in itertools.product(range(rows), (0, 1)):
            steps = product_limit_steps(y[r, arm[r] == a], delta[r, arm[r] == a])
            mine = curve == 2 * r + a
            assert jump_times[mine].tobytes() == np.array([s for s, _ in steps]).tobytes()
            assert values[mine].tobytes() == np.array([v for _, v in steps]).tobytes()


@pytest.mark.parametrize("y, delta", [
    ([0.0, -0.0, 1.0, 2.0], [1, 0, 0, 1]),
    ([-0.0, 0.0, 1.0, 2.0], [0, 1, 0, 1]),
])
def test_zero_jump_time_keeps_the_sign_its_censorings_record(y, delta):
    # the censoring at -0.0 ties with the failure at 0.0, in either record
    # order; the jump is at -0.0
    jump_times, values = _fit(y, delta)
    assert jump_times.tobytes() == np.array([-0.0, 1.0]).tobytes()
    np.testing.assert_array_equal(values, [0.75, 0.375])


def test_negative_times_are_rejected():
    with pytest.raises(DataError, match="non-negative"):
        _fit([-1.0, 2.0], [0, 1])
