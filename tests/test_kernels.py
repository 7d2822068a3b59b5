import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from marktau.kernels import (
    Bandwidth,
    KernelError,
    epanechnikov,
    rule_of_thumb_bandwidth,
    scaled_kernel,
)


def test_epanechnikov_values():
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov(-1.0) == 0.0
    assert epanechnikov(1.5) == 0.0
    assert epanechnikov(0.5) == 0.5625
    np.testing.assert_array_equal(
        epanechnikov(np.array([0.0, 2.0])), [0.75, 0.0]
    )


@settings(deadline=None, max_examples=100)
@given(st.floats(-5.0, 5.0, allow_nan=False))
def test_epanechnikov_symmetric_nonnegative(x):
    assert epanechnikov(x) == epanechnikov(-x)
    assert epanechnikov(x) >= 0.0


def test_kernel_integrates_to_one():
    total, _ = quad(epanechnikov, -1.0, 1.0)
    assert abs(total - 1.0) <= 1e-8


def test_scaled_kernel_integrates_to_one():
    for v, h in [(0.3, 0.1), (0.5, 0.25), (0.8, 0.05)]:
        total, _ = quad(lambda u: scaled_kernel(u, v, h), v - h, v + h)
        assert abs(total - 1.0) <= 1e-8


def test_scaled_kernel_peak_and_symmetry():
    assert scaled_kernel(0.5, 0.5, 0.1) == pytest.approx(7.5, rel=1e-12)
    assert scaled_kernel(0.42, 0.5, 0.1) == scaled_kernel(0.5, 0.42, 0.1)
    assert scaled_kernel(0.61, 0.5, 0.1) == 0.0


def test_rule_of_thumb_hand_value():
    # 16 marks split evenly at 0.5 +- sqrt(15)/16 give sample SD exactly 1/4
    offset = np.sqrt(15.0) / 16.0
    marks = np.array([0.5 - offset] * 8 + [0.5 + offset] * 8)
    bw = rule_of_thumb_bandwidth(marks)
    assert bw.sigma_v == pytest.approx(0.25, rel=1e-12)
    assert bw.m == 16
    assert bw.varpi == 1.0
    assert bw.h == pytest.approx(0.125, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=40).filter(
        lambda xs: max(xs) - min(xs) > 1e-6
    ),
    st.floats(0.1, 3.0, allow_nan=False),
)
def test_rule_of_thumb_formula(marks, varpi):
    bw = rule_of_thumb_bandwidth(marks, varpi=varpi)
    expected = varpi * np.std(marks, ddof=1) * len(marks) ** -0.25
    assert bw.h == pytest.approx(expected, rel=1e-12)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(2, 5000),
    st.sampled_from([1e-9, 1e-3, 1.0, 7.5, 1e3, 1e9]),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_rule_of_thumb_sd_is_bitwise_np_std(m, scale, shift, seed):
    # the bandwidth runs np.std's own ufunc steps, so not one bit may differ
    marks = scale * (shift + np.random.default_rng(seed).random(m))
    sigma_v = rule_of_thumb_bandwidth(marks).sigma_v
    assert np.float64(sigma_v).tobytes() == np.std(marks, ddof=1).tobytes()


def test_bandwidth_errors():
    with pytest.raises(KernelError, match="at least 2"):
        rule_of_thumb_bandwidth([0.5])
    with pytest.raises(KernelError, match="zero variance"):
        rule_of_thumb_bandwidth([0.5, 0.5, 0.5])
    with pytest.raises(KernelError, match="positive"):
        rule_of_thumb_bandwidth([0.2, 0.8], varpi=0.0)
    with pytest.raises(KernelError, match="positive"):
        Bandwidth(h=0.0)
    with pytest.raises(KernelError, match="positive"):
        Bandwidth(h=-0.5)
    with pytest.raises(KernelError, match="positive"):
        scaled_kernel(0.5, 0.5, 0.0)


# numpy's overflow and invalid-value warnings on the sum would come first under -W error
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf]])
def test_rule_of_thumb_needs_finite_marks(bad):
    with pytest.raises(KernelError, match="observed marks must be finite"):
        rule_of_thumb_bandwidth([0.2, 0.7] + bad)


@pytest.mark.filterwarnings("error")
def test_rule_of_thumb_on_finite_marks_whose_sum_overflows():
    # every mark is finite, so the marks pass; their sum, and with it h, is not
    with pytest.raises(KernelError, match=re.escape("bandwidth must be positive, got inf")):
        rule_of_thumb_bandwidth([1e308, 1e308, 0.5])
