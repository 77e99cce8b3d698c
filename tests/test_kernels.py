"""Tests for the Gaussian tail kernels phi and phi_prime.

phi(t) is checked against direct numerical quadrature of its defining
integral sqrt(2/pi) * int_t^inf (x - t)^2 exp(-x^2/2) dx, and phi_prime
against the analogous first-moment integral.  Shape handling, the far-tail
cutoff, and domain validation are covered alongside hypothesis properties
(monotonicity, convexity, sign).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from wbp import phi, phi_prime
from wbp.kernels import SQRT_2_OVER_PI


def phi_quadrature(t: float) -> float:
    val, _ = integrate.quad(lambda x: (x - t) ** 2 * math.exp(-x * x / 2), t, np.inf)
    return SQRT_2_OVER_PI * val


def phi_prime_quadrature(t: float) -> float:
    val, _ = integrate.quad(lambda x: (x - t) * math.exp(-x * x / 2), t, np.inf)
    return -2.0 * SQRT_2_OVER_PI * val


@pytest.mark.parametrize("t", [0.0, 0.1, 0.25, 0.5, 1.0, 1.7, 2.0, 3.0])
def test_phi_matches_quadrature(t):
    np.testing.assert_allclose(phi(t), phi_quadrature(t), rtol=1e-10)


@pytest.mark.parametrize("t", [0.0, 0.1, 0.25, 0.5, 1.0, 1.7, 2.0, 3.0])
def test_phi_prime_matches_quadrature(t):
    np.testing.assert_allclose(phi_prime(t), phi_prime_quadrature(t), rtol=1e-9)


def test_phi_frozen_values():
    # spot values pinned by the quadrature oracle above
    np.testing.assert_allclose(phi(0.5), 0.4192785200506679, rtol=1e-13)
    np.testing.assert_allclose(phi(1.0), 0.15067956668754157, rtol=1e-13)
    np.testing.assert_allclose(phi(2.0), 0.01153745342903989, rtol=1e-13)
    np.testing.assert_allclose(phi_prime(0.5), -0.791186229605224, rtol=1e-13)
    np.testing.assert_allclose(phi_prime(1.0), -0.33326188235074516, rtol=1e-13)


def test_phi_at_zero():
    assert phi(0.0) == 1.0
    np.testing.assert_allclose(phi_prime(0.0), -2.0 * SQRT_2_OVER_PI, rtol=1e-15)


def test_far_tail_cutoff_is_exact_zero():
    assert phi(50.0) == 0.0
    assert phi(123.0) == 0.0
    assert phi_prime(50.0) == 0.0
    out = phi(np.array([0.0, 60.0]))
    assert out[1] == 0.0 and out[0] == 1.0


def test_scalar_in_scalar_out():
    assert isinstance(phi(1.0), float)
    assert isinstance(phi_prime(1.0), float)
    arr = phi(np.array([0.5, 1.0]))
    assert arr.shape == (2,)
    assert arr[0] == phi(0.5)


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        phi(-0.1)
    with pytest.raises(ValueError):
        phi_prime(-1e-12)
    with pytest.raises(ValueError):
        phi(np.array([0.5, -0.5]))


def test_nan_rejected():
    with pytest.raises(ValueError):
        phi(float("nan"))
    with pytest.raises(ValueError):
        phi_prime(np.array([0.0, float("nan")]))


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
def test_phi_is_decreasing(t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert phi(lo) >= phi(hi)


@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
@settings(max_examples=60)
def test_phi_midpoint_convexity(a, b):
    mid = phi(0.5 * (a + b))
    chord = 0.5 * (phi(a) + phi(b))
    assert mid <= chord + 1e-12


@given(st.floats(0.0, 40.0))
def test_phi_prime_nonpositive(t):
    assert phi_prime(t) <= 0.0


@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_phi_prime_is_nondecreasing(t1, t2):
    # phi'' = 2 erfc >= 0, so the derivative rises toward zero
    lo, hi = min(t1, t2), max(t1, t2)
    assert phi_prime(lo) <= phi_prime(hi) + 1e-15


@given(st.floats(0.01, 5.0))
@settings(max_examples=40)
def test_phi_prime_is_derivative_of_phi(t):
    h = 1e-6 * max(1.0, t)
    if t < h:
        t = h
    numeric = (phi(t + h) - phi(t - h)) / (2.0 * h)
    assert abs(numeric - phi_prime(t)) < 1e-6


def test_phi_positive_before_cutoff():
    for t in (0.0, 1.0, 10.0, 30.0, 49.0):
        assert phi(t) >= 0.0
