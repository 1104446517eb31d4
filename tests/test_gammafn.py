import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.special as sps

from fracwell import gammafn as gf

SQRT_PI = math.sqrt(math.pi)


@pytest.mark.parametrize("x, want", [
    (1.0, 1.0),
    (2.0, 1.0),
    (5.0, 24.0),
    (0.5, SQRT_PI),
    (1.5, SQRT_PI / 2.0),
    (7.5, 1871.254305797788),     # scipy.special.gamma(7.5)
])
def test_gamma_real_positive_anchors(x, want):
    assert_allclose(gf.gamma_real(x), want, rtol=1e-13)


@pytest.mark.parametrize("x, want", [
    (-0.5, -2.0 * SQRT_PI),
    (-1.5, 4.0 * SQRT_PI / 3.0),
    (-2.5, -8.0 * SQRT_PI / 15.0),
    (-7.3, 0.00041838787301354784),  # scipy.special.gamma(-7.3)
])
def test_gamma_real_negative_signed(x, want):
    assert_allclose(gf.gamma_real(x), want, rtol=1e-12)


def test_gamma_real_against_scipy_grid():
    # dense positive grid, including the large-argument regime the
    # contour tails lean on
    xs = np.concatenate([np.linspace(0.05, 30, 700), np.linspace(30, 170, 150)])
    ours = np.array([gf.gamma_real(x) for x in xs])
    assert_allclose(ours, sps.gamma(xs), rtol=5e-13)


def test_gamma_real_pole_raises():
    for x in (0.0, -1.0, -3.0, -17.0):
        with pytest.raises(gf.GammaPole):
            gf.gamma_real(x)


def test_gammaln_sign_pole_modes():
    logabs, sign = gf.gammaln_sign(0.0)
    assert logabs == np.inf and sign == 0.0
    logabs, sign = gf.gammaln_sign(-3.0)
    assert logabs == np.inf and sign == 0.0
    with pytest.raises(gf.GammaPole):
        gf.gammaln_sign(-2.0, on_pole="raise")


def test_gammaln_sign_alternates_between_poles():
    # Gamma changes sign on each interval (-n-1, -n)
    for x, want_sign in [(-0.5, -1.0), (-1.5, 1.0), (-2.5, -1.0), (-3.5, 1.0)]:
        logabs, sign = gf.gammaln_sign(x)
        assert sign == want_sign
        assert_allclose(sign * math.exp(logabs), sps.gamma(x), rtol=1e-12)


def test_gammaln_sign_vectorized():
    xs = np.array([0.5, -0.5, 3.0, -2.0])
    logabs, sign = gf.gammaln_sign(xs)
    assert logabs.shape == xs.shape
    assert sign[3] == 0.0 and logabs[3] == np.inf
    assert_allclose(sign[:3] * np.exp(logabs[:3]), sps.gamma(xs[:3]), rtol=1e-12)


def test_loggamma_complex_strip():
    """Random points across the strip the contour integrator visits.

    Branch cuts differ between implementations, so compare after
    exponentiating the difference of logs.
    """
    rng = np.random.default_rng(42)
    zs = rng.uniform(-4, 8, 800) + 1j * rng.uniform(-25, 25, 800)
    zs = zs[np.abs(zs.real - np.round(zs.real)) > 1e-3]  # stay off poles
    d = np.exp(gf.loggamma(zs) - sps.loggamma(zs)) - 1.0
    assert np.abs(d).max() < 1e-12


def test_loggamma_far_imaginary_tail():
    # tail decay |Gamma(c+it)| ~ e^{-pi|t|/2}: the log form must stay
    # accurate where the direct value underflows
    zs = 0.5 + 1j * np.linspace(1, 200, 200)
    d = np.exp(gf.loggamma(zs) - sps.loggamma(zs)) - 1.0
    assert np.abs(d).max() < 1e-12


def test_loggamma_array_shape():
    arr = gf.loggamma(np.array([[1.5 + 1j, 2.0 - 3j], [0.3 + 0j, -0.7 + 2j]]))
    assert arr.shape == (2, 2)
    assert_allclose(np.exp(arr[0, 0]), sps.gamma(1.5 + 1j), rtol=1e-12)


def test_gamma_complex_recurrence():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-3, 5, 50) + 1j * rng.uniform(-8, 8, 50)
    zs = zs[np.abs(zs.real - np.round(zs.real)) > 1e-2]
    lhs = np.exp(gf.loggamma(zs + 1.0))
    rhs = zs * np.exp(gf.loggamma(zs))
    assert_allclose(lhs, rhs, rtol=1e-11)


def test_gamma_complex_reflection():
    rng = np.random.default_rng(11)
    zs = rng.uniform(0.05, 0.95, 40) + 1j * rng.uniform(-5, 5, 40)
    lhs = np.exp(gf.loggamma(zs)) * np.exp(gf.loggamma(1.0 - zs))
    rhs = np.pi / np.sin(np.pi * zs)
    assert_allclose(lhs, rhs, rtol=1e-11)
