import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.special as sps

from fracwell import gammafn as gf
from fracwell.deltawell import PotentialConfig, energy_closed_form
from fracwell.measure import MeasureDim

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


def test_gammaln_sign_negative_grid_against_scipy():
    # a dense grid of negative non-integers, in real arithmetic through
    # the reflection
    xs = np.linspace(-30.0, 0.0, 30001)
    xs = xs[np.abs(xs - np.rint(xs)) > 1e-6]
    logabs, sign = gf.gammaln_sign(xs)
    want = sps.gammaln(xs)
    assert np.all(np.abs(logabs - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(sign, sps.gammasgn(xs))


@pytest.mark.parametrize("pole", [-1.0, -2.0, -7.0])
def test_gammaln_sign_next_to_a_pole(pole):
    # 1e-9 to 1e-3 either side of a pole: sin(pi x) taken as sin(pi r), r =
    # x - rint(x) exact, keeps its relative accuracy (sin(pi * x) was off
    # by 5e-7 in log|Gamma| at 1e-9 from -7)
    d = np.geomspace(1e-9, 1e-3, 13)
    xs = np.concatenate([pole - d, pole + d])
    logabs, sign = gf.gammaln_sign(xs)
    assert np.all(np.abs(logabs - sps.gammaln(xs)) <= 1e-13 * np.abs(sps.gammaln(xs)))
    assert np.array_equal(sign, sps.gammasgn(xs))


@pytest.mark.parametrize("pole", [-1.0, -2.0, -7.0])
@pytest.mark.parametrize("imag", [1e-12, 0.3])
def test_loggamma_next_to_a_pole(pole, imag):
    # the complex reflection reduces sin(pi z) to sin(pi r), r = z -
    # rint(Re z), and takes 1 - e^(-2 pi |Im z|) by expm1 (the rounded pi
    # * z and the cancelling 1 - q were off by 5e-7 at 1e-9 from -7)
    d = np.geomspace(1e-9, 1e-3, 13)
    zs = np.concatenate([pole - d, pole + d]) + 1j * imag
    err = np.abs(np.exp(gf.loggamma(zs) - sps.loggamma(zs)) - 1.0)
    assert err.max() <= 1e-13


def test_loggamma_where_the_sum_and_the_bracket_are_near_one():
    # |Im z| from 10 to 1e3 and Re z in [-30, 30]: the Lanczos sum and the
    # reflection bracket have modulus near 1, where libm's complex log
    # takes its slow path and the kernel takes log|v| + i arg v instead.
    # The value ratio is within 1e-13 beyond the rounding of log Gamma
    # itself, 8 ulp of |log Gamma| (about 7e-12 at |Im z| = 1e3)
    z = (np.linspace(-30.0, 30.0, 61)[:, None] + 1j * np.geomspace(10.0, 1e3, 41)).ravel()
    z = np.concatenate([z, z.conj()])
    want = sps.loggamma(z)
    err = np.abs(np.exp(gf.loggamma(z) - want) - 1.0)
    assert np.all(err <= 1e-13 + 8 * np.finfo(float).eps * np.abs(want))


def test_complex_kernel_sums_rows_in_the_trailing_sums_order():
    # the partial fractions along a leading axis add up, bit for bit, as
    # the trailing-axis sum of eight complex values did, at every shape
    def trailing(z):
        w = z - 1.0
        acc = gf.LANCZOS_COEFFS[0] + np.sum(gf.LANCZOS_COEFFS[1:] / (w[..., None] + gf._LANCZOS_K),
                                            axis=-1)
        t = w + gf.LANCZOS_G + 0.5
        return gf._HALF_LOG_TWO_PI + (w + 0.5) * gf._clog(t) - t + gf._clog(acc)

    rng = np.random.default_rng(5)
    zs = rng.uniform(0.5, 40.0, 400) + 1j * rng.uniform(-1e3, 1e3, 400)
    for z in (zs, zs.reshape(8, 50), zs[:1], np.asarray(zs[3])):
        got = gf._core_loggamma(z)
        assert got.shape == z.shape and np.array_equal(got, trailing(z))


def test_parity_of_far_and_nan_integers():
    # n = rint(Re z) is odd by its integer low bit; past 2^63 every double
    # is even, and nan reads even without a warning (the sine is nan there)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = np.array([3.0, -5.0, -4.0, 0.0, 2.0 ** 53 + 2.0, -2.0 ** 70, 1e300, math.nan])
        assert gf._odd(n).tolist() == [1, 1, 0, 0, 0, 0, 0, 0]


def test_gammaln_sign_return_types():
    # 0-d in, two floats out; an array keeps its shape, on the all-real-
    # positive path and through the reflection alike (hfox passes
    # (..., k) tables)
    for x in (2.5, -0.3, np.float64(-3.0), np.array(0.7)):
        logabs, sign = gf.gammaln_sign(x)
        assert isinstance(logabs, float) and isinstance(sign, float)
        assert np.ndim(logabs) == 0 and np.ndim(sign) == 0
    for xs in (np.linspace(0.5, 9.0, 12).reshape(3, 4),
               np.array([[0.5, -0.5, 3.0, -2.5], [1e-3, -7.3, 40.0, -1e-9]])):
        logabs, sign = gf.gammaln_sign(xs)
        assert logabs.shape == sign.shape == xs.shape
        assert_allclose(sign * np.exp(logabs), sps.gamma(xs), rtol=1e-12)


def test_corrupted_table_moves_each_kernel(monkeypatch):
    # negative control at kernel level: the table is read at each call, so
    # scaling it by 1 + 1e-4 moves every log-gamma by log(1 + 1e-4), with
    # the sign of the reflection left of 1/2
    before = (gf.gammaln_sign(2.5)[0], gf.gammaln_sign(-0.3)[0],
              gf.loggamma(1.5 + 2j))
    monkeypatch.setattr(gf, "LANCZOS_COEFFS", gf.LANCZOS_COEFFS * (1.0 + 1e-4))
    after = (gf.gammaln_sign(2.5)[0], gf.gammaln_sign(-0.3)[0],
             gf.loggamma(1.5 + 2j))
    shift = math.log1p(1e-4)
    assert after[0] - before[0] == pytest.approx(shift, rel=1e-6)
    assert after[1] - before[1] == pytest.approx(-shift, rel=1e-6)
    assert after[2] - before[2] == pytest.approx(shift, rel=1e-6)


def test_corrupted_table_moves_the_energy_and_the_measure_norm(monkeypatch):
    # negative control on the energy path: the closed form's three gammas
    # and the measure's norm read the table at each call, so scaling it by
    # 1 + 1e-4 moves log|E| by log(1 + 1e-4) alpha/(alpha - lam) (one net
    # log-gamma in the bracket) and the norm pi^(lam/2)/Gamma(lam/2) by the
    # negative of one log-gamma
    alpha, lam = 1.5, 0.8
    cfg = PotentialConfig(alpha=alpha, lam=lam)
    before = (energy_closed_form(cfg).energy, MeasureDim(lam).weight_norm)
    monkeypatch.setattr(gf, "LANCZOS_COEFFS", gf.LANCZOS_COEFFS * (1.0 + 1e-4))
    after = (energy_closed_form(cfg).energy, MeasureDim(lam).weight_norm)
    shift = math.log1p(1e-4)
    assert (math.log(abs(after[0])) - math.log(abs(before[0]))
            == pytest.approx(shift * alpha / (alpha - lam), rel=1e-6))
    assert math.log(after[1]) - math.log(before[1]) == pytest.approx(-shift, rel=1e-6)


def _core_loggamma_loop(z):
    """The Lanczos sum as an 8-step loop in complex arithmetic, the form
    the broadcast kernel replaced."""
    coeffs = gf.LANCZOS_COEFFS
    z = np.asarray(z, dtype=complex)
    w = z - 1.0
    acc = np.full_like(z, coeffs[0])
    for i in range(1, len(coeffs)):
        acc = acc + coeffs[i] / (w + i)
    t = w + gf.LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (w + 0.5) * np.log(t) - t + np.log(acc)


def test_core_loggamma_matches_the_loop():
    # one broadcast division and sum, real in real arithmetic: the sum's
    # order and the real division move only the last digits, within 64 ulp
    # of max(1, |log Gamma|) (the sum's cancellation among the partial
    # fractions amplifies rounding)
    tol = 64 * np.finfo(float).eps
    xs = np.concatenate([np.linspace(0.5, 30.0, 500), np.geomspace(30.0, 1e6, 100)])
    got = gf._core_loggamma(xs)
    assert got.dtype == np.float64
    want = _core_loggamma_loop(xs)
    assert np.all(np.abs(got - want.real) <= tol * np.maximum(1.0, np.abs(want.real)))
    rng = np.random.default_rng(3)
    zs = rng.uniform(0.5, 30.0, 500) + 1j * rng.uniform(-50.0, 50.0, 500)
    want = _core_loggamma_loop(zs)
    assert np.all(np.abs(gf._core_loggamma(zs) - want) <= tol * np.maximum(1.0, np.abs(want)))
