import math

import numpy as np
import pytest
import scipy.integrate as si
from numpy.testing import assert_allclose

from fracwell import deltawell as dw
from fracwell import measure as ms
from fracwell.measure import DeltaFamily, MeasureDim
from fracwell.quadrature import QuadFailure


# ------------------------------------------------------------ weight norm

def test_weight_classical_is_unity():
    # pi^{1/2}/Gamma(1/2) goes through the Lanczos sum, so unity only
    # up to roundoff
    assert_allclose(MeasureDim(lam=1.0).weight_norm, 1.0, rtol=1e-14)


def test_weight_half_order():
    # pi^{1/4} / Gamma(1/4), evaluated by the package gamma itself and
    # cross-frozen against scipy
    assert_allclose(MeasureDim(lam=0.5).weight_norm, 0.3672031458159025,
                    rtol=1e-12)


@pytest.mark.parametrize("lam", [1e-13, 1e-17, 1e-100, 1e-300])
def test_weight_at_tiny_order(lam):
    # pi^(lam/2)/Gamma(lam/2) -> lam/2, also where lam/2 lies below the
    # gamma kernel's pole tolerance
    assert_allclose(MeasureDim(lam=lam).weight_norm, lam / 2.0, rtol=1e-13)


def test_order_window_enforced():
    for lam in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            MeasureDim(lam=lam)
    MeasureDim(lam=1e-3)   # small but admissible


# -------------------------------------------------------------- integrate

def test_integrate_classical_gaussian():
    d1 = MeasureDim(lam=1.0)
    v, e = ms.integrate(d1, lambda x: np.exp(-x * x))
    assert abs(v - math.sqrt(math.pi)) <= max(e, 1e-10)


def test_integrate_half_order_exponential():
    # closed form 2 pi^{1/4} Gamma(1/2) / Gamma(1/4)
    dh = MeasureDim(lam=0.5)
    v, e = ms.integrate(dh, lambda x: np.exp(-np.abs(x)))
    assert abs(v - 1.3017012597320328) <= max(e, 1e-9)


def test_integrate_finite_domains():
    d1 = MeasureDim(lam=1.0)
    v, _ = ms.integrate(d1, lambda x: np.ones_like(x), (0.0, 2.0))
    assert_allclose(v, 2.0, rtol=1e-10)
    dh = MeasureDim(lam=0.5)
    v, _ = ms.integrate(dh, lambda x: np.ones_like(x), (-1.0, 1.0))
    # 2 * w * int_0^1 x^{-1/2} dx = 4 w
    assert_allclose(v, 4.0 * dh.weight_norm, rtol=1e-9)


@pytest.mark.parametrize("width, resolved", [(1e-2, True), (5e-3, False)])
def test_integrate_peak_resolved_or_refused(width, resolved):
    # a Lorentzian at x = 1 on the half-line: half-width 1% of x is taken
    # to rel_tol, 0.5% is finer than the rule's finest grid and raises
    d1 = MeasureDim(lam=1.0)
    w2 = width * width
    f = lambda x: w2 / (w2 + (x - 1.0) ** 2) / (1.0 + x * x)
    if not resolved:
        with pytest.raises(QuadFailure):
            ms.integrate(d1, f, (0.0, np.inf))
        return
    v, e = ms.integrate(d1, f, (0.0, np.inf))
    want = (si.quad(f, 0.0, 2.0, points=[1.0], epsabs=0.0, epsrel=1e-12,
                    limit=500)[0]
            + si.quad(f, 2.0, np.inf, epsabs=0.0, epsrel=1e-12)[0])
    assert abs(v - want) <= max(e, 1e-8 * want)


@pytest.mark.parametrize("lam", [0.4, 0.7, 1.0])
@pytest.mark.parametrize("eps", [1.0, 4.0, 16.0])
def test_delta_unit_mass(lam, eps):
    dim = MeasureDim(lam=lam)
    fam = DeltaFamily(dim=dim, epsilon=eps)
    v, _ = ms.integrate(dim, lambda x: ms.delta_value(fam, x))
    assert abs(v - 1.0) <= 1e-8


# ------------------------------------------------------------ delta family

def test_delta_value_anchors():
    assert ms.delta_value(DeltaFamily(MeasureDim(1.0), 1.0), 0.0) == 1.0
    assert ms.delta_value(DeltaFamily(MeasureDim(0.5), 4.0), 0.0) == 2.0


def test_delta_scaling_identity():
    # delta_eps(c x) = c^{-lam} delta_{c eps}(x); algebraically exact,
    # numerically exact up to roundoff amplified by the Gaussian exponent
    rng = np.random.default_rng(99)
    for _ in range(20):
        lam = rng.uniform(0.2, 1.0)
        c = rng.uniform(0.5, 3.0)
        x = rng.uniform(0.01, 1.0)
        eps = rng.uniform(0.5, 4.0)
        dim = MeasureDim(lam=lam)
        lhs = ms.delta_value(DeltaFamily(dim, eps), c * x)
        rhs = c ** -lam * ms.delta_value(DeltaFamily(dim, c * eps), x)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_delta_positive_epsilon_required():
    with pytest.raises(ValueError):
        DeltaFamily(MeasureDim(0.5), 0.0)


# ------------------------------------------------------------------- sift

def test_sift_cosine_error_decreases():
    d8 = MeasureDim(lam=0.8)
    devs = []
    for eps in (4.0, 8.0, 16.0):
        v, _ = ms.sift(d8, lambda x: np.cos(x), eps)
        devs.append(abs(v - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-4    # measured 2.49e-4 at eps=16


def test_sift_constant():
    d8 = MeasureDim(lam=0.8)
    v, _ = ms.sift(d8, lambda x: np.ones_like(np.asarray(x, dtype=float)), 8.0)
    assert abs(v - 1.0) <= 1e-8


def test_sift_odd_function_vanishes():
    d8 = MeasureDim(lam=0.8)
    v, _ = ms.sift(d8, lambda x: np.asarray(x, dtype=float), 8.0)
    assert abs(v) < 1e-10


# ---------------------------------------------------------------- fourier

def test_fourier_forward_classical_gaussian():
    d1 = MeasureDim(lam=1.0)
    v, e = ms.fourier_forward(d1, lambda x: np.exp(-x * x / 2.0), 1.0)
    assert abs(v.real - 1.5203469010662807) <= max(e, 1e-9)
    assert abs(v.imag) < 1e-12     # even integrand


def test_fourier_forward_matches_analytic_transform():
    d1 = MeasureDim(lam=1.0)
    for k in (0.5, 1.0, 2.0):
        v, e = ms.fourier_forward(d1, lambda x: np.exp(-x * x / 2.0), k)
        want = math.sqrt(2.0 * math.pi) * math.exp(-k * k / 2.0)
        assert abs(v.real - want) <= max(e, 1e-9)


def test_fourier_delta_tends_to_unity():
    d8 = MeasureDim(lam=0.8)
    fam = DeltaFamily(dim=d8, epsilon=1.0)
    v, _ = ms.fourier_forward(d8, lambda x: ms.delta_value(fam, x), 0.0)
    assert abs(v.real - 1.0) <= 1e-8
    devs = []
    for eps in (4.0, 8.0, 16.0):
        fam = DeltaFamily(dim=d8, epsilon=eps)
        v, _ = ms.fourier_forward(d8, lambda x: ms.delta_value(fam, x), 2.0)
        devs.append(abs(v.real - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-3    # measured 9.9e-4 at eps=16


def test_fourier_inverse_round_trip_classical():
    d1 = MeasureDim(lam=1.0)
    gan = lambda k: np.sqrt(2.0 * np.pi) * np.exp(-k * k / 2.0)
    for x0 in (0.0, 1.0):
        v, _ = ms.fourier_inverse(d1, gan, x0)
        assert abs(v.real - math.exp(-x0 * x0 / 2.0)) <= 1e-6


@pytest.mark.parametrize("alpha,lam", [(1.5, 0.8), (1.2, 0.3), (2.0, 1.0)])
def test_position_profile_is_inverse_transform_of_momentum_profile(alpha, lam):
    # the paper's transform pair: the position solution is the inverse
    # lam-transform of the momentum one, here against the quadrature route
    cfg = dw.PotentialConfig(alpha=alpha, lam=lam)
    st = dw.energy_closed_form(cfg)
    for x in (0.3, 1.0, 2.5):
        v, _ = ms.fourier_inverse(cfg.dim,
                                  lambda p: dw.momentum_wavefunction(st, cfg, p),
                                  x)
        want, _ = dw.position_wavefunction_quadrature(st, cfg, x)
        assert v.imag == 0.0
        assert abs(v.real - want) <= 1e-13 * abs(want), x
