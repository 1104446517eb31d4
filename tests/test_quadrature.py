import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.integrate as si

from fracwell.quadrature import (
    BLOCK,
    NonDecaying,
    NonIntegrable,
    QuadFailure,
    QuadSpec,
    _DE_TABLES,
    integrate_oscillatory,
    integrate_sinh,
)


# ------------------------------------------------- integrate_sinh (adaptive)
# The rule adapts its step: it halves it until two successive trapezoid
# sums agree.  Integrals over an interval reach it through a map to the
# line, as measure.integrate's do.

def _on(f, a, b):
    """f on [a, b] (b may be inf) as an integrand in t on the line:
    x = a + e^t, or a + (b - a) e^t/(1 + e^t), times dx/dt."""
    if math.isinf(b):
        return lambda t: f(a + np.exp(t)) * np.exp(t)

    def g(t):
        soft = np.logaddexp(0.0, t)
        sig = np.exp(t - soft)
        return f(a + (b - a) * sig) * (b - a) * sig * np.exp(-soft)
    return g


def _power_kernel(lam):
    # int e^(lam t) / (1 + e^t) dt = pi / sin(pi lam), in logs, as
    # e^((lam-1) t) / (1 + e^-t) for t > 0
    return lambda t: np.exp(np.where(t > 0.0, (lam - 1.0) * t, lam * t)
                            - np.log1p(np.exp(-np.abs(t))))


# integrand in t, its slower decay rate, exact value
_KNOWN = {
    "gaussian": (lambda t: np.exp(-t * t), 1.0, math.sqrt(math.pi)),
    "sech": (lambda t: 1.0 / np.cosh(t), 1.0, math.pi),
    # int_0^inf x^(-1/2) e^(-x) dx in t = log x: an endpoint power
    "gamma_half": (lambda t: np.exp(0.5 * t - np.exp(t)), 0.5, math.sqrt(math.pi)),
    "power_half": (_power_kernel(0.5), 0.5, math.pi),
    "power_1e-8": (_power_kernel(1e-8), 1e-8, math.pi / math.sin(math.pi * 1e-8)),
    # sin(pi lam) = sin(pi (1 - lam)), rounded where it is not small
    "power_0.999": (_power_kernel(0.999), 0.001, math.pi / math.sin(math.pi * 0.001)),
}


@pytest.mark.parametrize("name", list(_KNOWN))
def test_sinh_known_integrals(name):
    g, rate, want = _KNOWN[name]
    v, e = integrate_sinh(g, rate)
    # the error is within err_est or within the rounding of a sum of a
    # few hundred terms
    assert abs(v - want) <= max(e, 2e-15 * want), (v, want, e)


def test_adaptive_finite_interval():
    v, e = integrate_sinh(_on(np.sin, 0.0, math.pi), 1.0)
    assert abs(v - 2.0) <= max(e, 1e-15)


def test_adaptive_semi_infinite():
    v, e = integrate_sinh(_on(lambda x: np.exp(-x), 0.0, np.inf), 1.0)
    assert abs(v - 1.0) <= max(e, 1e-15)


def test_adaptive_full_line_gaussian():
    v, e = integrate_sinh(lambda t: np.exp(-t * t), 1.0)
    assert abs(v - math.sqrt(math.pi)) <= max(e, 1e-15)


def test_adaptive_endpoint_singularity():
    # x^(-1/2) on [0, 1]: the map turns the endpoint power into the tail
    # e^(t/2), which the rule never reaches the end of
    v, e = integrate_sinh(_on(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0), 0.5)
    assert abs(v - 2.0) <= max(e, 1e-15)


def test_adaptive_degenerate_and_reversed():
    # a zero integrand sums to exactly zero at the first step; the nodes
    # are symmetric in t, so g(-t) gives g's value to rounding
    assert integrate_sinh(lambda t: np.zeros_like(t), 1.0) == (0.0, 0.0)
    g = lambda t: np.exp(-(t - 0.7) ** 2)
    v, _ = integrate_sinh(g, 1.0)
    w, _ = integrate_sinh(lambda t: g(-t), 1.0)
    assert_allclose(w, v, rtol=1e-15)


def test_adaptive_error_estimate_is_honest():
    cases = [
        (_on(np.sin, 0.0, math.pi), 2.0),
        (_on(lambda x: np.exp(-x), 0.0, np.inf), 1.0),
        (_on(lambda x: 1.0 / (1.0 + x * x), 0.0, np.inf), math.pi / 2.0),
        # e^x on (-inf, 1], as e^(1 - x) on [0, inf)
        (_on(lambda x: np.exp(1.0 - x), 0.0, np.inf), math.e),
    ]
    for g, truth in cases:
        v, e = integrate_sinh(g, 1.0)
        assert abs(v - truth) <= max(e, 1e-15)


def test_adaptive_rejects_nonfinite_integrand():
    f = lambda t: np.where(t > 1.0, np.inf, np.exp(-t * t))
    with pytest.raises(NonIntegrable):
        integrate_sinh(f, 1.0)


def test_adaptive_respects_tight_spec():
    spec = QuadSpec(abs_tol=1e-15, rel_tol=1e-14)
    v, e = integrate_sinh(lambda t: np.exp(-t * t), 1.0, spec)
    assert e <= 1e-14 * v
    assert abs(v - math.sqrt(math.pi)) <= 1e-15


class _Counted:
    """Integrand wrapper that records the size of every call."""

    def __init__(self, f):
        self.f, self.sizes = f, []

    def __call__(self, x):
        self.sizes.append(x.size)
        return self.f(x)


def _trapezoid(g, h, n):
    """The trapezoid sum in s of g(t) dt/ds on the nodes k h, |k| <= n,
    taken node by node."""
    total = 0.0
    for k in range(-n, n + 1):
        s = k * h
        t = 0.5 * math.pi * math.sinh(s)
        total += float(g(np.array([t]))[0]) * 0.5 * math.pi * math.cosh(s)
    return h * total


@pytest.mark.parametrize("f, a, b", [
    (np.sin, 0.0, math.pi),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),
    (lambda x: np.log(x) * np.cos(30.0 * x), 0.0, 2.0),
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
])
@pytest.mark.parametrize("digits", [4, 8])
def test_adaptive_batched_matches_panel_by_panel(f, a, b, digits):
    # one integrand call for the first grid and one per halving, on its
    # midpoints alone; the value is the trapezoid sum at the final step
    # taken node by node, and the step is the first whose sum agrees
    # with the last to rel_tol = 10^-digits
    spec = QuadSpec(rel_tol=10.0 ** -digits)
    counted = _Counted(_on(f, a, b))
    v, e = integrate_sinh(counted, 0.5, spec)
    sizes = counted.sizes
    assert all(later == 2 * earlier for earlier, later in zip(sizes[1:], sizes[2:]))
    assert len(sizes) == 1 or sizes[1] == sizes[0] - 1
    halvings = len(sizes) - 1
    h, n = 0.125 / 2 ** halvings, (sizes[0] - 1) // 2 * 2 ** halvings
    assert abs(v - _trapezoid(counted.f, h, n)) <= 1e-14 * abs(v)
    coarse = _trapezoid(counted.f, 2.0 * h, n // 2)
    assert e == pytest.approx(abs(v - coarse), rel=1e-6, abs=1e-14 * abs(v))
    assert e <= max(spec.abs_tol, spec.rel_tol * abs(v))


def test_adaptive_nonfinite_names_its_panel():
    # the message names the first non-finite node: on the first grid,
    # s = 5/8 is the first node past t = 1
    f = lambda t: np.where(t > 1.0, np.inf, np.exp(-t * t))
    first = float(0.5 * math.pi * np.sinh(5 / 8))
    with pytest.raises(NonIntegrable, match=re.escape(f"t = {first!r}")):
        integrate_sinh(f, 1.0)
    # a halving: the first midpoint past t = 1 is s = 11/16
    calls = [0]

    def g(t):
        calls[0] += 1
        y = np.exp(-64.0 * (t - 3.0) ** 2)
        return np.where(t > 1.0, np.nan, y) if calls[0] == 2 else y

    second = float(0.5 * math.pi * np.sinh(11 / 16))
    with pytest.raises(NonIntegrable, match=re.escape(f"t = {second!r}")):
        integrate_sinh(g, 1.0)


@pytest.mark.parametrize("g, rate", [
    # a kink at t = 0 leaves the trapezoid rule with an h^2 error
    (lambda t: np.exp(-np.abs(t)), 1.0),
    # a peak of half-width 1e-4 at x = 0.3 of [0, 1], about 3e-4 in s:
    # narrower than the finest step resolves
    (_on(lambda x: 1.0 / (1e-8 + (x - 0.3) ** 2), 0.0, 1.0), 0.5),
], ids=["kink", "narrow_peak"])
def test_sinh_fails_when_tolerance_is_out_of_reach(g, rate):
    # the error stays far above rel_tol at the finest step: the rule
    # raises rather than return a value
    with pytest.raises(QuadFailure, match="finest step"):
        integrate_sinh(g, rate)


def test_sinh_rejects_a_rate_out_of_range():
    with pytest.raises(ValueError):
        integrate_sinh(lambda t: np.exp(-t * t), 0.0)
    # a window |t| <= 40/rate past (pi/2) sinh 700 is out of double range
    with pytest.raises(QuadFailure, match="too slow"):
        integrate_sinh(lambda t: np.exp(-t * t), 1e-305)


# ------------------------------------------------------------- oscillatory

def test_oscillatory_exponential_envelope():
    # int_0^inf e^{-p} cos(wp) dp = 1/(1+w^2)
    for omega in (1.0, 5.0):
        v, e = integrate_oscillatory(lambda p: np.exp(-p), omega)
        want = 1.0 / (1.0 + omega * omega)
        assert abs(v - want) <= max(e, 1e-10)


def test_oscillatory_high_frequency():
    v, e = integrate_oscillatory(lambda p: np.exp(-p), 50.0)
    assert abs(v - 1.0 / 2501.0) <= max(e, 1e-9)


def test_oscillatory_lorentz():
    v, e = integrate_oscillatory(lambda p: 1.0 / (1.0 + p * p), 1.0)
    assert abs(v - math.pi / (2.0 * math.e)) <= max(e, 1e-9)


def test_oscillatory_below_abs_tol_is_zeroish():
    # true value (pi/2)e^{-50} ~ 3e-22 sits far under abs_tol; anything
    # inside the reported error budget is acceptable
    v, e = integrate_oscillatory(lambda p: 1.0 / (1.0 + p * p), 50.0)
    assert abs(v) <= max(e, 1e-9)


def test_oscillatory_singular_envelope():
    # int_0^inf p^{-1/2} cos(p)/(1+p) dp, frozen from a 50-digit
    # mpmath evaluation of the alternating half-period series
    want = 1.3056085090234678
    v, e = integrate_oscillatory(lambda p: p ** -0.5 / (1.0 + p), 1.0,
                                 singularity_power=-0.5)
    assert abs(v - want) <= max(e, 1e-7)


def test_oscillatory_sin_kernel():
    v, e = integrate_oscillatory(lambda p: np.exp(-p * p / 2.0), 1.0,
                                 kernel="sin")
    want, _ = si.quad(lambda p: math.sin(p) * math.exp(-p * p / 2.0),
                      0.0, 30.0, limit=200)
    assert abs(v - want) <= max(e, 1e-9)


def test_oscillatory_omega_sweep_property():
    rng = np.random.default_rng(314)
    for omega in rng.uniform(0.3, 12.0, 6):
        v, e = integrate_oscillatory(lambda p: np.exp(-p), float(omega))
        want = 1.0 / (1.0 + omega * omega)
        assert abs(v - want) <= max(e, 1e-9), omega


def test_oscillatory_rejects_nonintegrable_power():
    with pytest.raises(NonIntegrable):
        integrate_oscillatory(lambda p: p ** -1.2, 1.0, singularity_power=-1.2)


def test_oscillatory_rejects_growing_envelope():
    with pytest.raises((NonDecaying, NonIntegrable)):
        integrate_oscillatory(lambda p: np.exp(0.5 * p), 1.0)


def test_oscillatory_rejects_bad_kernel():
    with pytest.raises(ValueError):
        integrate_oscillatory(lambda p: np.exp(-p), 1.0, kernel="tan")


def test_oscillatory_growing_envelope_is_non_decaying():
    # finite at every node, so only the explicit guard can catch it
    with pytest.raises(NonDecaying):
        integrate_oscillatory(lambda p: np.exp(0.5 * p), 1.0)


@pytest.mark.parametrize("kernel", ["cos", "sin"])
@pytest.mark.parametrize("power", [0.0, -0.7])
def test_oscillatory_array_omega_matches_scalar_calls(kernel, power):
    # one call over a grid returns each row's scalar result bit for bit
    omegas = np.array([0.02, 0.3, 1.0, 2.5, 7.0, 40.0, 900.0])

    def env(p):
        return p ** power / (1.0 + p * p)

    v, e = integrate_oscillatory(env, omegas, kernel=kernel,
                                 singularity_power=power)
    one = [integrate_oscillatory(env, float(w), kernel=kernel,
                                 singularity_power=power) for w in omegas]
    assert isinstance(one[0][0], float) and v.shape == e.shape == omegas.shape
    assert np.array_equal(v, [x for x, _ in one])
    assert np.array_equal(e, [x for _, x in one])


def test_oscillatory_rows_in_blocks_match_scalar_calls():
    # more rows than one BLOCK holds: the envelope sees blocks of rows,
    # and every row still equals its scalar call bit for bit
    omegas = np.geomspace(0.05, 50.0, 300)
    env = _Counted(lambda p: p ** -0.4 / (1.0 + p * p))
    v, e = integrate_oscillatory(env, omegas, singularity_power=-0.4)
    assert len(env.sizes) > 2 and max(env.sizes) <= BLOCK
    one = [integrate_oscillatory(env, float(w), singularity_power=-0.4)
           for w in omegas]
    assert np.array_equal(v, [x for x, _ in one])
    assert np.array_equal(e, [x for _, x in one])


@pytest.mark.parametrize("kernel", ["cos", "sin"])
def test_oscillatory_envelope_called_once_per_row_block(kernel):
    # the nodes of the reported rule and of its check go to one envelope
    # call per block of rows, and a block stays within BLOCK elements
    nodes = sum(u.size for u, _ in _DE_TABLES[kernel])
    rows = BLOCK // nodes
    env = _Counted(lambda p: np.exp(-p))
    integrate_oscillatory(env, np.geomspace(0.05, 50.0, 300), kernel=kernel)
    assert env.sizes == [min(rows, 300 - k) * nodes for k in range(0, 300, rows)]
    env.sizes.clear()
    integrate_oscillatory(env, 2.0, kernel=kernel)
    assert env.sizes == [nodes]


@pytest.mark.parametrize("kernel, env, exact, power", [
    ("cos", lambda p: np.exp(-p), lambda w: 1.0 / (1.0 + w * w), 0.0),
    ("sin", lambda p: np.exp(-p), lambda w: w / (1.0 + w * w), 0.0),
    ("cos", lambda p: 1.0 / (1.0 + p * p), lambda w: 0.5 * math.pi * math.exp(-w), 0.0),
    ("sin", lambda p: p / (1.0 + p * p), lambda w: 0.5 * math.pi * math.exp(-w), 0.0),
    ("cos", lambda p: np.exp(-p * p),
     lambda w: 0.5 * math.sqrt(math.pi) * math.exp(-w * w / 4), 0.0),
    # Gamma(1+c) Re / Im (1 - i w)^-(1+c), c = -1/2
    ("cos", lambda p: np.exp(-p) / np.sqrt(p),
     lambda w: (math.sqrt(math.pi) * (1 - 1j * w) ** -0.5).real, -0.5),
    ("sin", lambda p: np.exp(-p) / np.sqrt(p),
     lambda w: (math.sqrt(math.pi) * (1 - 1j * w) ** -0.5).imag, -0.5),
])
def test_oscillatory_error_estimate_covers_error(kernel, env, exact, power):
    omegas = np.geomspace(0.01, 100.0, 25)
    v, e = integrate_oscillatory(env, omegas, kernel=kernel,
                                 singularity_power=power)
    want = np.array([exact(w) for w in omegas])
    assert np.all(np.abs(v - want) <= e)
    assert np.all(np.abs(v - want) <= 1e-13)

