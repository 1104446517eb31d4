"""Fractional-dimensional measure on the line.

The measure d^lam(x) = [pi^{lam/2} |x|^{lam-1} / Gamma(lam/2)] dx
interpolates between a point weight (lam -> 0) and Lebesgue measure
(lam = 1); its total Gaussian mass matches the dimensional-
regularization convention, which is what fixes the normalization.
The delta functional is represented operationally by the Gaussian
family eps^lam exp(-pi eps^2 x^2) at finite eps - never as a symbolic
atom - because the defining Fourier integral does not converge
pointwise for lam < 1.  All delta properties are eps-limits here.

measure_norm is the one formula for the measure's norm: the weight norm
of MeasureDim is half of it, and fracwell.deltawell reads it whole.
integrate takes the integral over the line, each side of 0 in
t = log|x|, where the weighted element |x|^{lam-1} dx becomes
e^{lam t} dt: the |x|^{lam-1} endpoint power turns into an exponential
tail that the quadrature layer's trapezoid rule takes like any other, at
every lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammafn import gammaln_sign
from .quadrature import QuadSpec, integrate_oscillatory, integrate_sinh

__all__ = [
    "measure_norm",
    "MeasureDim",
    "DeltaFamily",
    "integrate",
    "delta_value",
    "sift",
    "fourier_forward",
    "fourier_inverse",
]


def measure_norm(lam):
    """Surface factor 2 pi^(lam/2) / Gamma(lam/2) of the measure, formed as
    lam pi^(lam/2) / Gamma(1 + lam/2): 1/Gamma(x) = x/Gamma(1 + x) stays
    finite as x -> 0, and the factor is lam itself, not 0, at the smallest
    subnormal lam, where lam/2 rounds to 0."""
    # Gamma(1 + lam/2) lies in [0.88, 1] for lam in (0, 1]: no pole, no overflow
    return math.pi ** (lam / 2.0) * lam / math.exp(gammaln_sign(1.0 + lam / 2.0)[0])


@dataclass(frozen=True)
class MeasureDim:
    """Dimension parameter lam in (0, 1] with its precomputed weight norm
    pi^{lam/2}/Gamma(lam/2), half of measure_norm."""

    lam: float
    weight_norm: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"measure order must lie in (0, 1], got {self.lam}")
        object.__setattr__(self, "weight_norm", 0.5 * measure_norm(self.lam))


@dataclass(frozen=True)
class DeltaFamily:
    """Gaussian delta family delta_eps(x) = eps^lam exp(-pi eps^2 x^2);
    unit mass under d^lam(x) holds exactly for every eps."""

    dim: MeasureDim
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def integrate(dim, f, quad=QuadSpec()):
    """Integral of f against d^lam(x) over the line.

    Each side of 0 is one quadrature.integrate_sinh call in t = log|x|,
    on the weighted element e^(lam t) f(+-e^t).  f must fall off at least
    as |x|^(-2 lam) at infinity, and may be handed inf where |x| passes
    the double range.  The rule's grid is fixed in t, so f may not change
    much faster than it: a peak at |x| = 1 of half-width 1% of |x| is taken
    to rel_tol 1e-8 and one of 0.5% raises QuadFailure, the bound
    coarsening as |log|x|| grows.  Returns (value, err_est).
    """
    lam = dim.lam

    def side(sign):
        def g(t):
            with np.errstate(over="ignore"):
                x = np.exp(t)
            return np.exp(lam * t) * f(sign * x)
        return integrate_sinh(g, lam, quad)

    sides = (side(1.0), side(-1.0))
    return (dim.weight_norm * sum(v for v, _ in sides),
            dim.weight_norm * sum(e for _, e in sides))


def delta_value(family, x):
    """Pointwise value eps^lam exp(-pi eps^2 x^2) of the delta family."""
    eps = family.epsilon
    x = np.asarray(x, dtype=float)
    out = eps ** family.dim.lam * np.exp(-math.pi * eps * eps * x * x)
    return float(out) if out.ndim == 0 else out


def _point(f, t):
    y = np.asarray(f(np.asarray([t], dtype=float)), dtype=float)
    return float(y.reshape(-1)[0])


def sift(dim, f, epsilon, quad=QuadSpec()):
    """Regularized sifting integral of f against the delta family.

    Returns (value, err_est) where value = integral of f * delta_eps
    under d^lam(x) -> f(0) as eps grows.  The error estimate combines
    the quadrature error with the leading finite-eps bias
    f''(0) * lam / (4 pi eps^2), the second moment of the family
    (curvature probed by finite differences at the eps scale).
    """
    family = DeltaFamily(dim=dim, epsilon=epsilon)

    def integrand(x):
        return f(x) * delta_value(family, x)

    value, qerr = integrate(dim, integrand, quad)
    h = 0.5 / epsilon
    fpp = (_point(f, h) - 2.0 * _point(f, 0.0) + _point(f, -h)) / (h * h)
    bias = abs(fpp) * dim.lam / (4.0 * math.pi * epsilon * epsilon)
    return value, bias + qerr


def fourier_forward(dim, f, k, quad=QuadSpec()):
    """Weighted transform integral of f(x) e^{ikx} d^lam(x) over the line.

    At k != 0 the line is folded onto [0, inf): the cosine half takes the
    even part of f, the sine half the odd part, each through the
    Ooura-Mori double-exponential rule, whose nodes sit on the kernel's
    zeros, so no tail is split off or summed.  Each half's envelope
    behaves as p^(lam-1) at 0, and the rule takes that power out with lam
    itself, so no digit of a small lam is lost to lam - 1.  Returns
    (complex value, err_est).
    """
    if k == 0.0:
        v, e = integrate(dim, f, quad)
        return complex(v, 0.0), e
    lam = dim.lam
    N = dim.weight_norm
    w = abs(k)

    def even_env(p):
        return p ** (lam - 1.0) * (f(p) + f(-p))

    def odd_env(p):
        return p ** (lam - 1.0) * (f(p) - f(-p))

    re, re_err = integrate_oscillatory(even_env, w, endpoint_exponent=lam)
    im, im_err = integrate_oscillatory(odd_env, w, endpoint_exponent=lam, kernel="sin")
    sign = 1.0 if k > 0 else -1.0
    return complex(N * re, sign * N * im), N * (re_err + im_err)


def fourier_inverse(dim, g, x, quad=QuadSpec()):
    """Inverse-side transform (1/2 pi)^lam integral of g(k) e^{-ikx} d^lam(k).

    Whether this inverts fourier_forward exactly for lam < 1 is an open
    analytical question (the weighted kernel is not translation
    invariant); measure the round trip rather than assuming it.
    Returns (complex value, err_est).
    """
    scale = (2.0 * math.pi) ** (-dim.lam)
    val, err = fourier_forward(dim, g, -x, quad)
    return scale * val, scale * err
