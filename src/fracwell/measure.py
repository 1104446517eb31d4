"""Fractional-dimensional measure on the line.

The measure d^lam(x) = [pi^{lam/2} |x|^{lam-1} / Gamma(lam/2)] dx
interpolates between a point weight (lam -> 0) and Lebesgue measure
(lam = 1); its total Gaussian mass matches the dimensional-
regularization convention, which is what fixes the normalization.
The delta functional is represented operationally by the Gaussian
family eps^lam exp(-pi eps^2 x^2) at finite eps - never as a symbolic
atom - because the defining Fourier integral does not converge
pointwise for lam < 1.  All delta properties are eps-limits here.

The |x|^{lam-1} endpoint singularity is absorbed exactly by the
substitution u = |x|^lam before quadrature (w dx = (weight_norm/lam) du),
so the panels only ever see bounded integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammafn import gamma_real
from .quadrature import QuadSpec, integrate_adaptive, integrate_oscillatory

__all__ = [
    "MeasureDim",
    "DeltaFamily",
    "integrate",
    "delta_value",
    "sift",
    "fourier_forward",
    "fourier_inverse",
]


@dataclass(frozen=True)
class MeasureDim:
    """Dimension parameter lam in (0, 1] with its precomputed weight norm
    pi^{lam/2}/Gamma(lam/2)."""

    lam: float
    weight_norm: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"measure order must lie in (0, 1], got {self.lam}")
        norm = math.pi ** (self.lam / 2.0) / gamma_real(self.lam / 2.0)
        object.__setattr__(self, "weight_norm", norm)


@dataclass(frozen=True)
class DeltaFamily:
    """Gaussian delta family delta_eps(x) = eps^lam exp(-pi eps^2 x^2);
    unit mass under d^lam(x) holds exactly for every eps."""

    dim: MeasureDim
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def integrate(dim, f, domain=(-np.inf, np.inf), quad=QuadSpec()):
    """Integral of f against d^lam(x) over the interval domain.

    Splits at 0 and substitutes u = |x|^lam on each side, which turns
    the weighted element into the constant (weight_norm/lam) du; the
    integrand then enters adaptive quadrature with no endpoint power.
    Returns (value, err_est).
    """
    a, b = domain
    if not a < b:
        if a == b:
            return 0.0, 0.0
        raise ValueError(f"domain must be ordered, got ({a}, {b})")
    lam = dim.lam
    pref = dim.weight_norm / lam
    inv = 1.0 / lam
    total = 0.0
    err = 0.0
    # each side of 0 as a range of |x|: [a, b] on the right, [-b, -a] on
    # the left, both clipped at 0
    for sign, lo, hi in ((1.0, a, b), (-1.0, -b, -a)):
        if hi <= 0.0:
            continue

        def side(u):
            return f(sign * np.power(u, inv))
        v, e = integrate_adaptive(side, max(lo, 0.0) ** lam, hi ** lam, quad)
        total += pref * v
        err += pref * e
    return total, err


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

    value, qerr = integrate(dim, integrand, (-np.inf, np.inf), quad)
    h = 0.5 / epsilon
    fpp = (_point(f, h) - 2.0 * _point(f, 0.0) + _point(f, -h)) / (h * h)
    bias = abs(fpp) * dim.lam / (4.0 * math.pi * epsilon * epsilon)
    return value, bias + qerr


def _half_line_oscillatory(dim, f, k):
    """(re, im, err) of the full-line weighted integral of f(x) e^{ikx},
    k != 0, folded onto [0, inf)."""
    lam = dim.lam
    N = dim.weight_norm
    w = abs(k)

    def even_env(p):
        return p ** (lam - 1.0) * (f(p) + f(-p))

    def odd_env(p):
        return p ** (lam - 1.0) * (f(p) - f(-p))

    re, re_err = integrate_oscillatory(even_env, w, singularity_power=lam - 1.0)
    im, im_err = integrate_oscillatory(odd_env, w, singularity_power=lam - 1.0,
                                       kernel="sin")
    sign = 1.0 if k > 0 else -1.0
    return N * re, sign * N * im, N * (re_err + im_err)


def fourier_forward(dim, f, k, quad=QuadSpec()):
    """Weighted transform integral of f(x) e^{ikx} d^lam(x) over the line.

    The cosine and sine halves go through the Ooura-Mori
    double-exponential rule, whose nodes sit on the kernel's zeros, so
    no tail is split off or summed.  Returns (complex value, err_est).
    """
    if k == 0.0:
        v, e = integrate(dim, f, (-np.inf, np.inf), quad)
        return complex(v, 0.0), e
    re, im, err = _half_line_oscillatory(dim, f, k)
    return complex(re, im), err


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
