"""Fractional-dimensional measure on the line.

The measure d^lam(x) = [pi^{lam/2} |x|^{lam-1} / Gamma(lam/2)] dx
interpolates between a point weight (lam -> 0) and Lebesgue measure
(lam = 1); its total Gaussian mass matches the dimensional-
regularization convention, which is what fixes the normalization.
The delta functional is represented operationally by the Gaussian
family eps^lam exp(-pi eps^2 x^2) at finite eps - never as a symbolic
atom - because the defining Fourier integral does not converge
pointwise for lam < 1.  All delta properties are eps-limits here.

Each side of 0 is integrated in t = log|x|, where the weighted element
|x|^{lam-1} dx becomes e^{lam t} dt: the |x|^{lam-1} endpoint power
turns into an exponential tail that the quadrature layer's trapezoid
rule takes like any other, at every lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gammafn import gammaln_sign
from .quadrature import QuadSpec, integrate_oscillatory, integrate_sinh

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
        # 1/Gamma(x) = x/Gamma(1 + x), which stays finite as x -> 0
        x = self.lam / 2.0
        # Gamma(1 + x) lies in [0.88, 1] here: no pole, no overflow
        norm = math.pi ** x * x / math.exp(gammaln_sign(1.0 + x)[0])
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

    Splits at 0 and takes each side as a range [lo, hi] of |x|, for
    quadrature.integrate_sinh in t: |x| = lo + e^t on a half-line, and
    lo + (hi - lo) r/(1+r) with r = e^t on a finite range.  The weighted
    element |x|^(lam-1) d|x| is formed in logs, as e^(lam t) dt itself
    when lo = 0.  f must fall off at least as |x|^(-2 lam) at infinity,
    and may be handed inf where |x| passes the double range.  The rule's
    grid is fixed in t, so f may not change much faster than it: on a
    half-line, a peak at |x| = 1 of half-width 1% of |x| is taken to
    rel_tol 1e-8 and one of 0.5% raises QuadFailure, the bound coarsening
    as |log|x|| grows.  Returns (value, err_est).
    """
    a, b = domain
    if not a < b:
        if a == b:
            return 0.0, 0.0
        raise ValueError(f"domain must be ordered, got ({a}, {b})")
    # each side of 0 as a range of |x|: [a, b] on the right, [-b, -a] on
    # the left, both clipped at 0
    sides = [_side(dim.lam, lambda x: f(sign * x), max(lo, 0.0), hi, quad)
             for sign, lo, hi in ((1.0, a, b), (-1.0, -b, -a)) if hi > 0.0]
    return (dim.weight_norm * sum(v for v, _ in sides),
            dim.weight_norm * sum(e for _, e in sides))


def _side(lam, f, lo, hi, quad):
    """(int_lo^hi x^(lam-1) f(x) dx, err_est) for 0 <= lo < hi <= inf."""
    def g(t):
        if math.isinf(hi):
            u, dlog = t, 0.0
        else:
            dlog = -np.logaddexp(0.0, t)        # log(1/(1+r))
            u = math.log(hi - lo) + t + dlog    # log(x - lo)
        log_x = np.logaddexp(math.log(lo), u) if lo > 0.0 else u
        with np.errstate(over="ignore"):
            x = np.exp(log_x)
        # x^(lam-1) dx/dt, with dx/dt = (x - lo) e^dlog
        return np.exp(lam * log_x + (u - log_x) + dlog) * f(x)
    return integrate_sinh(g, lam, quad)


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
