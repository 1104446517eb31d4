"""Gamma-function kernel for the H-function engine.

Lanczos rational approximation (g = 7, nine coefficients) with the
reflection formula for arguments left of Re(z) = 1/2.  Everything works
on scalars and numpy arrays.  The log-space variants carry an explicit
sign factor so callers can assemble products of many gammas without
overflow; a reciprocal gamma at a pole is represented by (logabs=+inf,
sign=0), which multiplies through to an exact zero.

The coefficient table is module-level state on purpose: the validation
suite corrupts it to prove the downstream Mellin checks actually depend
on it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GammaPole",
    "LANCZOS_G",
    "LANCZOS_COEFFS",
    "LANCZOS_REL_ACC",
    "loggamma",
    "gammaln_sign",
    "gamma_real",
]


class GammaPole(Exception):
    """A gamma argument landed on a non-positive integer."""


LANCZOS_G = 7.0

# Godfrey's g=7, n=9 coefficient set, LANCZOS_REL_ACC relative over the
# right half plane.
LANCZOS_COEFFS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
LANCZOS_REL_ACC = 1e-13

_HALF_LOG_TWO_PI = 0.91893853320467274178  # log(2*pi)/2
_POLE_TOL = 5e-13


def _core_loggamma(z):
    """Lanczos sum, valid for Re(z) >= 0.5."""
    coeffs = LANCZOS_COEFFS
    w = z - 1.0
    acc = np.full_like(np.asarray(z, dtype=complex), coeffs[0])
    for i in range(1, len(coeffs)):
        acc = acc + coeffs[i] / (w + i)
    t = w + LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)


def _log_sin_pi(z):
    """log(sin(pi z)), stable for large |Im z|.

    Uses sin(pi z) = (e^{pi |y|}/2) [sin(pi x)(1 + q) +/- i cos(pi x)(1 - q)]
    with q = e^{-2 pi |y|}, which never overflows.  Branch choice is
    irrelevant for callers that only exponentiate sums of logs.
    """
    z = np.asarray(z, dtype=complex)
    x = z.real
    y = z.imag
    ay = np.abs(y)
    q = np.exp(-2.0 * np.pi * ay)
    bracket = np.sin(np.pi * x) * (1.0 + q) + 1j * np.sign(y) * np.cos(np.pi * x) * (1.0 - q)
    return np.pi * ay - np.log(2.0) + np.log(bracket)


def loggamma(z):
    """log Gamma(z) for complex z, elementwise on arrays.

    Values agree with Gamma(z) after exponentiation; no attempt is made
    to keep a continuous branch, which the engine never needs.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = _core_loggamma(z[right])
    if np.any(~right):
        zl = z[~right]
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        out[~right] = np.log(np.pi) - _log_sin_pi(zl) - _core_loggamma(1.0 - zl)
    return out[0] if scalar else out


def _near_nonpositive_int(x):
    r = np.rint(x)
    return (r <= 0.0) & (np.abs(x - r) < _POLE_TOL * np.maximum(1.0, np.abs(x)))


def gammaln_sign(x):
    """(log|Gamma(x)|, sign) for real x, elementwise.

    At a pole the pair is (+inf, 0.0), so a reciprocal factor collapses
    to zero.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    logabs = np.empty_like(x)
    sign = np.ones_like(x)

    pole = _near_nonpositive_int(x)
    if np.any(pole):
        logabs[pole] = np.inf
        sign[pole] = 0.0

    right = (x >= 0.5) & ~pole
    if np.any(right):
        logabs[right] = _core_loggamma(x[right].astype(complex)).real

    left = ~right & ~pole
    if np.any(left):
        xl = x[left]
        s = np.sin(np.pi * xl)
        # |Gamma(x)| = pi / (|sin(pi x)| Gamma(1-x)) for x < 0.5
        logabs[left] = np.log(np.pi) - np.log(np.abs(s)) \
            - _core_loggamma((1.0 - xl).astype(complex)).real
        sign[left] = np.sign(s)

    if scalar:
        return logabs[0], sign[0]
    return logabs, sign


def gamma_real(x):
    """Gamma(x) for real x, with sign, via the log form; raises GammaPole."""
    logabs, sign = gammaln_sign(x)
    if (sign == 0.0).any():
        raise GammaPole(f"gamma pole in argument {x!r}")
    return sign * np.exp(logabs)
