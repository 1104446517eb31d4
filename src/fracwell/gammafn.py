"""Gamma-function kernel for the H-function engine.

Lanczos rational approximation (g = 7, nine coefficients) with the
reflection formula for arguments left of Re(z) = 1/2.  Everything works
on scalars and numpy arrays.  One kernel, _core_loggamma, serves real
and complex input: its eight partial fractions are one broadcast
division and one sum in the argument's own dtype (along a leading axis
for a complex contour row), so a real argument stays real and
gammaln_sign never touches complex arithmetic.  A complex log is taken
as log|v| + i arg v in real arithmetic (libm's complex log is slow at
|v| near 1, where the Lanczos sum and the reflection bracket sit at
large |Im z|), and the parity of a reflected pole index is read off its
integer.  The reflection is an np.where over the whole array, and the
pole test runs only when some argument lies left of 1/2.  The log-space
variants carry an explicit sign factor so callers can assemble products
of many gammas without overflow; a reciprocal gamma at a pole is
represented by (logabs=+inf, sign=0), which multiplies through to an
exact zero.

The coefficient table is module-level state on purpose, and the kernel
reads it at each call: the validation suite corrupts it to prove the
downstream Mellin checks actually depend on it.
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
# the offsets 1..8 of the partial fractions, one per coefficient after the first
_LANCZOS_K = np.arange(1.0, len(LANCZOS_COEFFS))


def _odd(n):
    """1 at odd integers n, 0 at even ones, by the integer's low bit; nan
    and |n| >= 2^63 read 0, where every double is even or the sine is nan."""
    with np.errstate(invalid="ignore"):
        return np.asarray(n).astype(np.int64) & 1


def _clog(v):
    """log v for complex v as log|v| + i arg v in real arithmetic: libm's
    complex log takes a slow extra-precise path at |v| near 1, where the
    Lanczos sum sits at large |Im z|."""
    return np.log(np.hypot(v.real, v.imag)) + 1j * np.arctan2(v.imag, v.real)


def _core_loggamma(z):
    """Lanczos sum, valid for Re(z) >= 0.5, in the dtype of z (a real
    argument stays real).  A real z takes the eight partial fractions as
    one broadcast division over a trailing axis and one sum, the cheapest
    form for the few arguments of an energy.  A complex z, a contour row
    of hundreds, lays them along a leading axis and adds rows, in the
    order numpy's trailing sum of eight complex values takes,
    ((1 + 5) + (2 + 6)) + ((3 + 7) + (4 + 8)), at every shape of z; its
    logs are taken by _clog."""
    w = z - 1.0
    t = w + LANCZOS_G + 0.5
    if w.dtype.kind != "c":
        acc = LANCZOS_COEFFS[0] + (LANCZOS_COEFFS[1:] / (w[..., None] + _LANCZOS_K)).sum(axis=-1)
        return _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)
    x = LANCZOS_COEFFS[1:, None] / (w.reshape(-1) + _LANCZOS_K[:, None])
    x = x[:4] + x[4:]
    x = x[0::2] + x[1::2]
    acc = (LANCZOS_COEFFS[0] + (x[0] + x[1])).reshape(w.shape)
    return _HALF_LOG_TWO_PI + (w + 0.5) * _clog(t) - t + _clog(acc)


def _log_sin_pi(z):
    """log(sin(pi z)), stable for large |Im z| and next to a pole.

    Uses sin(pi z) = (-1)^n (e^{pi |y|}/2) b with the bracket
    b = sin(pi r)(1 + q) +/- i cos(pi r)(1 - q), q = e^{-2 pi |y|}, which
    never overflows, n = rint(x) and the exact r = x - n, so the sine
    keeps its relative accuracy where sin(pi * x) would lose it to the
    rounding of pi * x; 1 - q is taken as -expm1(-2 pi |y|), which does
    not cancel at small |y|.  log b is taken as log|b| + i arg b in real
    arithmetic, |b| the hypot of b's two parts, neither of which cancels
    next to a pole, and (-1)^n adds pi to arg b at odd n, the parity read
    off the integer n.  Branch choice is irrelevant for callers that only
    exponentiate sums of logs.
    """
    z = np.asarray(z, dtype=complex)
    x = z.real
    y = z.imag
    ay = np.abs(y)
    n = np.rint(x)
    r = x - n
    qm1 = np.expm1(-2.0 * np.pi * ay)   # q - 1
    re = np.sin(np.pi * r) * (2.0 + qm1)
    im = -np.sign(y) * np.cos(np.pi * r) * qm1
    return (np.pi * ay - np.log(2.0) + np.log(np.hypot(re, im))
            + 1j * (np.arctan2(im, re) + np.pi * _odd(n)))


def loggamma(z):
    """log Gamma(z) for complex z, elementwise on arrays.

    Values agree with Gamma(z) after exponentiation; no attempt is made
    to keep a continuous branch, which the engine never needs.
    """
    z = np.asarray(z, dtype=complex)
    left = ~(z.real >= 0.5)   # nan takes the reflection, as it always has
    if not left.any():
        return _core_loggamma(z)[()]
    # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
    core = _core_loggamma(np.where(left, 1.0 - z, z))
    return np.where(left, np.log(np.pi) - _log_sin_pi(z) - core, core)[()]


def gammaln_sign(x):
    """(log|Gamma(x)|, sign) for real x, elementwise, in real arithmetic.

    At a pole the pair is (+inf, 0.0), so a reciprocal factor collapses
    to zero.  A 0-d argument gives two floats, an array two arrays of its
    shape.
    """
    x = np.asarray(x, dtype=float)
    right = x >= 0.5   # nan takes the reflection, as it always has
    if right.all():
        return _core_loggamma(x)[()], np.ones_like(x)[()]
    left = ~right
    # sin(pi x) = (-1)^n sin(pi r) with n = rint(x): r = x - n is exact, so
    # the sine keeps its relative accuracy next to a pole, where
    # sin(pi * x) loses it to the rounding of pi * x
    n = np.rint(x)
    r = x - n
    pole = (n <= 0.0) & (np.abs(r) < _POLE_TOL * np.maximum(1.0, np.abs(x)))
    core = _core_loggamma(np.where(left, 1.0 - x, x))
    # the quotient is inf only at a pole (at x = 0 also a zero divide),
    # where the pole mask below puts (inf, 0) in any case
    with np.errstate(divide="ignore", over="ignore"):
        # |Gamma(x)| = pi / (|sin(pi x)| Gamma(1-x)) for x < 0.5
        logabs = np.where(left, np.log(np.pi / np.abs(np.sin(np.pi * r))) - core, core)
    logabs = np.where(pole, np.inf, logabs)
    sign = np.where(pole, 0.0, np.where(left, np.sign(r) * (1.0 - 2.0 * _odd(n)), 1.0))
    return logabs[()], sign[()]


def gamma_real(x):
    """Gamma(x) for real x, with sign, via the log form; raises GammaPole."""
    logabs, sign = gammaln_sign(x)
    if (sign == 0.0).any():
        raise GammaPole(f"gamma pole in argument {x!r}")
    return sign * np.exp(logabs)
