"""Half-line and oscillatory numerics.

This layer is the package's independent oracle: closed forms elsewhere
are accepted only when they agree with these routines, so nothing here
may import from the H-function or spectral modules.

The energy oracle's and the measure's half-line integrals are taken
in t = log x: int_0^inf x^(lam-1) f(x) dx is int e^(lam t) f(e^t) dt,
whose integrand falls off exponentially at both ends and has no
endpoint singularity.  integrate_sinh takes it by the trapezoid rule
in s with t = (pi/2) sinh s, halving the step from 1/8 until two
successive sums agree; the caller writes its integrand in t (in logs,
so that nothing over- or underflows) and names its slower exponential
decay rate, which sets the window.  Fourier-type integrals take the
Ooura-Mori double-exponential rule, whose nodes close in on the
kernel's zeros, so one node table serves every frequency and no tail is
summed.  All decisions are data-independent, so repeated calls produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalFailure",
    "QuadSpec",
    "QuadFailure",
    "NonIntegrable",
    "NonDecaying",
    "integrate_sinh",
    "integrate_oscillatory",
]


class NumericalFailure(Exception):
    """Base of every typed convergence failure in the package: a
    computation on valid input that could not reach an answer it can
    vouch for (the CLI's exit code 3)."""


class QuadFailure(NumericalFailure):
    """Tolerance not reached at the rule's finest step."""


class NonIntegrable(NumericalFailure):
    """The integrand produced a non-finite value at a quadrature node."""


class NonDecaying(NumericalFailure):
    """An oscillatory envelope still grows at the rule's outermost node."""


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract shared by every quadrature call.

    abs_tol / rel_tol bound the reported error estimate; the effective
    target is max(abs_tol, rel_tol * |value|).  The oscillatory rule is
    fixed: it reports its error estimate rather than refining toward
    these.  Both must be positive and finite: an infinite one stops every
    refinement at its first level.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


# exp-sinh trapezoid rule (Mori & Sugihara, J. Comput. Appl. Math. 127,
# 287-296, 2001): first and finest step in s; the window ends where the
# slower tail has fallen by e^-_SINH_TAIL
_SINH_STEPS = (0.125, 0.0009765625)
_SINH_TAIL = 40.0


def integrate_sinh(g, rate, spec=QuadSpec()):
    """Integrate g(t) over the real line by the trapezoid rule in s, with
    t = (pi/2) sinh s.

    g takes a 1-d float array of t and returns matching values.  It must
    fall off at least as e^(-rate |t|) at both ends; the rule's window
    |t| <= _SINH_TAIL / rate then leaves out under e^-40 of either tail.
    In s the integrand decays double-exponentially, and the trapezoid
    rule converges geometrically in 1/h (Trefethen & Weideman, SIAM
    Review 56, 2014).  The first integrand call takes the step-1/8 grid,
    whose even nodes give the step-1/4 sum; each later call takes the
    midpoints that halve the step.  err_est = |T_h - T_2h|, and the step
    halves until it is at most max(abs_tol, rel_tol |T_h|): QuadFailure
    if that does not hold at the finest step 1/1024, NonIntegrable at a
    non-finite node.  The step is the same everywhere, and the sum's
    error on a peak of half-width w in s is about e^(-2 pi w / h): at
    rel_tol 1e-8 a peak narrower than about 5e-3 in s raises
    QuadFailure.  Returns (value, err_est).
    """
    if not rate > 0.0:
        raise ValueError(f"decay rate must be positive, got {rate}")
    h, finest = _SINH_STEPS
    window = math.asinh(_SINH_TAIL / (0.5 * math.pi * rate))
    if window > 700.0:   # sinh s overflows past 710
        raise QuadFailure(f"decay rate {rate} too slow for the double range")
    n = 2 * math.ceil(0.5 * window / h)   # nodes k h, |k| <= n, n even
    y = _sinh_nodes(g, h * np.arange(-n, n + 1))
    value = h * y.sum()
    err = abs(value - 2.0 * h * y[::2].sum())
    while err > max(spec.abs_tol, spec.rel_tol * abs(value)):
        if h <= finest:
            raise QuadFailure(f"error {err:.3e} above tolerance at the finest "
                              f"step {h} (value ~ {value:.6e})")
        h, n = 0.5 * h, 2 * n
        fine = 0.5 * value + h * _sinh_nodes(g, h * np.arange(1 - n, n, 2)).sum()
        value, err = fine, abs(fine - value)
    return value, err


def _sinh_nodes(g, s):
    """g(t) dt/ds at the nodes s of integrate_sinh."""
    t = 0.5 * math.pi * np.sinh(s)
    y = np.asarray(g(t), dtype=float)
    if y.shape != t.shape:
        raise ValueError("integrand must return an array matching its input")
    y = y * (0.5 * math.pi * np.cosh(s))
    if not np.isfinite(y).all():
        bad = float(t[np.argmin(np.isfinite(y))])
        raise NonIntegrable(f"non-finite integrand value at t = {bad!r}")
    return y


# element budget of a (row x node) temporary, shared by the Ooura-Mori rule
# here and hfox's contour: rows or nodes go in blocks of at most this many
# elements (256 kB of floats), or one row or column when that is larger
BLOCK = 2 ** 15
# Ooura-Mori rule (J. Comput. Appl. Math. 38, 353-360, 1991; 112, 229-241,
# 1999): step of the reported rule (checked against twice it) and t range
_DE_STEP = 0.05
_DE_T = (-7.0, 6.0)


def _de_table(h, kernel):
    """Nodes u = M phi(t_n), weights w = pi kernel(u) phi'(t_n), M h = pi:
    int_0^inf kernel(omega p) f(p) dp ~ sum f(u / omega) w / omega, with
    phi(t) = t / (1 - exp(-2t - a(1 - e^-t) - b(e^t - 1))), b = 1/4,
    a = b / sqrt(1 + M log(1 + M) / (4 pi)).  t_n = (n - 1/2) h (cos) or
    n h (sin) puts M t_n on a kernel zero, which M phi(t_n) approaches
    double-exponentially.  Nodes with phi = 0 or w zero or inf are dropped.
    """
    m = math.pi / h
    b = 0.25
    a = b / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    g1, g2 = 2.0 + a + b, b - a          # g'(0), g''(0): limits at t = 0
    n = np.arange(math.floor(_DE_T[0] / h), math.ceil(_DE_T[1] / h) + 1)
    t = (n - 0.5) * h if kernel == "cos" else n * h
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = np.exp(-(2.0 * t - a * np.expm1(-t) + b * np.expm1(t)))
        d = 1.0 - e
        phi = np.where(t == 0.0, 1.0 / g1, t / d)
        dphi = np.where(t == 0.0, (g1 * g1 - g2) / (2.0 * g1 * g1), 1.0 / d
                        - t * e * (2.0 + a * np.exp(-t) + b * np.exp(t)) / (d * d))
        # for t > 0, kernel(M phi) = (-1)^n sin(M (phi - t)), phi - t = t e / d:
        # no cancellation near the kernel's zeros
        near_zero = np.where(n % 2 == 0, 1.0, -1.0) * np.sin(m * t * e / d)
    kfun = np.cos if kernel == "cos" else np.sin
    w = math.pi * np.where(t > 0.0, near_zero, kfun(m * phi)) * dphi
    keep = (phi > 0.0) & np.isfinite(w) & (w != 0.0)
    return m * phi[keep], w[keep]


_DE_TABLES = {k: (_de_table(_DE_STEP, k), _de_table(2.0 * _DE_STEP, k))
              for k in ("cos", "sin")}


def integrate_oscillatory(envelope, omega, *, endpoint_exponent=1.0,
                          kernel="cos"):
    """Integrate kernel(omega*p) * envelope(p) over p in [0, inf), kernel
    being cos (default) or sin, by the Ooura-Mori rule.

    omega is a positive float or 1-d array.  envelope is called once per
    block of omega rows, with p of shape (rows, n_nodes) holding the nodes
    of the reported rule and of its check within BLOCK elements, and an
    array omega returns arrays equal to the scalar calls bit for bit.  The
    envelope must be finite at every node (NonIntegrable) and must not
    grow at the reported rule's outermost node, about 377/omega
    (NonDecaying).  An envelope that behaves as p^(a-1) at 0, a =
    endpoint_exponent > 0, has that power taken out as g0 p^(a-1)
    e^(-omega p), g0 read at the smallest node, and its transform
    g0 Gamma(a) (sqrt(2) omega)^-a cos or sin(pi a/4) added back.  The
    closed form reads a itself, so a caller passes it exactly: a = lam
    formed as (lam - 1) + 1 keeps only about 1e-16/lam of lam's digits.
    The error estimate is the gap to the rule with twice the step, plus
    roundoff and the mass below the smallest node; the rule is fixed, so
    no QuadSpec enters.  Returns (value, err).
    """
    om = np.asarray(omega, dtype=float)
    if om.ndim > 1 or not np.all(om > 0):
        raise ValueError("omega must be a positive float or 1-d array; "
                         "at omega = 0 the integral is not oscillatory")
    if kernel not in _DE_TABLES:
        raise ValueError(f"kernel must be 'cos' or 'sin', got {kernel!r}")
    a = float(endpoint_exponent)
    if not a > 0.0:
        raise NonIntegrable(f"envelope power p^({a} - 1) at 0 is not integrable")
    rows = np.atleast_1d(om)
    step = max(1, BLOCK // sum(u.size for u, _ in _DE_TABLES[kernel]))
    parts = [_de_rows(envelope, rows[k:k + step, None], a, kernel)
             for k in range(0, rows.size, step)]
    value = np.concatenate([v for v, _ in parts])
    err = np.concatenate([e for _, e in parts])
    if om.ndim == 0:
        return float(value[0]), float(err[0])
    return value, err


def _de_rows(envelope, rows, a, kernel):
    """integrate_oscillatory on a (rows x 1) block of omega: (value, err),
    from one envelope call on the nodes of both rules, the reported rule's
    first and its twice-the-step check's after them."""
    (u, w), (u2, w2) = _DE_TABLES[kernel]
    # a subnormal row overflows nodes to inf, which the envelope's own
    # check reports
    with np.errstate(over="ignore"):
        p = np.concatenate([u, u2]) / rows
    f = np.asarray(envelope(p), dtype=float)
    if f.shape != p.shape:
        raise ValueError("envelope must return an array matching its input")
    if not np.all(np.isfinite(f)):
        raise NonIntegrable("non-finite envelope value at an oscillatory node")
    n = u.size
    if np.any(np.abs(f[:, n - 1]) > np.abs(f[:, n - 2])):
        raise NonDecaying("envelope still growing at the outermost oscillatory node")
    closed = 0.0
    if a != 1.0:
        c = a - 1.0
        g0 = f[:, :1] * p[:, :1] ** -c
        f = f - g0 * p ** c * np.exp(-rows * p)
        kfun = math.cos if kernel == "cos" else math.sin
        closed = (g0[:, 0] * (math.gamma(a) * kfun(0.25 * math.pi * a))
                  * (math.sqrt(2.0) * rows[:, 0]) ** -a)
    f, f2, p = f[:, :n], f[:, n:], p[:, :n]
    fw = f * w
    fine = fw.sum(axis=-1) / rows[:, 0]
    coarse = (f2 * w2).sum(axis=-1) / rows[:, 0]
    # roundoff: an ulp in each of the n terms, added as a random walk
    err = (np.abs(fine - coarse) + math.sqrt(len(w)) * np.finfo(float).eps
           * (np.abs(fw).sum(axis=-1) / rows[:, 0] + np.abs(closed))
           + np.abs(f[:, 0]) * p[:, 0] / a)
    return fine + closed, err

