"""Adaptive and oscillatory quadrature plus ITP root finding.

This layer is the package's independent oracle: closed forms elsewhere
are accepted only when they agree with these routines, so nothing here
may import from the H-function or spectral modules.

The panel rule is a nested Fejer-2 pair (31-node high rule, 15-node low
rule on the shared odd-index subset).  Fejer-2 is an open rule, so
integrable endpoint singularities never get evaluated directly; the
adaptive bisection resolves them by geometric refinement instead.
Semi-infinite domains are mapped by t = x/(1+x), chosen over an
exponential map because the spectral integrands have heavy power-law
tails.  All decisions are data-independent and sequential, so repeated
calls produce bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "NumericalFailure",
    "QuadSpec",
    "QuadFailure",
    "NonIntegrable",
    "NonDecaying",
    "NoBracket",
    "integrate_adaptive",
    "integrate_oscillatory",
    "root_itp",
]


class NumericalFailure(Exception):
    """Base of every typed convergence failure in the package: a
    computation on valid input that could not reach an answer it can
    vouch for (the CLI's exit code 3)."""


class QuadFailure(NumericalFailure):
    """Tolerance not reached within the subdivision budget."""


class NonIntegrable(NumericalFailure):
    """The integrand produced a non-finite value at a quadrature node."""


class NonDecaying(NumericalFailure):
    """Oscillatory segment magnitudes stopped decreasing."""


class NoBracket(NumericalFailure):
    """Root bracket endpoints do not straddle a sign change."""


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract shared by every quadrature call.

    abs_tol / rel_tol bound the reported error estimate; the effective
    target is max(abs_tol, rel_tol * |value|).  max_subdivisions caps
    panel splits in one adaptive call.  The threshold below which
    semi-infinite tails are considered dead is the constant TAIL_CUTOFF.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be at least 16")


def _fejer2_nodes_weights(n):
    """Open Fejer-2 rule on [-1, 1]: nodes cos(j pi/n), j = 1..n-1.

    Weights come from solving the Chebyshev moment system once; exact
    to machine precision and free of transcription risk.
    """
    j = np.arange(1, n)
    nodes = np.cos(j * np.pi / n)
    k = np.arange(0, n - 1)
    # T_k(cos t) = cos(k t); moments of T_k over [-1,1]
    vander = np.cos(np.outer(k, j) * np.pi / n)
    moments = np.where(k % 2 == 0, 2.0 / (1.0 - k.astype(float) ** 2 + (k == 1)), 0.0)
    moments[k == 1] = 0.0
    weights = np.linalg.solve(vander, moments)
    return nodes, weights


_NODES_HI, _W_HI = _fejer2_nodes_weights(32)   # 31 nodes
_NODES_LO, _W_LO = _fejer2_nodes_weights(16)   # 15 nodes, subset of the 31
# high-rule indices whose nodes coincide with the low rule: j even
_LO_SUBSET = np.arange(1, 32)[np.arange(1, 32) % 2 == 0] - 1


def _panel(f, a, b):
    """One embedded-pair evaluation on [a, b]: (value, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES_HI
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 0:
        y = np.full_like(x, float(y))
    if y.shape != x.shape:
        raise ValueError("integrand must return an array matching its input")
    if not np.all(np.isfinite(y)):
        raise NonIntegrable(f"non-finite integrand value in [{a!r}, {b!r}]")
    hi = half * float(_W_HI @ y)
    lo = half * float(_W_LO @ y[_LO_SUBSET])
    rough = half * float(np.abs(_W_HI) @ np.abs(y))
    err = abs(hi - lo) + 1e-16 * rough
    return hi, err


def _adaptive_core(f, a, b, spec, initial=8):
    """Adaptive bisection on the finite interval [a, b]."""
    edges = np.linspace(a, b, initial + 1)
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        v, e = _panel(f, lo_e, hi_e)
        heapq.heappush(heap, (-e, counter, lo_e, hi_e, v))
        counter += 1
        total += v
        total_err += e

    splits = 0
    min_width = abs(b - a) * 1e-15
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise QuadFailure(
                f"error {total_err:.3e} above tolerance after "
                f"{splits} subdivisions (value ~ {total:.6e})")
        neg_e, _, lo_e, hi_e, v = heapq.heappop(heap)
        if hi_e - lo_e <= min_width:
            # refinement exhausted at roundoff scale; park the panel
            heapq.heappush(heap, (0.0, counter, lo_e, hi_e, v))
            counter += 1
            if all(item[0] == 0.0 for item in heap):
                raise QuadFailure(
                    f"mesh exhausted at roundoff width with error "
                    f"{total_err:.3e} (value ~ {total:.6e}); substitute the "
                    f"endpoint singularity before integrating")
            continue
        mid = 0.5 * (lo_e + hi_e)
        v1, e1 = _panel(f, lo_e, mid)
        v2, e2 = _panel(f, mid, hi_e)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_e)
        heapq.heappush(heap, (-e1, counter, lo_e, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi_e, v2))
        counter += 1
        splits += 1
    return total, total_err


def integrate_adaptive(f, a, b, spec=QuadSpec()):
    """Integrate f over [a, b]; either endpoint may be infinite.

    f must accept a float ndarray and return matching values; integrable
    endpoint singularities are fine (the rule is open), interior poles
    are the caller's problem.  Returns (value, error_estimate).
    """
    if a == b:
        return 0.0, 0.0
    if a > b:
        v, e = integrate_adaptive(f, b, a, spec)
        return -v, e
    a_inf = math.isinf(a)
    b_inf = math.isinf(b)
    if a_inf and b_inf:
        v1, e1 = integrate_adaptive(f, a, 0.0, spec)
        v2, e2 = integrate_adaptive(f, 0.0, b, spec)
        return v1 + v2, e1 + e2
    if b_inf:
        # x = a + t/(1-t), t in [0, 1); clamp keeps u away from underflow
        def g(t):
            u = np.maximum(1.0 - t, 1e-16)
            return f(a + t / u) / (u * u)
        return _adaptive_core(g, 0.0, 1.0, spec)
    if a_inf:
        def g(t):
            u = np.maximum(1.0 - t, 1e-16)
            return f(b - t / u) / (u * u)
        return _adaptive_core(g, 0.0, 1.0, spec)
    return _adaptive_core(f, a, b, spec, initial=4)


# envelope size, relative to the sum, below which a semi-infinite tail is
# dead: the oscillatory tail's plain-sum exit and the contour's cut in hfox
TAIL_CUTOFF = 1e-14
_SEG_CHUNK = 64
_MAX_SEGMENTS = 4096
_EULER_WINDOW = 24
# _EULER_WEIGHTS[n][k] = C(n-1, k) / 2^(n-1): n - 1 rounds of pairwise
# averaging of n partial sums, in closed form
_EULER_WEIGHTS = [np.array([math.comb(n - 1, k) for k in range(n)]) / 2.0 ** (n - 1)
                  for n in range(_EULER_WINDOW + 1)]


def _euler_accelerate(partial):
    """Repeated-averaging (Euler) limit sum_k C(n-1,k) p_k / 2^(n-1) of
    n >= 2 partial sums p.

    Returns (estimate, spread) where spread is the final averaging step
    (the same sum one order lower, over diff(p)), an honest convergence
    indicator for alternating tails.
    """
    p = np.asarray(partial)
    n = len(p)
    return (float(_EULER_WEIGHTS[n] @ p),
            abs(float(_EULER_WEIGHTS[n - 1] @ np.diff(p))))


def integrate_oscillatory(envelope, omega, spec=QuadSpec(), *,
                          singularity_power=0.0, kernel="cos"):
    """Integrate kernel(omega*p) * envelope(p) over p in [0, inf),
    kernel being cos (default) or sin.

    The envelope must be eventually of one sign and decaying.  The
    integral is split at the zeros of the kernel; the leading segment
    (which may hold an integrable p^singularity_power behaviour at 0,
    declare it if so) goes through the adaptive rule after a power
    substitution, and the alternating tail series is summed with Euler
    acceleration.  Returns (value, error_estimate).
    """
    if omega <= 0:
        raise ValueError("omega must be positive; use integrate_adaptive otherwise")
    if kernel == "cos":
        kfun = np.cos
        z0 = 0.5 * np.pi / omega   # first cosine zero
    elif kernel == "sin":
        kfun = np.sin
        z0 = np.pi / omega
    else:
        raise ValueError(f"kernel must be 'cos' or 'sin', got {kernel!r}")
    c = float(singularity_power)
    if c <= -1.0:
        raise NonIntegrable(f"envelope power {c} at 0 is not integrable")

    # the head often exceeds the whole integral in magnitude, so its
    # error budget must be tighter than the overall target
    head_spec = replace(spec, abs_tol=0.125 * spec.abs_tol,
                        rel_tol=0.125 * spec.rel_tol)
    # u = p^(1+c) absorbs the endpoint power: dp * p^c = du / (1+c).  At
    # c = 0 every factor it adds (u ** 1.0, p ** -0.0, pw = 1.0) is exact
    pw = 1.0 / (1.0 + c)

    def lead(u):
        p = u ** pw
        return kfun(omega * p) * envelope(p) * p ** (-c) * pw
    head, head_err = integrate_adaptive(lead, 0.0, z0 ** (1.0 + c), head_spec)

    seg_len = np.pi / omega
    offsets = 0.5 * seg_len * (_NODES_HI + 1.0)   # within-segment node offsets
    partial = [head]
    seg_values = []
    quad_err = head_err
    for chunk_start in range(0, _MAX_SEGMENTS, _SEG_CHUNK):
        starts = z0 + seg_len * (chunk_start + np.arange(_SEG_CHUNK))[:, None]
        p = starts + offsets[None, :]
        y = np.asarray(envelope(p), dtype=float) * kfun(omega * p)
        if not np.all(np.isfinite(y)):
            raise NonIntegrable("non-finite envelope value in oscillatory tail")
        hi = 0.5 * seg_len * (y @ _W_HI)
        lo = 0.5 * seg_len * (y[:, _LO_SUBSET] @ _W_LO)
        errs = np.abs(hi - lo)
        for i in range(_SEG_CHUNK):
            seg_values.append(hi[i])
            quad_err += errs[i]
            partial.append(partial[-1] + hi[i])
            scale = max(1.0, abs(partial[-1]))
            if abs(hi[i]) < TAIL_CUTOFF * scale:
                # envelope died: the plain sum is the answer; Euler
                # averaging here would blend in pre-asymptotic partials
                return partial[-1], abs(hi[i]) + quad_err
            if len(seg_values) < 4:
                continue
            best, best_spread = _euler_accelerate(partial[-_EULER_WINDOW:])
            tol = max(spec.abs_tol, spec.rel_tol * abs(best))
            # second exit: once the acceleration spread sits far below
            # the accumulated panel error, more segments cannot reduce
            # the total; stop and report the floor honestly
            if best_spread + quad_err < tol or best_spread < 0.01 * quad_err:
                return best, best_spread + quad_err
        # divergence guard: magnitudes must trend downward eventually
        if len(seg_values) >= 128:
            recent = np.abs(seg_values[-64:])
            older = np.abs(seg_values[-128:-64])
            if np.median(recent) > np.median(older):
                raise NonDecaying("oscillatory segment magnitudes are not decaying")
    raise QuadFailure(
        f"oscillatory tail not converged after {_MAX_SEGMENTS} segments "
        f"(spread {best_spread:.3e})")


def root_itp(g, lo, hi, glo, ghi, tol=1e-12):
    """ITP root of g on [lo, hi] given glo = g(lo) and ghi = g(hi).

    Interpolate-truncate-project (Oliveira & Takahashi, ACM TOMS 47(1),
    2020) with kappa1 = 0.2/(hi-lo), kappa2 = 2, n0 = 1: each step takes
    the regula-falsi point, nudges it toward the midpoint and projects
    it into a window around the midpoint that shrinks so that the
    bracket is at most tol wide after ceil(log2((hi-lo)/tol)) + 1
    steps, bisection's bound plus one.  On smooth functions it
    converges superlinearly.  g is never evaluated at lo or hi; the
    caller supplies those values, usually left over from a bracket
    search.  Returns the bracket midpoint, or an exact zero as found.
    Raises NoBracket when glo and ghi share a sign.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0) == (ghi > 0):
        raise NoBracket(f"g({lo!r}) and g({hi!r}) have the same sign")
    kappa1 = 0.2 / (hi - lo)
    eps = 0.5 * tol
    n_max = max(0, math.ceil(math.log2((hi - lo) / tol))) + 1
    # after n_max steps the bracket is within tol up to rounding, which
    # can leave it a few ulps wider; stopping there keeps the bound
    for j in range(n_max):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * (lo + hi)
        # interpolation: regula falsi, or the midpoint when rounding or
        # an infinite endpoint value puts it outside the open bracket
        x_f = (ghi * lo - glo * hi) / (ghi - glo)
        if not lo < x_f < hi:
            x_f = mid
        # truncation toward the midpoint
        sigma = math.copysign(1.0, mid - x_f)
        delta = kappa1 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        # projection into the minmax window around the midpoint
        r = max(0.0, eps * 2.0 ** (n_max - j) - 0.5 * width)
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx > 0) == (glo > 0):
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
    return 0.5 * (lo + hi)
