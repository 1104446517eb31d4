"""Adaptive and oscillatory quadrature plus ITP root finding.

This layer is the package's independent oracle: closed forms elsewhere
are accepted only when they agree with these routines, so nothing here
may import from the H-function or spectral modules.

The panel rule is a nested Fejer-2 pair (31-node high rule, 15-node low
rule on the shared odd-index subset).  Fejer-2 is an open rule, so
integrable endpoint singularities never get evaluated directly; the
adaptive bisection resolves them by geometric refinement instead.
Each panel set is one integrand call: the initial mesh (4 or 8 panels)
and then both halves of each split, as a flat array of 31 nodes per
panel, so an integrand pays its per-call overhead once per set.  The
rule's own numpy work per set is two products: the high and low rules
as one (panel x 31) by (31 x 2) product, and the roughness sum
|y| @ w_hi, whose non-finite entries are the only finiteness test (the
Fejer-2 weights are positive, checked at import).  Semi-infinite
domains are mapped by t = x/(1+x), chosen over an exponential map
because the spectral integrands have heavy power-law tails.
Fourier-type integrals take the Ooura-Mori double-exponential rule,
whose nodes close in on the kernel's zeros, so one node table serves
every frequency and no tail is summed.  All decisions are
data-independent, so repeated calls produce bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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
    """An oscillatory envelope still grows at the rule's outermost node."""


class NoBracket(NumericalFailure):
    """Root bracket endpoints do not straddle a sign change."""


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract shared by every quadrature call.

    abs_tol / rel_tol bound the reported error estimate; the effective
    target is max(abs_tol, rel_tol * |value|).  max_subdivisions caps
    panel splits in one adaptive call.  The oscillatory rule is fixed:
    it reports its error estimate rather than refining toward these.
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
# Fejer-2 weights are positive, so |y| @ _W_HI is the roughness sum as it stands
assert np.all(_W_HI > 0.0) and np.all(_W_LO > 0.0)
# high-rule indices whose nodes coincide with the low rule: j even
_LO_SUBSET = np.arange(1, 32)[np.arange(1, 32) % 2 == 0] - 1
# columns: the high rule, and the low rule on the high rule's nodes (zero
# off its subset), so one product forms both
_W_PAIR = np.zeros((31, 2))
_W_PAIR[:, 0] = _W_HI
_W_PAIR[_LO_SUBSET, 1] = _W_LO


def _panel(f, lo, hi):
    """Embedded-pair evaluation on the panels [lo[i], hi[i]] (arrays) by one
    integrand call on their nodes, flattened panel by panel:
    (values, error_estimates) as lists."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES_HI
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.ndim == 0:
        y = np.full(x.size, float(y))
    if y.shape != (x.size,):
        raise ValueError("integrand must return an array matching its input")
    y = y.reshape(x.shape)
    # a non-finite node makes its panel's roughness sum inf or nan; the
    # rows are read only to name the first such panel
    rough = half * (np.abs(y) @ _W_HI)
    if not np.isfinite(rough).all():
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonIntegrable(f"non-finite integrand value in "
                                f"[{float(lo[i])!r}, {float(hi[i])!r}]")
    pair = half[:, None] * (y @ _W_PAIR)
    value = pair[:, 0]
    err = np.abs(value - pair[:, 1]) + 1e-16 * rough
    return value.tolist(), err.tolist()


def _adaptive_core(f, a, b, spec, initial=8):
    """Adaptive bisection on the finite interval [a, b]: the initial mesh
    is one _panel call, and so is each split, both halves at once."""
    step = (b - a) / initial   # np.linspace's edges, without its overhead
    edges = [a + k * step for k in range(initial)] + [b]
    vals, errs = _panel(f, np.array(edges[:-1]), np.array(edges[1:]))
    heap = [(-e, i, lo_e, hi_e, v) for i, (lo_e, hi_e, v, e)
            in enumerate(zip(edges[:-1], edges[1:], vals, errs))]
    heapq.heapify(heap)
    counter = initial
    total = sum(vals)
    total_err = sum(errs)

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
        (v1, v2), (e1, e2) = _panel(f, np.array([lo_e, mid]),
                                     np.array([mid, hi_e]))
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

    f must accept a 1-d float ndarray (the nodes of a whole panel set)
    and return matching values; integrable endpoint singularities are
    fine (the rule is open), interior poles are the caller's problem.
    Returns (value, error_estimate).
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
    if a_inf:   # x -> -x; negation is exact, so this is the b_inf rule mirrored
        return integrate_adaptive(lambda x: f(-x), -b, math.inf, spec)
    return _adaptive_core(f, a, b, spec, initial=4)


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


def integrate_oscillatory(envelope, omega, *, singularity_power=0.0,
                          kernel="cos"):
    """Integrate kernel(omega*p) * envelope(p) over p in [0, inf), kernel
    being cos (default) or sin, by the Ooura-Mori rule.

    omega is a positive float or 1-d array; envelope gets p of shape
    (rows, n_nodes) for blocks of omega rows within BLOCK elements, and an
    array omega returns arrays equal to the scalar calls bit for bit.  The
    envelope must not grow at the outermost node, about 377/omega
    (NonDecaying).  A declared p^c at 0, c = singularity_power > -1, is
    taken out as g0 p^c e^(-omega p), g0 read at the smallest node, and its
    transform g0 Gamma(1+c) (sqrt(2) omega)^-(1+c) cos or sin(pi (1+c)/4)
    added back.  The error estimate is the gap to the rule with twice the
    step, plus roundoff and the mass below the smallest node; the rule is
    fixed, so no QuadSpec enters.  Returns (value, err).
    """
    om = np.asarray(omega, dtype=float)
    if om.ndim > 1 or not np.all(om > 0):
        raise ValueError("omega must be a positive float or 1-d array; "
                         "use integrate_adaptive at omega = 0")
    if kernel not in _DE_TABLES:
        raise ValueError(f"kernel must be 'cos' or 'sin', got {kernel!r}")
    c = float(singularity_power)
    if c <= -1.0:
        raise NonIntegrable(f"envelope power {c} at 0 is not integrable")
    rows = np.atleast_1d(om)
    step = max(1, BLOCK // _DE_TABLES[kernel][0][0].size)
    parts = [_de_rows(envelope, rows[k:k + step, None], c, kernel)
             for k in range(0, rows.size, step)]
    value = np.concatenate([v for v, _ in parts])
    err = np.concatenate([e for _, e in parts])
    if om.ndim == 0:
        return float(value[0]), float(err[0])
    return value, err


def _de_rows(envelope, rows, c, kernel):
    """integrate_oscillatory on a (rows x 1) block of omega: (value, err)."""
    def sample(u):
        p = u / rows
        f = np.asarray(envelope(p), dtype=float)
        if f.shape != p.shape:
            raise ValueError("envelope must return an array matching its input")
        if not np.all(np.isfinite(f)):
            raise NonIntegrable("non-finite envelope value at an oscillatory node")
        return p, f

    (u, w), (u2, w2) = _DE_TABLES[kernel]
    p, f = sample(u)
    if np.any(np.abs(f[:, -1]) > np.abs(f[:, -2])):
        raise NonDecaying("envelope still growing at the outermost oscillatory node")
    p2, f2 = sample(u2)
    closed = 0.0
    if c != 0.0:
        g0 = f[:, :1] * p[:, :1] ** -c
        f = f - g0 * p ** c * np.exp(-rows * p)
        f2 = f2 - g0 * p2 ** c * np.exp(-rows * p2)
        kfun = math.cos if kernel == "cos" else math.sin
        closed = (g0[:, 0] * (math.gamma(1.0 + c) * kfun(0.25 * math.pi * (1.0 + c)))
                  * (math.sqrt(2.0) * rows[:, 0]) ** -(1.0 + c))
    fw = f * w
    fine = fw.sum(axis=-1) / rows[:, 0]
    coarse = (f2 * w2).sum(axis=-1) / rows[:, 0]
    # roundoff: an ulp in each of the n terms, added as a random walk
    err = (np.abs(fine - coarse) + math.sqrt(len(w)) * np.finfo(float).eps
           * (np.abs(fw).sum(axis=-1) / rows[:, 0] + np.abs(closed))
           + np.abs(f[:, 0]) * p[:, 0] / (1.0 + c))
    return fine + closed, err


def root_itp(g, lo, hi, glo, ghi, tol=1e-12):
    """ITP root of g on [lo, hi] given glo = g(lo) and ghi = g(hi).

    Interpolate-truncate-project (Oliveira & Takahashi, ACM TOMS 47(1),
    2020) with kappa2 = 2, n0 = 1: each step takes the regula-falsi
    point, nudges it by kappa1 w^2 toward the midpoint and projects it
    into a window around the midpoint that shrinks so that the bracket
    is at most tol wide after ceil(log2((hi-lo)/tol)) + 1 steps,
    bisection's bound plus one.  On a nearly linear g, such as the
    energy condition in log|E|, regula falsi lands on the root at once,
    and two choices keep the next steps from walking away from it:
    - kappa1 = 1e-15/(hi-lo), with the nudge at least eps/2 = tol/4,
      carries a point on the root past it, so the far end moves.  The
      floor is what makes it past: the root of a computed g is known
      only to g's rounding, far above x's, and a point that falls short
      of it in a lopsided bracket (the root near one end) moves the
      near end, leaves the bracket as wide as before and spends the
      projection's one step of slack, so the next steps are bisections.
      ITP's usual 0.002/(hi-lo) applies only once the same end has
      moved twice in a row, the stall the nudge exists to break;
    - Dekker's minimum step (Brent, Algorithms for Minimization without
      Derivatives, 1973, ch. 4): no point lies within eps = tol/2 of
      either end, so the step after a point on the root closes the
      bracket.
    Both move a point toward the midpoint, so the bound holds.
    Evaluations at tol 1e-12, with the 0.002 nudge at every step in
    brackets: 0.7 - x on [0, 1] 2 (6), cos on [0, 2] 6 (7), 1 - x^2 on
    [0.5, 3] 12 (12, and 15 with the 1e-15 nudge at every step); a
    linear g with 1e-13 of rounding, its root 2e-6 from the low end of
    a bracket 0.2494 wide, 2 (6 on 19 of 40 roots without the floor).
    The energy oracle makes 4 per call, bracket search included, on
    each of the 1536 configs of the benchmark's spectrum seeds 401-410,
    501 and 502 (4.69 on average and up to 10 with a search overshoot
    of 1e-6 step and no floor).  g is never evaluated at lo or hi;
    the caller supplies those values, usually left over from a bracket
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
    span = hi - lo
    eps = 0.5 * tol
    n_max = max(0, math.ceil(math.log2(span / tol))) + 1
    # which end the last step replaced; whether the step before did too
    moved = stalled = None
    # after n_max steps the bracket is within tol up to rounding, which
    # can leave it a few ulps wider; stopping there keeps the bound
    for j in range(n_max):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * (lo + hi)
        # interpolation: regula falsi, kept in the bracket against
        # rounding; the midpoint when an infinite end value makes it nan
        x_f = (ghi * lo - glo * hi) / (ghi - glo)
        x_f = mid if math.isnan(x_f) else min(max(x_f, lo), hi)
        # truncation toward the midpoint
        sigma = math.copysign(1.0, mid - x_f)
        delta = max((0.002 if stalled else 1e-15) * width * width / span, 0.5 * eps)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        # projection into the minmax window around the midpoint
        r = max(0.0, eps * 2.0 ** (n_max - j) - 0.5 * width)
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        # minimum step: at least eps inside either end
        x = min(max(x, lo + eps), hi - eps)
        gx = g(x)
        if gx == 0.0:
            return x
        replaces_lo = (gx > 0) == (glo > 0)
        stalled, moved = replaces_lo == moved, replaces_lo
        if replaces_lo:
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
    return 0.5 * (lo + hi)
