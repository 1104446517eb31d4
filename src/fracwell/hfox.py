"""Fox H-function engine: one way to an H value (the dispatcher _evaluate
behind eval_auto), Mellin transform, and the parameter algebra (argument
rescaling, pair cancellation, cosine transform).

Conventions
-----------
The engine evaluates

    H^{m,n}_{p,q}[w] = (1/2 pi i) integral_L h(s) w^{-s} ds,

    h(s) = prod_{j<=m} Gamma(b_j + B_j s) * prod_{j<=n} Gamma(1 - a_j - A_j s)
         / ( prod_{j>m} Gamma(1 - b_j - B_j s) * prod_{j>n} Gamma(a_j + A_j s) ),

with w = arg_scale * z.  _factors is the one place where this layout
lives: every routine that evaluates h(s), bounds its strip or sums its
residues reads the factor table from there.  Source texts for this
function family disagree on the sign of the A_j s / B_j s terms and on
the kernel power (z^s vs z^{-s}); the convention above is the one fixed
by the anchor values H^{1,0}_{0,1}[z|(0,1)] = exp(-z),
H^{1,1}_{1,1}[z|(0,1);(0,1)] = 1/(1+z), and the Mellin transform value
Gamma(1/2)^2 = pi of the rational family at s = 1/2, all of which are
enforced by the test suite against the quadrature oracle.

Pole families: Gamma(b_j + B_j s), j <= m, contributes the left set
s = -(b_j + k)/B_j; Gamma(1 - a_j - A_j s), j <= n, the right set
s = (1 - a_j + k)/A_j.  _evaluate first sums the residue series over
the left set, the ascending expansion; where it converges only inside
|w| < radius, it continues it through the inversion identity

    H^{m,n}_{p,q}[w | (a,A); (b,B)] = H^{n,m}_{q,p}[1/w | (1-b,B); (1-a,A)].

Each argument's series stops on its own terms (_series_core), so an H
value never depends on the rest of its grid.  What the series cannot
sum or does not pass goes to the contour, band by band (see _evaluate);
eval_contour is the contour alone.

The contour takes H(w) = (1/pi) int_0^inf Re[h(c + it) w^{-c-it}] dt on
a line Re s = c between the families by the trapezoid rule on nodes
t = k h, which converges geometrically there (Trefethen & Weideman,
SIAM Rev. 56, 2014).  Arguments on one line share its nodes: log h is
taken once per node and each H(w) is a row of one (argument x node)
product, summed in units of its t = 0 amplitude.  err_est is
|T_h - T_2h| plus 2.3e-16 h sum |y| (1 + |E|), the rounding of each
node's exponent E = log h(s) - s log w in the summands y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gammafn import LANCZOS_REL_ACC, gammaln_sign, loggamma
from .quadrature import (BLOCK, TAIL_CUTOFF, NumericalFailure, QuadFailure,
                         QuadSpec, integrate_adaptive, integrate_oscillatory)

__all__ = [
    "HFoxParams",
    "EvalOutcome",
    "ValidationReport",
    "CosineTransform",
    "MellinCheck",
    "CosineTransformCheck",
    "NoSeparatingContour",
    "OutOfStrip",
    "NoMatchingPair",
    "StripViolation",
    "validate",
    "eval_contour",
    "eval_auto",
    "mellin",
    "mellin_numeric_check",
    "rescale_power",
    "cancel_pairs",
    "reduce_fully",
    "cosine_transform",
    "cosine_transform_check",
]

COINCIDENCE_TOL = 1e-12
_SERIES_TOL = 1e-12   # a residue term under this times the sum is small
_MAX_TERMS = 512      # residue series term budget
# log k! over the term budget, shared by every residue series
_LOG_FACT = np.array([math.lgamma(k + 1) for k in range(_MAX_TERMS)])
_TERM_BLOCK = 16      # residue terms per (k, w) array: about 8 of them at 1984 w take 2 MB
_POLE_CAP = 4096      # poles per family that validate's coincidence scan lists


class NoSeparatingContour(NumericalFailure):
    """Left and right pole families interleave; no vertical line splits them."""


class OutOfStrip(Exception):
    """Mellin variable outside the fundamental strip."""


class NoMatchingPair(Exception):
    """No upper/lower parameter pair is positioned for cancellation."""


class StripViolation(Exception):
    """Cosine-transform existence conditions fail for these parameters."""


@dataclass(frozen=True)
class HFoxParams:
    """Parameter block of H^{m,n}_{p,q}[arg_scale * z].

    upper holds the (a_j, A_j) pairs (length p), lower the (b_j, B_j)
    pairs (length q); m and n are the leading-gamma counts.  The first
    m lower and first n upper pairs are numerator gammas; order inside
    each of the four groups is immaterial, order across groups is not.
    """

    m: int
    n: int
    upper: tuple
    lower: tuple
    arg_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(A)) for a, A in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(B)) for b, B in self.lower))

    @property
    def p(self):
        return len(self.upper)

    @property
    def q(self):
        return len(self.lower)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple


@dataclass(frozen=True)
class EvalOutcome:
    value: float
    err_est: float
    method: str


@dataclass(frozen=True)
class CosineTransform:
    """Right-hand side of the cosine-transform identity: the value is
    multiplier * H[argument | params].  verified stays False until a
    numeric check has passed for this instance; the printed identity in
    the source material is not trusted sight unseen."""

    params: HFoxParams
    multiplier: float
    argument: float
    verified: bool = False


@dataclass(frozen=True)
class MellinCheck:
    analytic: float
    numeric: float
    rel_err: float
    quad_err: float


@dataclass(frozen=True)
class CosineTransformCheck:
    lhs: float
    rhs: float
    rel_err: float
    passed: bool
    transform: CosineTransform


def _factors(params):
    """Gamma-factor table (c, d, e) with h(s) = prod Gamma(c + d s)^e.

    Rows run lower[:m], upper[:n] (numerators, e = +1), then lower[m:],
    upper[n:] (denominators, e = -1).  A numerator row with d > 0 is a
    left pole family, one with d < 0 a right family.
    """
    m, n = params.m, params.n
    rows = ([(b, B, 1.0) for b, B in params.lower[:m]]
            + [(1.0 - a, -A, 1.0) for a, A in params.upper[:n]]
            + [(1.0 - b, -B, -1.0) for b, B in params.lower[m:]]
            + [(a, A, -1.0) for a, A in params.upper[n:]])
    c, d, e = np.array(rows, dtype=float).reshape(-1, 3).T
    return c, d, e


def _strip(params):
    """Fundamental strip (left_max, right_min): the rightmost left pole
    and the leftmost right pole, -inf / +inf for an empty family."""
    c, d, e = _factors(params)
    edge = -c / d
    left, right = edge[(e > 0) & (d > 0)], edge[(e > 0) & (d < 0)]
    return (float(left.max()) if left.size else -math.inf,
            float(right.min()) if right.size else math.inf)


def validate(params):
    """Structural validation; returns a report rather than raising."""
    v = []
    m, n, p, q = params.m, params.n, params.p, params.q
    if not (0 <= n <= p):
        v.append(f"need 0 <= n <= p, got n={n}, p={p}")
    if not (0 <= m <= q):
        v.append(f"need 0 <= m <= q, got m={m}, q={q}")
    if m == 0 and n == 0:
        v.append("m^2 + n^2 != 0 violated (no numerator gammas at all)")
    for tag, sym, pairs in (("upper", "A_j", params.upper), ("lower", "B_j", params.lower)):
        for i, (coef, scale) in enumerate(pairs):
            if not (math.isfinite(coef) and math.isfinite(scale)):
                v.append(f"{tag}[{i}] must be finite, got ({coef}, {scale})")
            elif not scale > 0:
                v.append(f"{sym} > 0 violated at {tag}[{i}]: got {scale}")
    if not (math.isfinite(params.arg_scale) and params.arg_scale > 0):
        v.append(f"arg_scale must be finite and positive, got {params.arg_scale}")
    if not v and m > 0 and n > 0:
        left_max, right_min = _strip(params)
        if left_max >= right_min - COINCIDENCE_TOL:
            c, d, _ = _factors(params)
            lefts = [s for j in range(m)
                     for s in _poles_beyond(c[j], d[j], right_min - 1e-9)]
            rights = [s for j in range(m, m + n)
                      for s in _poles_beyond(c[j], d[j], left_max + 1e-9)]
            for l in lefts:
                for r in rights:
                    if abs(l - r) < COINCIDENCE_TOL * max(1.0, abs(l)):
                        v.append(f"left pole {l} coincides with right pole {r}")
    return ValidationReport(ok=not v, violations=tuple(v))


def _require_valid(params):
    rep = validate(params)
    if not rep.ok:
        raise ValueError("invalid H-function parameters: " + "; ".join(rep.violations))


def _poles_beyond(c, d, bound):
    """Poles s = -(c + k)/d of Gamma(c + d s) on the far side of bound:
    s >= bound for a left family (d > 0), s <= bound for a right one;
    at most the first _POLE_CAP of them."""
    out = []
    kmax = int(math.floor(-bound * d - c)) + 1
    for k in range(0, max(0, min(kmax + 1, _POLE_CAP))):
        s = -(c + k) / d
        if (s >= bound) if d > 0 else (s <= bound):
            out.append(s)
    return out


def _radius(params):
    """Where the left residue series converges: inf when mu = sum(B) -
    sum(A) > 0, 0.0 when mu < 0, prod B^B / prod A^A when mu == 0."""
    _, d, e = _factors(params)
    mu = float(np.sum(e * d))   # sum(B) - sum(A)
    if mu > COINCIDENCE_TOL:
        return math.inf
    if mu < -COINCIDENCE_TOL:
        return 0.0
    return math.exp(sum(B * math.log(B) for _, B in params.lower)
                    - sum(A * math.log(A) for _, A in params.upper))


def _swap(params):
    """Inversion identity: H[w | params] = H[1/w | swapped].

    Exchanges the roles of the two pole families, so an argument beyond
    the series radius becomes one inside the swapped radius.
    """
    new_upper = tuple((1.0 - b, B) for b, B in params.lower)
    new_lower = tuple((1.0 - a, A) for a, A in params.upper)
    return HFoxParams(m=params.n, n=params.m, upper=new_upper, lower=new_lower)


# --- residue series -------------------------------------------------------

def _series_core(params, w):
    """Left-pole residue series at scaled arguments w (positive ndarray):
    (values, err_ests).

    Caller guarantees the series converges for every element in exact
    arithmetic.  Floating point is another matter: at large w the
    alternating terms overflow or cancel catastrophically before the
    factorial decay wins.  Each element stops on its own terms, so a grid
    call gives each element the bits of its one-element call: at term k
    >= 4, when its last three terms are each under _SERIES_TOL times
    max(1, |sum|) and every positive one of its last five is under 0.9
    times the positive one before.  err_est is 9 times that last term
    (the tail) plus LANCZOS_REL_ACC * max|term|, the gamma kernel's
    relative accuracy in each term's coefficient.  An element the series
    cannot sum comes back nan with err_est inf: one whose sum went
    non-finite before it stopped, one that has not stopped when its sum
    reaches a left pole that is also a pole of another numerator gamma
    (a pole of higher order, outside the simple-residue formula) or when
    the term budget runs out, and every element when the block has no
    left family (m = 0).
    """
    m = params.m
    w = np.asarray(w, dtype=float)
    vals, errs = np.full_like(w, np.nan), np.full_like(w, np.inf)
    if m == 0:
        return vals, errs
    c, d, e = _factors(params)   # rows j < m are the left families (b_j, B_j)
    ks = np.arange(_MAX_TERMS)
    power = (c[:m, None] + ks) / d[:m, None]   # left pole k of family j: -power[j, k]

    # residue of family j at pole k: sign * exp(logabs + power * log w),
    # the other factors' gammas taken in one call over the horizon.  A
    # vanishing reciprocal gamma leaves sign = 0 (the term is zero); a
    # numerator pole there, left or right, is the clash
    logabs = np.array([-_LOG_FACT - math.log(B) for B in d[:m]])
    sign = np.tile((-1.0) ** ks, (m, 1))
    clash = _MAX_TERMS
    with np.errstate(invalid="ignore"):
        for j in range(m):
            rest = np.arange(len(c)) != j
            la, sg = gammaln_sign(c[rest, None] + d[rest, None] * -power[j])
            for la_i, sg_i, e_i in zip(la, sg, e[rest]):
                logabs[j] = logabs[j] + la_i if e_i > 0 else logabs[j] - la_i
                sign[j] *= sg_i
                if e_i > 0 and not np.all(sg_i):
                    clash = min(clash, int(np.argmin(sg_i != 0.0)))

    # _TERM_BLOCK poles at a time as one (k, w) array over the elements
    # still summing: cumsum carries each running sum as a term-by-term
    # loop would; the last four |term| and two small flags of each element
    # carry its stopping rule from block to block
    todo = np.arange(w.size)
    logw, acc, max_mag = np.log(w), np.zeros_like(w), np.zeros_like(w)
    last, small = np.zeros((4, w.size)), np.zeros((2, w.size), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        for k0 in range(0, clash, _TERM_BLOCK):
            kb = slice(k0, min(k0 + _TERM_BLOCK, clash))
            term = np.zeros((len(ks[kb]), todo.size))
            for j in range(m):
                x = np.multiply(power[j, kb, None], logw)
                x += logabs[j, kb, None]
                np.exp(x, out=x)
                x *= sign[j, kb, None]
                x[sign[j, kb] == 0.0] = 0.0   # a vanishing residue adds nothing
                term += x
            mag = np.abs(term, out=x)
            term[0] += acc
            run = np.cumsum(term, axis=0)
            bad = ~np.isfinite(run)   # a sum that went non-finite stays so
            small = np.concatenate([small, mag < _SERIES_TOL * np.maximum(1.0, np.abs(run))])
            stop = small[2:] & small[1:-1] & small[:-2] & ~bad & (ks[kb, None] >= 4)
            last = np.concatenate([last, mag])
            prev = np.zeros_like(mag)   # each window's last positive |term|
            for t in (last[i:i + len(mag)] for i in range(5)):
                stop &= ~((t > 0.0) & (prev > 0.0) & ~(t / prev < 0.9))
                prev = np.where(t > 0.0, t, prev)
            stopped = stop.any(axis=0)
            took = np.flatnonzero(stopped)
            at = np.argmax(stop[:, took], axis=0)   # the term each one stops at
            top = np.maximum(max_mag[took], np.maximum.accumulate(mag, axis=0)[at, took])
            vals[todo[took]] = run[at, took]
            errs[todo[took]] = mag[at, took] * (0.9 / 0.1) + LANCZOS_REL_ACC * top
            keep = ~(stopped | bad[-1])
            todo, logw, acc = todo[keep], logw[keep], run[-1, keep]
            max_mag = np.maximum(max_mag[keep], mag.max(axis=0)[keep])
            last, small = last[-4:, keep], small[-2:, keep]
            if not todo.size:
                break
    return vals, errs


# --- contour --------------------------------------------------------------

def _log_h_real(params, s, on_pole="zero"):
    """(log|h(s)|, sign of h(s)) at real s (scalar or 1-d), one
    gammaln_sign call over the factor table.  Where any gamma argument
    sits on a pole the pair is (inf, 0.0) (on_pole="zero"), or GammaPole
    is raised (on_pole="raise")."""
    c, d, e = _factors(params)
    la, sg = gammaln_sign(c + d * np.asarray(s, dtype=float)[..., None],
                          on_pole=on_pole)
    sign = np.prod(sg, axis=-1)
    with np.errstate(invalid="ignore"):
        logabs = np.sum(np.where(e > 0, la, -la), axis=-1)
    return np.where(sign != 0.0, logabs, np.inf), sign


def _contour_position(params, w):
    """Line Re(s) = c for each scaled argument w (1-d): the strip
    midpoint, at least 1e-3 from each pole family, or 0.5 left of the
    right poles.  With left poles only (n = 0), the rung of a geometric
    ladder right of them that minimizes the t = 0 integrand amplitude
    |h(c)| w^{-c}, so exponentially small H values keep relative
    accuracy.  A rung where h vanishes or the amplitude is nan is never
    taken, ties go to the first rung, and with none usable c is the
    first, left_max + 0.5."""
    left_max, right_min = _strip(params)
    if math.isinf(right_min):
        c = left_max + 2.0 ** np.arange(-1, 10)   # rungs 0.5, 1, 2, ..., 512
        f = _log_h_real(params, c)[0] - np.log(w)[:, None] * c   # inf where h = 0
        return c[np.argmin(np.where(f < math.inf, f, math.inf), axis=1)]
    if math.isinf(left_max):
        return np.full_like(w, right_min - 0.5)
    if right_min - left_max < 2e-3:
        raise NoSeparatingContour(f"pole families leave no usable gap: left max "
                                  f"{left_max}, right min {right_min}")
    return np.full_like(w, 0.5 * (left_max + right_min))


def _log_h(params, s):
    """log h(s) on a complex array; branch choice is irrelevant because
    the value is only ever exponentiated."""
    c, d, e = _factors(params)
    s = np.asarray(s, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = loggamma(c[:, None] + d[:, None] * s.reshape(1, -1))
        return np.sum(np.where(e[:, None] > 0, lg, -lg), axis=0).reshape(s.shape)


def _contour(params, w, quad):
    """Mellin-Barnes line integrals at the scaled arguments w (1-d):
    (values, err_ests), err_est inf where the quadrature did not settle.
    The trapezoid rule of the module docstring on each line of
    _contour_position.  t_max doubles, at most 8 times, until |h| at
    t_max is TAIL_CUTOFF e^-5 below its t = 0 value; h halves, at most 10
    times, until every argument on the line has |T_h - T_2h| <=
    max(abs_tol, rel_tol |T_h|) or is down to its own rounding term, which
    no finer h improves (such an argument keeps err_est inf).
    """
    _, d, e = _factors(params)
    delta = float(np.sum(e * np.abs(d)))
    if delta <= 0:
        raise QuadFailure(f"contour integrand does not decay (delta = {delta})")
    logw, cpos = np.log(w), _contour_position(params, w)
    vals, errs = np.full_like(w, np.nan), np.full_like(w, np.inf)
    cut = math.log(TAIL_CUTOFF) - 5.0
    for c in sorted(set(cpos.tolist())):
        on = cpos == c
        lw, lh0 = logw[on, None], complex(_log_h(params, c))
        reach = float(np.max(np.abs(lw)))
        t_max = 2.0 ** np.arange(9) * max(8.0, 2.0 * (reach - cut) / (math.pi * delta))
        settled = _log_h(params, c + 1j * t_max).real - lh0.real <= cut
        if not np.any(settled):
            continue
        h = min(0.5, 1.0 / (1.0 + reach))
        n, step = math.ceil(t_max[np.argmax(settled)] / h), 1
        # node blocks: each temporary within BLOCK elements, or one column
        cols = max(1, BLOCK // max(lw.size, len(params.upper + params.lower)))
        scale = lh0.real - c * lw   # each row sums in units of its t = 0 amplitude
        tot = 0.5 * math.cos(lh0.imag)   # the t = 0 node, weight 1/2: sign of h(c)
        mag = 0.5 * (1.0 + np.abs(lh0 - c * lw[:, 0]))
        for level in range(11):
            if level:   # halve h: the new nodes are the odd multiples
                h, n, step = 0.5 * h, 2 * n, 2
            t, coarse = h * np.arange(1, n + 1, step), 2.0 * h * tot
            for k in range(0, t.size, cols):
                lh = _log_h(params, c + 1j * t[k:k + cols])
                re, im = lh.real - c * lw, lh.imag - t[k:k + cols] * lw
                y = np.exp(re - scale)
                tot = tot + np.sum(y * np.cos(im), axis=1)
                mag = mag + np.sum(y * (1.0 + np.hypot(re, im)), axis=1)
            amp = np.exp(scale[:, 0]) / math.pi
            diff = amp * np.abs(h * tot - coarse)
            ok = diff <= np.maximum(quad.abs_tol, quad.rel_tol * amp * np.abs(h * tot))
            rounding = amp * 2.3e-16 * h * mag
            if level and np.all(ok | (diff <= rounding)):
                break
        vals[on] = amp * h * tot
        errs[on] = np.where(ok, diff + rounding, np.inf)
    return vals, errs


def eval_contour(params, z, quad=QuadSpec()):
    """Mellin-Barnes line integral of H[arg_scale * z] at scalar z > 0:
    _contour at one argument, QuadFailure where it does not settle."""
    _require_valid(params)
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"argument must be finite and positive, got {z!r}")
    w = params.arg_scale * float(z)
    v, e = _contour(params, np.array([w]), quad)
    if not np.isfinite(e[0]):
        raise QuadFailure(f"contour did not settle at w = {w:.6g}")
    return EvalOutcome(value=float(v[0]), err_est=float(e[0]), method="contour")


def _evaluate(params, z, quad):
    """The one H-value dispatcher: (values, err_ests, from_series) at
    finite positive z of any shape.

    Each scaled argument w = arg_scale * z falls in one band: the direct
    series serves w inside 0.8 of the series radius (_radius), the
    inversion identity (the swapped block at 1/w) w beyond 1.25 of it,
    and the borderline annulus between the two has no series.  In each
    band the residue series goes first; its value stands when finite
    with err_est <= max(5e-14, 1e-8 |value|).  The band's other elements
    go to one _contour call on the band's own block.  Where the contour
    did not settle or cannot be taken, a series value with a finite
    err_est is kept; otherwise the failure is raised.
    """
    _require_valid(params)
    z = np.asarray(z, dtype=float)
    good = np.isfinite(z) & (z > 0)
    if not np.all(good):
        raise ValueError(f"arguments must be finite and positive, got {z[~good][0]}")
    w = params.arg_scale * z.reshape(-1)
    base = replace(params, arg_scale=1.0)
    radius = _radius(base)
    direct, inverted = w <= 0.8 * radius, w >= 1.25 * radius
    vals, errs = np.full_like(w, np.nan), np.full_like(w, np.inf)
    series = np.zeros(w.shape, dtype=bool)
    for block, arg, band, summed in ((base, w, direct, True),
                                     (_swap(base), 1.0 / w, inverted, True),
                                     (base, w, ~direct & ~inverted, False)):
        idx = np.flatnonzero(band)
        if summed and idx.size:
            vals[idx], errs[idx] = _series_core(block, arg[idx])
            series[idx] = np.isfinite(vals[idx]) & (
                errs[idx] <= np.maximum(5e-14, 1e-8 * np.abs(vals[idx])))
        idx = idx[~series[idx]]
        if not idx.size:
            continue
        keep = np.isfinite(vals[idx]) & np.isfinite(errs[idx])
        try:
            cv, ce = _contour(block, arg[idx], quad)
        except (QuadFailure, NoSeparatingContour):
            if not np.all(keep):
                raise
            cv = ce = np.full(idx.size, np.inf)
        took = np.isfinite(ce)
        lost = idx[~(took | keep)]
        if lost.size:
            raise QuadFailure(f"contour did not settle at w = {arg[lost[0]]:.6g}")
        vals[idx[took]], errs[idx[took]] = cv[took], ce[took]
        series[idx[~took]] = True
    return vals.reshape(z.shape), errs.reshape(z.shape), series.reshape(z.shape)


def eval_auto(params, z, quad=QuadSpec()):
    """Series evaluation with automatic contour fallback (see _evaluate)."""
    v, e, series = _evaluate(params, [z], quad)
    return EvalOutcome(value=float(v[0]), err_est=float(e[0]),
                       method="series" if series[0] else "contour")


# --- Mellin transform -----------------------------------------------------

def mellin(params, s):
    """Closed-form Mellin transform: integral_0^inf z^{s-1} H[a z] dz.

    Equals a^{-s} h(s) inside the fundamental strip, which is fixed by
    positivity of every numerator gamma argument.
    """
    _require_valid(params)
    s = float(s)
    lo, hi = _strip(params)
    if not (lo < s < hi):
        raise OutOfStrip(f"s = {s} outside the fundamental strip ({lo}, {hi})")
    # on_pole="raise": any gamma argument at a non-positive integer is a
    # GammaPole error here, denominator or not
    logabs, sign = _log_h_real(params, s, on_pole="raise")
    return float(sign) * math.exp(float(logabs) - s * math.log(params.arg_scale))


def mellin_numeric_check(params, s, quad=QuadSpec()):
    """Quadrature cross-check of the closed-form Mellin transform.

    Integrates z^{s-1} H[a z] with H supplied by the evaluation engine,
    so this exercises the whole chain.  The integral is split at z = 1
    and each half is substituted into resolvable form: the head takes
    u = z^s to absorb the endpoint power (s < 1), the tail takes
    v = z^{s-r} with r the leading right-pole exponent whenever the
    decay is algebraic (n > 0), which turns z^{s-1} H ~ z^{s-1-r} into
    a bounded integrand on (0, 1].  Exponential-type tails (n = 0) are
    integrated directly; the mapped mesh resolves them unaided.
    """
    analytic = mellin(params, s)   # raises OutOfStrip outside the strip
    _, r = _strip(params)

    def direct(z):
        return z ** (s - 1.0) * _evaluate(params, z, quad)[0]

    if s >= 1.0:
        i1, e1 = integrate_adaptive(direct, 0.0, 1.0, quad)
    else:
        def head(u):
            with np.errstate(divide="ignore"):
                zz = np.power(u, 1.0 / s)
            return _evaluate(params, zz, quad)[0] / s
        i1, e1 = integrate_adaptive(head, 0.0, 1.0, quad)

    if math.isinf(r):   # no right family (n = 0): exponential-type tail
        i2, e2 = integrate_adaptive(direct, 1.0, np.inf, quad)
    else:
        g = r - s   # > 0 inside the strip

        def tail(v):
            with np.errstate(over="ignore"):
                zz = np.power(v, -1.0 / g)
                pref = np.power(v, -r / g) / g
            return pref * _evaluate(params, zz, quad)[0]
        i2, e2 = integrate_adaptive(tail, 0.0, 1.0, quad)

    numeric = i1 + i2
    rel = abs(numeric - analytic) / max(abs(analytic), 1e-300)
    return MellinCheck(analytic=analytic, numeric=numeric, rel_err=rel,
                       quad_err=e1 + e2)


# --- parameter algebra ----------------------------------------------------

def rescale_power(params, mu):
    """Argument-power identity: H[a z^mu | params] = (1/mu) H[a^{1/mu} z | out].

    Purely symbolic: every A_j and B_j is divided by mu and the scale is
    re-expressed; returns (new_params, multiplier).
    """
    _require_valid(params)
    if not mu > 0:
        raise ValueError(f"power must be positive, got {mu!r}")
    new = HFoxParams(
        m=params.m, n=params.n,
        upper=tuple((a, A / mu) for a, A in params.upper),
        lower=tuple((b, B / mu) for b, B in params.lower),
        arg_scale=params.arg_scale ** (1.0 / mu),
    )
    return new, 1.0 / mu


def _shift(params, sigma):
    """Argument-power shift: z^sigma H[z | params] = H[z | shifted].

    Every coefficient moves by sigma times its scale.  Kept private: the
    engine itself never needs it, but it documents how the reduced
    spectral parameter block arises from the rescaled one (only the
    tests and demos/reduction_chain.py use it).
    """
    return HFoxParams(
        m=params.m, n=params.n,
        upper=tuple((a + sigma * A, A) for a, A in params.upper),
        lower=tuple((b + sigma * B, B) for b, B in params.lower),
        arg_scale=params.arg_scale,
    )


def _pairs_match(x, y):
    return (abs(x[0] - y[0]) < COINCIDENCE_TOL * max(1.0, abs(x[0]))
            and abs(x[1] - y[1]) < COINCIDENCE_TOL * max(1.0, abs(x[1])))


def cancel_pairs(params):
    """Remove one matched upper/lower gamma pair, preferring the
    upper-numerator vs lower-denominator match.

    The defining product is order-free inside each of the four gamma
    groups, so the match is searched group-wide rather than only at the
    literal first/last slots.  One call does one cancellation; repeat to
    reduce fully.  Raises NoMatchingPair when nothing cancels.
    """
    _require_valid(params)
    m, n = params.m, params.n
    upper, lower = list(params.upper), list(params.lower)

    for i in range(n):                      # upper numerator ...
        for j in range(m, len(lower)):      # ... against lower denominator
            if _pairs_match(upper[i], lower[j]):
                del lower[j]
                del upper[i]
                return HFoxParams(m=m, n=n - 1, upper=tuple(upper),
                                  lower=tuple(lower), arg_scale=params.arg_scale)
    for i in range(m):                      # lower numerator ...
        for j in range(n, len(upper)):      # ... against upper denominator
            if _pairs_match(lower[i], upper[j]):
                del upper[j]
                del lower[i]
                return HFoxParams(m=m - 1, n=n, upper=tuple(upper),
                                  lower=tuple(lower), arg_scale=params.arg_scale)
    raise NoMatchingPair("no equal (coefficient, scale) pair in cancelling positions")


def reduce_fully(params):
    """Apply cancel_pairs until nothing matches."""
    while True:
        try:
            params = cancel_pairs(params)
        except NoMatchingPair:
            return params


# --- cosine transform -----------------------------------------------------

def cosine_transform(params, k, s, mu):
    """Symbolic right-hand side of

        integral_0^inf z^{s-1} cos(k z) H[a z^mu | params] dz
            = multiplier * H[argument | out_params],

    emitted exactly as the source identity prints it: orders
    (m+1, n; q+1, p+2), multiplier pi/(k s), argument k^mu / a, upper
    row (1-b_j, B_j)_q then ((1+s)/2, mu/2), lower row (s, mu) then
    (1-a_j, A_j)_p then ((1+s)/2, mu/2).  The result carries
    verified=False until cosine_transform_check passes for the
    instance; the identity is applied per instance, never assumed.
    """
    _require_valid(params)
    if not k > 0:
        raise ValueError(f"transform frequency must be positive, got {k!r}")
    if not mu > 0:
        raise ValueError(f"argument power must be positive, got {mu!r}")
    # min(b/B) = -left_max and max((a-1)/A) = -right_min; an empty family
    # leaves an infinite edge, which passes its test
    left_max, right_min = _strip(params)
    zero_power = s - mu * left_max
    if not zero_power > 0:
        raise StripViolation(
            f"integrand not integrable at 0: s + mu*min(b/B) = {zero_power}")
    inf_power = s - mu * right_min
    if not inf_power < 1.0:
        raise StripViolation(
            f"integrand envelope does not decay: s + mu*max((a-1)/A) = {inf_power}")
    new_upper = tuple((1.0 - b, B) for b, B in params.lower) + (((1.0 + s) / 2.0, mu / 2.0),)
    new_lower = ((float(s), float(mu)),) \
        + tuple((1.0 - a, A) for a, A in params.upper) \
        + (((1.0 + s) / 2.0, mu / 2.0),)
    out = HFoxParams(m=params.m + 1, n=params.n, upper=new_upper, lower=new_lower)
    return CosineTransform(params=out, multiplier=np.pi / (k * s),
                           argument=k ** mu / params.arg_scale, verified=False)


def cosine_transform_check(params, k, s, mu, quad=QuadSpec()):
    """Numeric verification of the cosine-transform identity.

    Left side by oscillatory quadrature of the defining integral (the
    H values come from the evaluation engine), right side by series or
    contour evaluation of the emitted parameter block after full pair
    cancellation.  Returns the measured relative error and a transform
    object whose verified flag is set when that error is at most 1e-6.
    """
    ct = cosine_transform(params, k, s, mu)

    lead = s - 1.0
    if params.m > 0:
        lead -= mu * _strip(params)[0]

    def envelope(p):
        return p ** (s - 1.0) * _evaluate(params, p ** mu, quad)[0]

    lhs, _ = integrate_oscillatory(envelope, k, singularity_power=lead)

    reduced = reduce_fully(ct.params)
    rhs = ct.multiplier * eval_auto(reduced, ct.argument, quad).value
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    passed = rel <= 1e-6
    return CosineTransformCheck(lhs=lhs, rhs=rhs, rel_err=rel, passed=passed,
                                transform=replace(ct, verified=passed))
