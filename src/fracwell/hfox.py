"""Fox H-function engine: one way to an H value (the dispatcher
eval_auto, with eval_contour as its fallback), Mellin transform, and the
parameter algebra (argument rescaling, pair cancellation, cosine
transform).  Each evaluation takes a whole argument set of any shape.

An H-function exists only for a valid parameter block: orders in range,
every A_j, B_j > 0, and no left pole on a right pole (Kilbas & Saigo,
H-Transforms, 2004, sec. 1.1).  HFoxParams checks that when it is made
and raises ValueError otherwise, so every block the engine sees is
valid, including those the parameter algebra derives.

Conventions
-----------
The engine evaluates

    H^{m,n}_{p,q}[w] = (1/2 pi i) integral_L h(s) w^{-s} ds,

    h(s) = prod_{j<=m} Gamma(b_j + B_j s) * prod_{j<=n} Gamma(1 - a_j - A_j s)
         / ( prod_{j>m} Gamma(1 - b_j - B_j s) * prod_{j>n} Gamma(a_j + A_j s) ),

with w = arg_scale * z.  A block's _factors field is the one place where
this layout lives: every routine that evaluates h(s), bounds its strip or
sums its residues reads the factor table from there.  A block builds that
table, its strip and its swapped block once, when it is made (see
HFoxParams), so no evaluation builds them again.  Source texts for this
function family disagree on the sign of the A_j s / B_j s terms and on
the kernel power (z^s vs z^{-s}); the convention above is
the one fixed by the anchor values H^{1,0}_{0,1}[z|(0,1)] = exp(-z),
H^{1,1}_{1,1}[z|(0,1);(0,1)] = 1/(1+z), and the Mellin transform value
Gamma(1/2)^2 = pi of the rational family at s = 1/2, all of which are
enforced by the test suite against the quadrature oracle.

Pole families: Gamma(b_j + B_j s), j <= m, contributes the left set
s = -(b_j + k)/B_j; Gamma(1 - a_j - A_j s), j <= n, the right set
s = (1 - a_j + k)/A_j.  eval_auto first sums the residue series over
the left set, the ascending expansion; where it converges only inside
|w| < radius, it continues it through the inversion identity

    H^{m,n}_{p,q}[w | (a,A); (b,B)] = H^{n,m}_{q,p}[1/w | (1-b,B); (1-a,A)].

Each argument's series stops on its own terms (_series_core), so a
series value does not depend on the rest of its grid.  What the series
cannot sum or does not pass goes to one eval_contour call, the contour
alone.  Arguments on one contour line share its t_max, first step and
halvings, sized by the largest |log w| among them, so a contour value's
last digits and err_est depend on the others.

The contour takes H(w) = (1/pi) int_0^inf Re[h(c + it) w^{-c-it}] dt on
a line Re s = c right of the left poles (_contour_position) and adds back
the residues of the right poles it passes, the first terms of the
inverted series (Braaksma, Compositio Math. 15, 1964; Paris & Kaminski,
Asymptotics and Mellin-Barnes Integrals, 2001, ch. 5).  The trapezoid
rule on nodes t = k h converges geometrically (Trefethen & Weideman,
SIAM Rev. 56, 2014).  Arguments on one line share its nodes: log h is
taken once per node, one gamma pass per distinct factor row, with the
t = 0 node, the t_max probes and the first two levels in one call, and
each H(w) is a row of one (argument x node) product, summed in units of
its t = 0 amplitude.  err_est is |T_h - T_2h| plus 2.3e-16 h sum |y|
(1 + |E|), the rounding of each node's exponent E = log h(s) - s log w
in the summands y.  A line of more than _MAX_NODES nodes raises
QuadFailure before they are allocated.

mellin_numeric_check integrates H against z^(s-1) on a log-z grid and
sums what lies past each end of it from the residue series of the
leading poles (Paris & Kaminski, ch. 5), so its grid ends where the
first omitted residue term is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gammafn import _POLE_TOL, LANCZOS_REL_ACC, gammaln_sign, loggamma
from .quadrature import BLOCK, QuadFailure, QuadSpec, integrate_oscillatory

__all__ = [
    "HFoxParams",
    "CosineTransform",
    "MellinCheck",
    "CosineTransformCheck",
    "OutOfStrip",
    "NoMatchingPair",
    "StripViolation",
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
_POLE_CAP = 4096      # left poles per family that the coincidence scan tests
_LADDER_TERMS = 8     # right poles per family in _contour_position's first table
# the contour cuts its semi-infinite line where the integrand has fallen
# TAIL_CUTOFF e^-5 below its t = 0 value
TAIL_CUTOFF = 1e-14
# nodes of one contour line at one step, 46 times the 22800 of the largest
# line the test suite takes: a line that needs more (t_max grows as
# 1/delta) raises QuadFailure instead of allocating them
_MAX_NODES = 2 ** 20
# the Mellin check's log-z node spacing, the log of the relative size of
# the term it drops at each end of its grid, and the poles per family
# whose residues it reads there
_MELLIN_STEP, _MELLIN_CUT, _MELLIN_POLES = 0.125, math.log(1e-17), 16


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
    A block that defines no H-function raises ValueError with every
    reason _violations finds.

    A block builds its gamma-free tables once, when it is made, as
    read-only fields:

    - _factors, the table (c, d, e) with h(s) = prod Gamma(c + d s)^e.
      Rows run lower[:m], upper[:n] (numerators, e = +1), then lower[m:],
      upper[n:] (denominators, e = -1).  A numerator row with d > 0 is a
      left pole family, one with d < 0 a right family.
    - _distinct, the distinct (c, d) rows and each row's index among
      them, or the rows themselves and None when every row is distinct:
      _log_h takes one gamma pass per distinct row.
    - _strip, the fundamental strip (left_max, right_min): the rightmost
      left pole and the leftmost right pole, -inf / +inf for an empty
      family.
    - _swap, the block of the inversion identity H[w | params] =
      H[1/w | _swap], which exchanges the roles of the left and right
      pole families (arg_scale 1).  It comes with its own tables but is
      not validated again: the identity maps a valid block to a valid
      one.

    Nothing here depends on the gamma kernel, whose coefficients may
    change between calls.
    """

    m: int
    n: int
    upper: tuple
    lower: tuple
    arg_scale: float = 1.0
    _factors: tuple = field(init=False, repr=False, compare=False)
    _distinct: tuple = field(init=False, repr=False, compare=False)
    _strip: tuple = field(init=False, repr=False, compare=False)
    _swap: "HFoxParams" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(A)) for a, A in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(B)) for b, B in self.lower))
        _build_tables(self)
        bad = _violations(self)
        if bad:
            raise ValueError("invalid H-function parameters: " + "; ".join(bad))
        object.__setattr__(self, "_swap", _mirrored(self))

    @property
    def p(self):
        return len(self.upper)

    @property
    def q(self):
        return len(self.lower)


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


def _build_tables(params):
    """Set params' _factors, _distinct and _strip (see HFoxParams)."""
    m, n = params.m, params.n
    rows = ([(b, B, 1.0) for b, B in params.lower[:m]]
            + [(1.0 - a, -A, 1.0) for a, A in params.upper[:n]]
            + [(1.0 - b, -B, -1.0) for b, B in params.lower[m:]]
            + [(a, A, -1.0) for a, A in params.upper[n:]])
    table = np.array(rows, dtype=float).reshape(-1, 3)
    distinct = {}
    index = [distinct.setdefault(row[:2], len(distinct)) for row in rows]
    if len(distinct) == len(rows):
        cd, index = table[:, :2], None
    else:
        cd, index = np.array(list(distinct)).reshape(-1, 2), np.array(index)
    for a in (table, cd, index):
        if a is not None:
            a.flags.writeable = False
    left = [-c / d for c, d, e in rows if e > 0 and d > 0]
    right = [-c / d for c, d, e in rows if e > 0 and d < 0]
    object.__setattr__(params, "_factors", tuple(table.T))
    object.__setattr__(params, "_distinct", (*cd.T, index))
    object.__setattr__(params, "_strip", (max(left, default=-math.inf),
                                          min(right, default=math.inf)))


def _mirrored(params, back=None):
    """The block of the inversion identity, arg_scale 1, built without
    validation; its own swapped block is back, or else the swap of it
    built the same way (params at arg_scale 1, each coefficient as
    1 - (1 - a) rounds)."""
    sw = object.__new__(HFoxParams)
    for name, value in (("m", params.n), ("n", params.m), ("arg_scale", 1.0),
                        ("upper", tuple((1.0 - b, B) for b, B in params.lower)),
                        ("lower", tuple((1.0 - a, A) for a, A in params.upper))):
        object.__setattr__(sw, name, value)
    _build_tables(sw)
    object.__setattr__(sw, "_swap", _mirrored(sw, sw) if back is None else back)
    return sw


def _violations(params):
    """Why a block defines no H-function, as messages (none when it does):
    orders out of range, a non-finite pair or arg_scale, a scale A_j or
    B_j not positive, or a left pole on a right pole.  The coincidence
    scan takes each left family's poles in [right_min, left_max], at most
    _POLE_CAP of them, and finds the right families with a pole there by
    one gammaln_sign call (sign 0, the test of _residues' clash); it
    reports the first coincidence and the count for each family pair."""
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
    if v or m == 0 or n == 0:
        return v
    left_max, right_min = params._strip
    if left_max < right_min - COINCIDENCE_TOL:
        return v
    c, d, _ = params._factors
    # poles k of left family fam[k] at s[k] >= right_min - 1e-9
    ks = [np.arange(min(max(0, math.floor((1e-9 - right_min) * d[j] - c[j]) + 1),
                        _POLE_CAP)) for j in range(m)]
    fam = np.repeat(np.arange(m), [k.size for k in ks])
    s = -(c[fam] + np.concatenate(ks)) / d[fam]
    _, sign = gammaln_sign(c[m:m + n, None] + d[m:m + n, None] * s)
    for j in range(m):
        hits = [np.flatnonzero((fam == j) & (sign[i] == 0.0)) for i in range(n)]
        # right families in the order of their first coincidence
        for i in sorted((i for i in range(n) if hits[i].size), key=lambda i: hits[i][0]):
            left = float(s[hits[i][0]])
            k = -np.rint(c[m + i] + d[m + i] * left)   # the right pole's index
            v.append(f"left pole {left} coincides with right pole "
                     f"{float(-(c[m + i] + k) / d[m + i])} "
                     f"(first of {hits[i].size} in lower[{j}] x upper[{i}])")
    return v


def _mu_log_rho(params):
    """(mu, log rho): mu = sum(B) - sum(A) and rho = prod B^B / prod A^A,
    each row of _factors adding e d and e d log|d|."""
    _, d, e = params._factors
    return float(np.sum(e * d)), float(np.sum(e * d * np.log(np.abs(d))))


def _radius(params):
    """Where the left residue series converges: inf when mu > 0, 0.0
    when mu < 0, rho when mu == 0 (_mu_log_rho)."""
    mu, log_rho = _mu_log_rho(params)
    if mu > COINCIDENCE_TOL:
        return math.inf
    if mu < -COINCIDENCE_TOL:
        return 0.0
    return math.exp(log_rho)


# --- residue series -------------------------------------------------------

def _residues(params, terms):
    """(power, logabs, sign, clash) of the first `terms` poles of each left
    family (rows j < m of _factors): pole k of family j sits at s =
    -power[j, k], with residue sign * exp(logabs + power log w) of h(s)
    w^{-s}; sign = 0 where a reciprocal gamma vanishes.  clash[j] is the
    first k where another numerator gamma has a pole too, or `terms`.
    Each entry depends on k alone, so the horizons of _series_core (32,
    64, ..., _MAX_TERMS terms) read heads of one table."""
    m = params.m
    c, d, e = params._factors
    ks = np.arange(terms)
    power = (c[:m, None] + ks) / d[:m, None]
    logabs = np.array([-_LOG_FACT[:terms] - math.log(B) for B in d[:m]]).reshape(m, terms)
    sign = np.tile((-1.0) ** ks, (m, 1))
    clash = np.full(m, terms)
    with np.errstate(invalid="ignore"):
        for j in range(m):
            rest = np.arange(len(c)) != j
            la, sg = gammaln_sign(c[rest, None] + d[rest, None] * -power[j])
            for la_i, sg_i, e_i in zip(la, sg, e[rest]):
                logabs[j] = logabs[j] + la_i if e_i > 0 else logabs[j] - la_i
                sign[j] *= sg_i
                if e_i > 0 and not np.all(sg_i):
                    clash[j] = min(clash[j], int(np.argmin(sg_i != 0.0)))
    return power, logabs, sign, clash


def _partial_sums(power, logabs, sign, logw):
    """One horizon of _series_core, a K-term residue table (K > 4) at the
    log arguments logw (1-d) as one (k, w) array: (values, err_ests,
    done), nan and inf where the stopping rule does not fire before K;
    done also marks a sum that is not finite at K."""
    term = np.zeros((power.shape[1], logw.size))
    size = np.zeros_like(term)   # sum_j |residue_j|: what rounds in term k
    for j in range(len(power)):
        x = sign[j, :, None] * np.exp(power[j, :, None] * logw + logabs[j, :, None])
        x = np.where(sign[j, :, None] != 0.0, x, 0.0)   # a zero residue adds nothing
        term += x
        size += np.abs(x)
    mag, run = np.abs(term), np.cumsum(term, axis=0)   # s_k = s_{k-1} + t_k
    small = mag < _SERIES_TOL * np.maximum(1.0, np.abs(run))
    # row i is term k = i + 4, under the stopping rule of _series_core
    stop = np.isfinite(run[4:]) & small[4:] & small[3:-1] & small[2:-2]
    prev = np.zeros(stop.shape)
    for t in (mag[i:i + len(stop)] for i in range(5)):
        stop &= ~((t > 0.0) & (prev > 0.0) & ~(t / prev < 0.9))
        prev = np.where(t > 0.0, t, prev)
    stopped, cols = stop.any(axis=0), np.arange(logw.size)
    at = 4 + np.argmax(stop, axis=0)   # the term each one stops at
    # two families' poles that nearly meet cancel inside one term, so the
    # kernel's rounding is read from their sizes, not from their sum
    top = np.maximum.accumulate(size, axis=0)[at, cols]
    vals = np.where(stopped, run[at, cols], np.nan)
    errs = np.where(stopped, mag[at, cols] * (0.9 / 0.1) + LANCZOS_REL_ACC * top, np.inf)
    return vals, errs, stopped | ~np.isfinite(run[-1])


def _series_core(params, w):
    """Left-pole residue series at scaled arguments w (positive ndarray):
    (values, err_ests), the terms read from _residues.  The series
    converges in exact arithmetic, but at large w its alternating terms
    may overflow or cancel first.  Each element stops on its own terms,
    as its one-element call would: at term k >= 4, when its last three
    terms are each under _SERIES_TOL times max(1, |sum|) and every
    positive one of its last five is under 0.9 times the positive one
    before.  err_est is 9 times that last term (the tail) plus
    LANCZOS_REL_ACC times the largest sum_j |residue_j| of a term, the
    gamma kernel's relative accuracy in each residue.  The open elements
    are summed from k = 0 to a horizon of 32 terms, then afresh to 64,
    128, 256 and _MAX_TERMS terms; nothing is carried from one horizon
    to the next.  An element comes back nan with err_est inf when its
    sum goes non-finite, reaches a clash of _residues or runs out of
    terms before it stops, and every element does when m = 0.
    """
    w = np.asarray(w, dtype=float)
    vals, errs = np.full_like(w, np.nan), np.full_like(w, np.inf)
    if params.m == 0:
        return vals, errs
    todo, logw = np.arange(w.size), np.log(w)
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        for horizon in (32, 64, 128, 256, _MAX_TERMS):
            power, logabs, sign, clash = _residues(params, horizon)
            terms = int(clash.min())
            if terms <= 4:   # nothing stops before term 4
                break
            # (k, w) arrays of at most BLOCK elements
            done, cols = np.zeros(todo.size, dtype=bool), BLOCK // terms
            for k in range(0, todo.size, cols):
                at = todo[k:k + cols]
                vals[at], errs[at], done[k:k + cols] = _partial_sums(
                    power[:, :terms], logabs[:, :terms], sign[:, :terms], logw[at])
            todo = todo[~done]
            if terms < horizon or not todo.size:
                break
    return vals, errs


# --- contour --------------------------------------------------------------

def _log_h_real(params, s):
    """(log|h(s)|, sign of h(s)) at real s (scalar or 1-d), one
    gammaln_sign call over the factor table.  Where any gamma argument
    sits on a pole the pair is (inf, 0.0)."""
    c, d, e = params._factors
    la, sg = gammaln_sign(c + d * np.asarray(s, dtype=float)[..., None])
    sign = np.prod(sg, axis=-1)
    with np.errstate(invalid="ignore"):
        logabs = np.sum(np.where(e > 0, la, -la), axis=-1)
    return np.where(sign != 0.0, logabs, np.inf), sign


def _contour_position(params, w):
    """(c, passed, top) for each scaled argument w (1-d) of a block with
    left poles: the rung c = left_max + 0.5, 1, 2, ..., 512 that minimizes
    the larger of the t = 0 amplitude |h(c)| w^{-c} and the largest
    residue at the right poles left of c; passed is the sum of those
    residues and top the largest, the first terms of params._swap's
    series at 1/w.  A rung where h is 0, infinite or nan, or that passes
    a double pole or the table's end, is never taken; ties go to the
    first rung, which is also taken (with passed nan) when none is usable.

    The residue table may hold the poles up to the last rung where h is
    finite, but it starts at _LADDER_TERMS poles per family and doubles
    only while some argument's best rung so far could still lose to a
    rung the table does not answer.  Such a rung lies past the table's
    end and passes at least the table's poles left of that end, so its
    score is at least the larger of its own amplitude and their largest
    residue; once that is no smaller than the best rung's score for
    every argument, the table stops.  A rung inside the table reads the
    same poles in the same order at any size, so the choice and both
    sums are those of the whole table, bit for bit."""
    c = params._strip[0] + 2.0 ** np.arange(-1, 10)
    logh, logw, n, swapped = _log_h_real(params, c)[0], np.log(w), params.n, params._swap
    # the whole table holds the poles left of the last rung where h is
    # finite; none is passed at or beyond its first double pole or its end
    cs, ds, _ = swapped._factors
    reach = c[np.max(np.flatnonzero(logh < math.inf), initial=0)]
    whole = min(_MAX_TERMS, max(0, math.floor(np.max(reach * ds[:n] - cs[:n], initial=-1)) + 1))
    at, terms = np.arange(w.size), min(whole, _LADDER_TERMS)
    with np.errstate(over="ignore", invalid="ignore"):
        amp = logh - logw[:, None] * c   # inf where h = 0
        while True:
            big, tot, beyond, limit = _passed_residues(swapped, terms, c, logw)
            f = np.maximum(amp, big.T)
            f = np.where(f < math.inf, f, math.inf)   # nan: never taken
            best = np.argmin(f, axis=1)
            bound = f[at, best]
            # the least score a rung past the table's limit can have
            least = np.min(np.maximum(amp[:, c >= limit], beyond[:, None]), axis=1,
                           initial=math.inf)
            if terms == whole or np.all((bound < math.inf) & (least >= bound)):
                return c[best], tot[best, at], np.exp(big[best, at])
            terms = min(whole, 2 * terms)


def _passed_residues(swapped, terms, c, logw):
    """The right poles of _contour_position from the first `terms` poles
    of each left family of swapped: (big, tot, beyond, limit), big and tot
    (rung x argument) the log of the largest residue each rung passes and
    their sum (inf and nan for a rung at or past limit, the table's first
    double pole or end), beyond the log of the largest residue left of
    the table's end, which every rung past that end passes too (-inf
    without a table)."""
    n = swapped.m
    big, tot = np.full((c.size, logw.size), -np.inf), np.zeros((c.size, logw.size))
    beyond, limit = np.full(logw.size, -np.inf), math.inf
    if terms:
        cs, ds, _ = swapped._factors
        power, logabs, sign, clash = _residues(swapped, terms)
        limit = np.min((cs[:n] + clash) / ds[:n])
        live = sign != 0.0   # a vanishing residue adds nothing
        order = np.argsort(power[live], kind="stable")
        # poles left of each rung, and left of the table's end
        count = np.searchsorted(power[live][order], np.append(c, np.min((cs[:n] + terms) / ds[:n])))
        # the running max and sum over the poles in order (row 0: none passed)
        power, logabs, sign = (np.append(v, a[live][order]) for v, a in
                               ((0.0, power), (-math.inf, logabs), (0.0, sign)))
        cols = max(1, BLOCK // power.size)
        for k in range(0, logw.size, cols):
            x = logabs[:, None] - power[:, None] * logw[k:k + cols]
            run = np.maximum.accumulate(x)[count]
            big[:, k:k + cols], beyond[k:k + cols] = run[:-1], run[-1]
            tot[:, k:k + cols] = np.cumsum(sign[:, None] * np.exp(x), axis=0)[count[:-1]]
    big[c >= limit], tot[c >= limit] = math.inf, math.nan
    return big, tot, beyond, limit


def _log_h(params, s):
    """log h(s) on a complex array; branch choice is irrelevant because
    the value is only ever exponentiated.  One gamma pass per distinct
    (c, d) row of the factor table, gathered back to every row before the
    sum, so a repeated row costs nothing and the sum is that of the whole
    table, bit for bit (a numerator and a denominator row that cancel are
    still both summed)."""
    e, (c, d, index) = params._factors[2], params._distinct
    s = np.asarray(s, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = loggamma(c[:, None] + d[:, None] * s.reshape(1, -1))
        if index is not None:
            lg = lg[index]
        return np.sum(np.where(e[:, None] > 0, lg, -lg), axis=0).reshape(s.shape)


def _line_size(count, h):
    """ceil(count), the nodes of step h on one contour line; QuadFailure
    past _MAX_NODES, before they are allocated."""
    if not count <= _MAX_NODES:
        raise QuadFailure(f"contour line of {count:.6g} nodes of step {h:.6g} "
                          f"past the bound of {_MAX_NODES}")
    return math.ceil(count)


def _contour(params, w, quad):
    """Mellin-Barnes line integrals at the scaled arguments w (1-d):
    (values, err_ests), err_est inf where the quadrature did not settle.
    The trapezoid rule of the module docstring on each line of
    _contour_position.  t_max is the first of nine doublings where |h| is
    TAIL_CUTOFF e^-5 below its t = 0 value; h halves, at most 10 times,
    until every argument on the line has |T_h - T_2h| <= max(abs_tol,
    rel_tol |T_h|) or is down to its own rounding term, which no finer h
    improves (such an argument keeps err_est inf).  Level 0 never stops a
    line, so the t = 0 node, the nine t_max probes and the nodes of
    levels 0 and 1 up to the first probe are taken in one _log_h call (in
    blocks within BLOCK elements); a line that reaches past the first
    probe takes its levels 0 and 1 again, and each later level its own
    blocks.  Every level sums its nodes in its own order and blocks.  A
    line of more than _MAX_NODES nodes at any level raises QuadFailure.
    The passed residues are added back, with LANCZOS_REL_ACC times the
    largest in err_est.  A block with no left poles (m = 0) is taken as
    params._swap at 1/w, so every line lies right of the left poles of
    its own block.
    """
    if params.m == 0:
        return _contour(params._swap, 1.0 / w, quad)
    _, d, e = params._factors
    delta = float(np.sum(e * np.abs(d)))
    if delta <= 0:
        raise QuadFailure(f"contour integrand does not decay (delta = {delta})")
    (cpos, passed, top), logw = _contour_position(params, w), np.log(w)
    vals, errs = np.full_like(w, np.nan), np.full_like(w, np.inf)
    cut = math.log(TAIL_CUTOFF) - 5.0
    for c in sorted(set(cpos.tolist())):
        on = cpos == c
        lw = logw[on, None]
        reach = float(np.max(np.abs(lw)))
        t_max = 2.0 ** np.arange(9) * max(8.0, 2.0 * (reach - cut) / (math.pi * delta))
        h = min(0.5, 1.0 / (1.0 + reach))
        # node blocks: each temporary within BLOCK elements, or one column
        cols = max(1, BLOCK // max(lw.size, len(params.upper + params.lower)))

        def log_h(t):   # log h at the nodes t of this line, block by block
            return np.concatenate([_log_h(params, c + 1j * t[k:k + cols])
                                   for k in range(0, t.size, cols)])

        def levels01(n):   # the nodes of levels 0 and 1 up to n h
            return np.concatenate((h * np.arange(1, n + 1, 1), (0.5 * h) * np.arange(1, 2 * n + 1, 2)))

        n = _line_size(t_max[0] / h, h)
        lh = log_h(np.concatenate(([0.0], t_max, levels01(n))))
        lh0, settled, nodes = complex(lh[0]), lh[1:10].real - lh[0].real <= cut, lh[10:]
        if not np.any(settled):
            continue
        if not settled[0]:   # the line reaches past the first probe
            n = _line_size(t_max[np.argmax(settled)] / h, h)
            nodes = log_h(levels01(n))
        step = 1
        scale = lh0.real - c * lw   # each row sums in units of its t = 0 amplitude
        tot = 0.5 * math.cos(lh0.imag)   # the t = 0 node, weight 1/2: sign of h(c)
        mag = 0.5 * (1.0 + np.abs(lh0 - c * lw[:, 0]))
        for level in range(11):
            if level:   # halve h: the new nodes are the odd multiples
                h, n, step = 0.5 * h, _line_size(2 * n, 0.5 * h), 2
            t, coarse = h * np.arange(1, n + 1, step), 2.0 * h * tot
            taken = nodes[level * t.size:(level + 1) * t.size]   # levels 0 and 1
            for k in range(0, t.size, cols):
                lh = taken[k:k + cols] if level < 2 else _log_h(params, c + 1j * t[k:k + cols])
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
    return vals + passed, errs + LANCZOS_REL_ACC * top


def eval_contour(params, z, quad=QuadSpec()):
    """Mellin-Barnes line integrals of H[arg_scale * z] at z of any shape:
    (values, err_ests) in z's shape, from one _contour call.  ValueError
    names the first z that is not finite and positive, QuadFailure the
    first w = arg_scale * z where the contour did not settle."""
    z = np.asarray(z, dtype=float)
    good = np.isfinite(z) & (z > 0)
    if not np.all(good):
        raise ValueError(f"arguments must be finite and positive, got {z[~good][0]}")
    w = params.arg_scale * z.reshape(-1)
    vals, errs = _contour(params, w, quad)
    lost = np.flatnonzero(~np.isfinite(errs))
    if lost.size:
        raise QuadFailure(f"contour did not settle at w = {w[lost[0]]:.6g}")
    return vals.reshape(z.shape), errs.reshape(z.shape)


def eval_auto(params, z, quad=QuadSpec()):
    """The one H-value dispatcher: (values, err_ests, from_series) in z's
    shape.  The direct series serves scaled arguments w = arg_scale * z
    inside 0.8 of the series radius (_radius), the inversion identity (the
    swapped block at 1/w) those beyond 1.25 of it; a series value stands
    when finite with err_est <= max(5e-14, 1e-8 |value|).  Every other
    argument goes to one eval_contour call, which refuses a z that is not
    finite and positive and a w where the contour does not settle.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    w = params.arg_scale * flat
    good = np.isfinite(flat) & (flat > 0)   # eval_contour refuses the rest
    radius = _radius(params)
    vals, errs = np.full_like(w, np.nan), np.full_like(w, np.inf)
    for block, inverse, band in ((params, False, w <= 0.8 * radius),
                                 (params._swap, True, w >= 1.25 * radius)):
        idx = np.flatnonzero(good & band)
        if idx.size:
            arg = 1.0 / w[idx] if inverse else w[idx]
            vals[idx], errs[idx] = _series_core(block, arg)
    series = np.isfinite(vals) & (errs <= np.maximum(5e-14, 1e-8 * np.abs(vals)))
    if not np.all(series):
        vals[~series], errs[~series] = eval_contour(params, flat[~series], quad)
    return vals.reshape(z.shape), errs.reshape(z.shape), series.reshape(z.shape)


# --- Mellin transform -----------------------------------------------------

def mellin(params, s):
    """Closed-form Mellin transform integral_0^inf z^{s-1} H[a z] dz at s
    of any shape, in s's shape, from one _log_h_real call.

    Equals a^{-s} h(s) inside the fundamental strip, where every
    numerator gamma argument is positive (by more than the gamma kernel's
    pole tolerance), so h(s) is finite there and 0 where a reciprocal
    gamma vanishes.  OutOfStrip names the first s outside the strip.
    """
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1)
    c, d, e = params._factors
    inside = np.min(c[e > 0] + d[e > 0] * flat[:, None], axis=1) >= _POLE_TOL
    if not np.all(inside):
        raise OutOfStrip(f"s = {float(flat[np.argmin(inside)])} outside the fundamental "
                         f"strip {params._strip}")
    logabs, sign = _log_h_real(params, flat)
    return np.array([float(sg) * math.exp(float(la) - x * math.log(params.arg_scale))
                     if sg else 0.0
                     for la, sg, x in zip(logabs, sign, flat.tolist())]).reshape(s.shape)


def _grid_end(params, s, side):
    """(t, lead, rate) at the w -> 0 end of mellin_numeric_check's grid
    (block with arg_scale 1, s 1-d): beyond t = log w the integrand is
    sum_i lead[i] e^(rate[:, i] t), one term per leading simple pole.

    With left poles, the table holds the first _MELLIN_POLES poles of each
    family.  The leading poles are all its poles, across families in
    order, short of the first clash of _residues or the last pole of a
    family, whichever comes first; lead holds their nonzero residues and
    rate = s + (-pole).  t is where every other pole of the table has a
    term at most e^_MELLIN_CUT times that of the first leading pole with a
    nonzero residue, so the cut reads residue ratios, not the pole gap
    alone (a double pole's term is taken with a residue ratio of 1), and
    at most 0.  A leading pole that is not simple raises QuadFailure.
    With none, H(w) is params._swap at w' = 1/w, under Braaksma's bound
    w'^theta exp(-mu (w'/rho)^(1/mu)), rho = prod B^B / prod A^A (Kilbas &
    Saigo, H-Transforms, 2004, ch. 1); t is where that times w^s is under
    e^(_MELLIN_CUT - 10), the margin for its constant factor, and lead is
    empty."""
    if params.m:
        power, logabs, sign, clash = _residues(params, _MELLIN_POLES)
        j = int(np.argmin(power[:, 0]))
        if clash[j] == 0:
            raise QuadFailure(f"s = {s.tolist()}: the pole at the {side} edge "
                              f"{-power[j, 0] + 0.0:.6g} of the strip is not simple")
        rows, last = np.arange(len(power)), np.minimum(clash, _MELLIN_POLES - 1)
        limit, live = np.min(power[rows, last]), sign != 0.0
        taken = (power < limit) & live
        if not taken.any():
            raise QuadFailure(f"s = {s.tolist()}: no residue short of the {side} "
                              f"pole {limit + 0.0:.6g}")
        first = np.argmin(np.where(taken, power, np.inf))
        # the other poles of the table: a simple one by its residue, a
        # double one (a clash) by the gap alone
        other = (power >= limit) & (np.arange(_MELLIN_POLES) < clash[:, None]) & live
        double = clash < _MELLIN_POLES
        gap = np.append(power[other], power[rows, last][double]) - power.flat[first]
        ratio = np.append(logabs[other] - logabs.flat[first], np.zeros(np.sum(double)))
        t = float(np.min((_MELLIN_CUT - ratio) / gap, initial=0.0))
        return t, sign[taken] * np.exp(logabs[taken]), s[:, None] + power[taken]
    sw = params._swap
    mu, log_rho = _mu_log_rho(sw)
    if not mu > 0:
        raise QuadFailure(f"no {side} pole family and no exponential decay (mu = {mu})")
    sig = ((sum(b for b, _ in sw.lower) - sum(a for a, _ in sw.upper)
            + (sw.p - sw.q + 1) / 2.0) / mu - float(np.min(s)))   # theta + max(-s)
    t = max(0.0, mu * math.log(sig) + log_rho) if sig > 0 else 0.0   # the bound's peak
    while sig * t - mu * math.exp((t - log_rho) / mu) > _MELLIN_CUT - 10.0:
        t += _MELLIN_STEP
    return -t, np.zeros(0), np.zeros((s.size, 0))


def mellin_numeric_check(params, svals, quad=QuadSpec()):
    """Quadrature cross-check of the closed-form Mellin transform: one
    MellinCheck per s in svals.

    int_0^inf z^(s-1) H[a z] dz = a^-s int e^(s t) H(e^t) dt by the
    trapezoid rule on t = k _MELLIN_STEP, with H for every s from one
    eval_auto call, so this exercises the whole engine.  Beyond each end
    of the grid (_grid_end; the right end on params._swap) the sum is
    the residue series of the leading poles, each term a geometric series
    taken in closed form, so the grid does not depend on how close s is
    to a strip edge and ends where the first omitted residue is
    negligible.  The analytic values are from one mellin call over all
    s; the first s outside the strip raises OutOfStrip.
    quad_err is |T_h - T_2h| plus the engine's err_est summed by the rule.
    |T_h - T_2h| is the error of the step-2h sum.  The trapezoid rule
    converges geometrically, so the returned step-h sum's relative error
    is about the square of the 2h sum's, and quad_err overstates it by
    orders of magnitude where the 2h sum is far from converged.
    """
    s = np.array(svals, dtype=float).reshape(-1)
    analytic = mellin(params, s).tolist()
    base = params if params.arg_scale == 1.0 else replace(params, arg_scale=1.0)
    h = _MELLIN_STEP
    ends = (_grid_end(base, s, "left"), _grid_end(base._swap, -s, "right"))
    lo, hi = ends[0][0], -ends[1][0]
    if not max(-lo, hi) < 700.0:
        raise QuadFailure(f"s = {s.tolist()}: the grid [{lo:.6g}, {hi:.6g}] in log w "
                          "leaves the double range")
    # both ends on even k, so the T_2h nodes are every other node
    t = h * np.arange(2 * math.floor(lo / (2 * h)), 2 * math.ceil(hi / (2 * h)) + 1)
    vals, errs, _ = eval_auto(base, np.exp(t), quad)
    y, sums = np.exp(np.outer(s, t)), []
    for k in (1, 2):   # T_h and T_2h, each with its closed-form tails
        tails = sum(np.sum(lead * np.exp(rate * end) / np.expm1(rate * k * h), axis=1)
                    for (_, lead, rate), end in zip(ends, (t[0], -t[-1])))
        sums.append(k * h * (y[:, ::k] @ vals[::k] + tails))
    scale = params.arg_scale ** -s
    numeric, quad_err = scale * sums[0], scale * (np.abs(sums[0] - sums[1]) + h * (y @ errs))
    return [MellinCheck(analytic=a, numeric=float(v), rel_err=abs(v - a) / max(abs(a), 1e-300),
                        quad_err=float(q)) for a, v, q in zip(analytic, numeric, quad_err)]


# --- parameter algebra ----------------------------------------------------

def rescale_power(params, mu):
    """Argument-power identity: H[a z^mu | params] = (1/mu) H[a^{1/mu} z | out].

    Purely symbolic: every A_j and B_j is divided by mu and the scale is
    re-expressed; returns (new_params, multiplier).
    """
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
    if not k > 0:
        raise ValueError(f"transform frequency must be positive, got {k!r}")
    if not mu > 0:
        raise ValueError(f"argument power must be positive, got {mu!r}")
    # min(b/B) = -left_max and max((a-1)/A) = -right_min; an empty family
    # leaves an infinite edge, which passes its test
    left_max, right_min = params._strip
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
        lead -= mu * params._strip[0]

    def envelope(p):
        return p ** (s - 1.0) * eval_auto(params, p ** mu, quad)[0]

    lhs, _ = integrate_oscillatory(envelope, k, singularity_power=lead)

    reduced = reduce_fully(ct.params)
    rhs = ct.multiplier * float(eval_auto(reduced, ct.argument, quad)[0])
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    passed = rel <= 1e-6
    return CosineTransformCheck(lhs=lhs, rhs=rhs, rel_err=rel, passed=passed,
                                transform=replace(ct, verified=passed))
