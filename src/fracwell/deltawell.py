"""Spectral problem of a delta well in fractional-dimensional space.

The Hamiltonian combines a Riesz-type kinetic term D_alpha |p|^alpha
(1 < alpha <= 2) with an attractive point interaction -gamma
delta^lam(x) acting against the lam-dimensional measure of
fracwell.measure.  The well supports a single bound state E < 0
whenever 0 < lam < alpha; with lam <= 1 and alpha > 1 that window is
automatic, but it is asserted anyway because out-of-range lam inputs
must fail loudly before any quadrature runs.

Two independent energy routes are provided.  energy_closed_form
evaluates the analytic eigenvalue obtained by pushing the bound-state
condition through the gamma-function integral identity; energy_oracle
solves the same condition numerically (split quadrature plus an ITP
root search in log|E|) and shares no code with the closed form beyond
the gamma kernel.  The acceptance suite treats the oracle as the arbiter.

Note on the closed form: source texts for this eigenvalue print the
exponent (alpha-lam)/alpha and a pi^lam power, which contradicts the
classical alpha=2, lam=1 limit -m gamma^2/(2 hbar^2) with m = 1/(2 D).
Rederiving the condition gives exponent alpha/(alpha-lam) and
pi^(lam/2); that form passes both the classical limit and the oracle,
so it is the one implemented.  The discrepancy is documented here
rather than silently absorbed.

The momentum profile is an explicit rational expression.  Its cosine
transform, the position profile, is phi(x) = P I(kappa|x|), with
I(y) = int_0^inf cos(qy) q^(lam-1) / (1 + q^alpha) dq and one prefactor
P holding the amplitude.  I has two routes, each a function of y >= 0
returning (value, err_est): _profile_quadrature integrates it (the
independent reference), _profile_hfox evaluates its exact Fox
H-function form (_profile_block).  The wavefunction command calls the H
route verified when every row it prints agrees within SHAPE_TOL plus
both err_ests.  The source texts reduce that form to
H^{1,0}_{0,1}[kappa|x|] = exp(-kappa|x|), true only at alpha=2, lam=1;
over 0.25 to 4 decay lengths its shape is off by 0.80 at
(alpha, lam) = (1.5, 0.8) and 0.96 at (1.2, 0.3).

Stationary states carry a free phase and the source derivation never
fixes the overall constant, so the convention here is phi(0) > 0 with
magnitude set by normalize() against the lam-measure.  Energies and
lengths are dimensionless program units.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .gammafn import gammaln_sign
from .hfox import HFoxParams, _evaluate
from .measure import MeasureDim, integrate as measure_integrate
from .quadrature import (NumericalFailure, QuadSpec, QuadFailure,
                         integrate_adaptive, integrate_oscillatory, root_itp)

__all__ = ["SHAPE_TOL", "DomainError", "BracketFailure", "PotentialConfig",
           "BoundState", "energy_closed_form", "energy_oracle",
           "momentum_wavefunction", "position_wavefunction_quadrature",
           "position_wavefunction_hfox", "normalize"]

# largest relative gap between the two position routes, beyond their
# summed err_est, at which a printed row counts the H route as verified
SHAPE_TOL = 1e-4


class DomainError(Exception):
    """Physical parameters outside the admissible window."""


class BracketFailure(NumericalFailure):
    """The energy root lies outside the double range of |E|."""


@dataclass(frozen=True)
class PotentialConfig:
    """Well parameters: kinetic exponent alpha, coefficient d_alpha,
    well depth gamma_strength, hbar, and measure dimension lam."""

    alpha: float
    d_alpha: float = 1.0
    gamma_strength: float = 1.0
    hbar: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        a = float(self.alpha)
        lam = float(self.lam)
        if not 1.0 < a <= 2.0:
            raise DomainError(f"alpha must satisfy 1 < alpha <= 2, got {a}")
        for name in ("d_alpha", "gamma_strength", "hbar"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        # existence window of the bound-state integral; redundant for
        # lam <= 1 < alpha but out-of-range lam must still die here,
        # before any quadrature is attempted
        if lam >= a:
            raise DomainError(
                f"bound state exists only in the window 0 < lam < alpha; "
                f"got lam={lam}, alpha={a}")
        if not 0.0 < lam <= 1.0:
            raise DomainError(f"lam must lie in (0, 1], got {lam}")

    @property
    def dim(self):
        return MeasureDim(self.lam)

    @property
    def measure_norm(self):
        """Surface factor 2 pi^(lam/2) / Gamma(lam/2) of the measure."""
        return 2.0 * self.dim.weight_norm


@dataclass(frozen=True)
class BoundState:
    """Single bound level: energy E < 0, position decay scale kappa
    with kappa^alpha * d_alpha * hbar^alpha = |E|, and the free
    normalization amplitude (> 0, fixed by normalize())."""

    energy: float
    kappa: float
    amplitude: float = 1.0
    provenance: str = "closed_form"

    def __post_init__(self):
        if not self.energy < 0:
            raise DomainError(f"bound energy must be negative, got {self.energy}")
        if not (math.isfinite(self.energy) and math.isfinite(self.kappa)):
            raise OverflowError(
                f"bound state out of double range: energy={self.energy}, "
                f"kappa={self.kappa}")
        if not (self.kappa > 0 and self.amplitude > 0):
            raise DomainError("kappa and amplitude must be positive")
        if self.provenance not in ("closed_form", "oracle"):
            raise DomainError(f"unknown provenance {self.provenance!r}")


# log range in which |E| (and kappa) is a normal double
_LOG_E_MIN = -708.0
_LOG_E_MAX = 709.0
# width in log|E| to which energy_oracle's ITP step closes its bracket
_LOG_E_TOL = 1e-12


def _kappa(cfg, abs_e):
    """kappa = (|E| / D)^(1/alpha) / hbar, formed in logs so that no power
    of D or hbar over- or underflows on the way."""
    log_kappa = ((math.log(abs_e) - math.log(cfg.d_alpha)) / cfg.alpha
                 - math.log(cfg.hbar))
    if not _LOG_E_MIN <= log_kappa <= _LOG_E_MAX:
        raise OverflowError(
            f"decay scale out of double range: log kappa = {log_kappa:.6g}")
    return math.exp(log_kappa)


def energy_closed_form(cfg):
    """Analytic bound-state energy.

    E = -[ gamma G(lam/alpha) G(1-lam/alpha) 2^(1-lam)
           / (pi^(lam/2) hbar^lam G(lam/2) alpha D^(lam/alpha)) ]^(alpha/(alpha-lam))

    (see the module docstring for why the exponent and pi power differ
    from some printed forms of this result).  The bracket and its power
    are formed as logs term by term, so nothing over- or underflows on
    the way; OverflowError means |E| itself lies outside the double
    range.
    """
    a, lam = cfg.alpha, cfg.lam
    # the three gammas in one kernel call; every argument is positive
    lg = gammaln_sign(np.array([lam / a, 1.0 - lam / a, 0.5 * lam]))[0].tolist()
    log_bracket = (math.log(cfg.gamma_strength)
                   + lg[0] + lg[1]
                   + (1.0 - lam) * math.log(2.0)
                   - 0.5 * lam * math.log(math.pi) - lam * math.log(cfg.hbar)
                   - lg[2] - math.log(a)
                   - (lam / a) * math.log(cfg.d_alpha))
    log_e = log_bracket * (a / (a - lam))
    if not _LOG_E_MIN <= log_e <= _LOG_E_MAX:
        raise OverflowError(
            f"closed-form energy out of double range: log|E| = {log_e:.6g}")
    abs_e = math.exp(log_e)
    return BoundState(energy=-abs_e, kappa=_kappa(cfg, abs_e),
                      provenance="closed_form")


def _radial_integral(cfg, abs_e, spec):
    """int_0^inf p^(lam-1) / (D p^alpha + |E|) dp, split at the knee.

    Below p0 = (|E|/D)^(1/alpha) the substitution u = p^lam absorbs the
    endpoint power; above it v = p^(lam-alpha) turns the algebraic tail
    into a bounded integral on [0, p0^(lam-alpha)].  Both pieces are
    O(1)-scaled for any |E|, which keeps the bracket search stable over
    many decades.
    """
    a, lam, d = cfg.alpha, cfg.lam, cfg.d_alpha
    p0 = (abs_e / d) ** (1.0 / a)
    # the pieces end at p0^lam and p0^(lam-alpha); a power that overflows
    # raises OverflowError itself
    ends = (p0 ** lam, p0 ** (lam - a)) if 0.0 < p0 < math.inf else (0.0,)
    if not min(ends) > 0.0:
        raise OverflowError(
            f"radial integral knee out of double range: (|E|/D)^(1/alpha) = {p0:.6g}")

    def head(u):
        return 1.0 / (d * np.power(u, a / lam) + abs_e)

    def tail(v):
        return 1.0 / (d + abs_e * np.power(v, a / (a - lam)))

    i1, e1 = integrate_adaptive(head, 0.0, ends[0], spec)
    i2, e2 = integrate_adaptive(tail, 0.0, ends[1], spec)
    return i1 / lam + i2 / (a - lam), e1 / lam + e2 / (a - lam)


def energy_oracle(cfg, spec=QuadSpec()):
    """Bound-state energy with no closed-form input.

    The defining condition is
    (2 pi^(lam/2)/Gamma(lam/2)) int_0^inf p^(lam-1)/(D p^alpha + |E|) dp
    = (2 pi hbar)^lam / gamma.  With t = log|E| it reads
    h(t) = log(lhs) - log(rhs) = 0, where h is strictly decreasing and
    close to linear.  The search for a bracket starts with a unit step
    from t = 0.  From then on it holds two points on the same side of
    the root and steps to the root of their secant, overshot in the
    search direction by tol/8 step, where tol = 1e-12 is ITP's bracket
    width and step = 2, 4, 8, ... doubles each round; where the secant
    would not move forward (h not finite or not decreasing between the
    two points) it takes the step itself.  On a linear h the first
    secant point lies tol/4 past the root, within ITP's minimum step
    tol/2 of the new bracket end, so ITP's first point crosses the root
    and closes the bracket: three h evaluations for the search and one
    for ITP.  A root that rounding in h puts beyond the overshoot costs
    one more round, whose two points are about tol apart.  A wider
    overshoot would leave the root that close to one end of a wide
    bracket instead, where ITP's first point can fall short of it.  The
    doubling overshoot bounds the rounds on any h.  ITP refines the
    bracket to tol wide in t, i.e. 1e-12 relative precision in |E|.
    BracketFailure means the root lies beyond the double range of |E|
    or of |E|/D.
    """
    # log(rhs / nm), taken term by term so no power over- or underflows
    log_target = (cfg.lam * math.log(2.0 * math.pi * cfg.hbar)
                  - math.log(cfg.gamma_strength) - math.log(cfg.measure_norm))

    def h(t):
        val, _ = _radial_integral(cfg, math.exp(t), spec)
        # an integral that underflows to 0 lies far below the target
        return math.log(val) - log_target if val > 0 else -math.inf

    t, ht = 0.0, h(0.0)
    rising = ht > 0          # lhs still too large: the root lies above t
    # the search stays where |E| and |E|/D are normal doubles: beyond,
    # the knee (|E|/D)^(1/alpha) of _radial_integral over- or underflows
    # and h changes sign where there is no root
    log_d = math.log(cfg.d_alpha)
    edge = (min(_LOG_E_MAX, _LOG_E_MAX + log_d) if rising
            else max(_LOG_E_MIN, _LOG_E_MIN + log_d))
    sign = 1.0 if rising else -1.0
    step = 1.0
    prev_t, prev_h = t, ht
    while ht != 0.0 and (ht > 0) == rising:
        if t == edge:
            raise BracketFailure(
                f"spectral condition keeps one sign out to |E| = e^{edge:g}")
        slope = (ht - prev_h) / (t - prev_t) if t != prev_t else math.nan
        prev_t, prev_h = t, ht
        if slope < 0 and math.isfinite(slope):
            # the secant's root lies ahead: step just past it
            t = t - ht / slope + sign * 0.125 * _LOG_E_TOL * step
        else:
            t = t + sign * step
        t = min(t, edge) if rising else max(t, edge)
        ht = h(t)
        step *= 2.0
    if ht == 0.0:
        log_e = t
    elif rising:
        log_e = root_itp(h, prev_t, t, prev_h, ht, tol=_LOG_E_TOL)
    else:
        log_e = root_itp(h, t, prev_t, ht, prev_h, tol=_LOG_E_TOL)
    abs_e = math.exp(log_e)
    return BoundState(energy=-abs_e, kappa=_kappa(cfg, abs_e),
                      provenance="oracle")


def momentum_wavefunction(state, cfg, p):
    """Momentum profile amplitude*(gamma/(2 pi hbar)^lam)/(D|p|^alpha+|E|).

    Positive, even, strictly decreasing in |p|.  Accepts scalars or
    arrays.
    """
    abs_e = -state.energy
    pref = (state.amplitude * cfg.gamma_strength
            / (2.0 * math.pi * cfg.hbar) ** cfg.lam)
    p = np.asarray(p, dtype=float)
    out = pref / (cfg.d_alpha * np.abs(p) ** cfg.alpha + abs_e)
    return float(out) if out.ndim == 0 else out


def _profile_amplitude(state, cfg):
    """P of phi(x) = P I(kappa|x|): amplitude gamma/(2 pi hbar)^(2 lam)
    measure_norm (kappa hbar)^lam/|E|, the 2 lam power from a transform
    convention whose constant the amplitude absorbs anyway."""
    return (state.amplitude * cfg.gamma_strength
            / (2.0 * math.pi * cfg.hbar) ** (2.0 * cfg.lam) * cfg.measure_norm
            * (state.kappa * cfg.hbar) ** cfg.lam / -state.energy)


def _profile_quadrature(state, cfg, y, spec):
    """(I(y), err_est) by quadrature on a 1-d array y >= 0: one
    integrate_oscillatory call over every y > 0.  I(0) is the energy
    condition's radial integral over (kappa hbar)^lam/|E|, so the x = 0
    identity is measured, not substituted."""
    lam, a = cfg.lam, cfg.alpha
    value = np.empty(y.shape)
    err = np.empty(y.shape)
    zero = y == 0.0
    if zero.any():
        scale = (state.kappa * cfg.hbar) ** lam / -state.energy
        j0, e0 = _radial_integral(cfg, -state.energy, spec)
        value[zero], err[zero] = j0 / scale, e0 / scale
    if not zero.all():
        def envelope(q):
            return np.power(q, lam - 1.0) / (np.power(q, a) + 1.0)

        value[~zero], err[~zero] = integrate_oscillatory(
            envelope, y[~zero], singularity_power=lam - 1.0)
    return value, err


def _profile_block(cfg):
    """Block with I(y) = sqrt(pi)/(2 alpha) H[y/2] for the profile integral
    I(y) = int_0^inf cos(qy) q^(lam-1) / (1 + q^alpha) dq: the duplication
    and reflection formulas turn I's Mellin transform Gamma(s) cos(pi s/2)
    (pi/alpha) / sin(pi (lam-s)/alpha) into sqrt(pi)/(2 alpha) 2^s h(s)."""
    r, e = 1.0 - cfg.lam / cfg.alpha, 1.0 / cfg.alpha
    return HFoxParams(m=2, n=1, upper=((r, e),),
                      lower=((0.0, 0.5), (r, e), (0.5, 0.5)))


def _profile_hfox(state, cfg, y, spec):
    """(I(y), err_est) from the exact H form (_profile_block) at each
    y >= 0 of a 1-d array: the closed I(0) = pi / (alpha sin(pi lam/alpha))
    and one engine call on every y/2 > 0."""
    a, lam = cfg.alpha, cfg.lam
    value = np.full_like(y, math.pi / (a * math.sin(math.pi * lam / a)))
    err = np.zeros_like(y)
    pos = y > 0
    h, e, _ = _evaluate(_profile_block(cfg), y[pos] / 2.0, spec)
    c = math.sqrt(math.pi) / (2.0 * a)
    value[pos], err[pos] = c * h, c * e
    return value, err


def _position(route, state, cfg, x, spec):
    """phi(x) = P I(kappa|x|) with its err_est, I from route on the
    distinct kappa|x| (sorted, each once), both laid back out over the
    shape of x: phi is even in x."""
    x = np.asarray(x, dtype=float)
    ax, inverse = np.unique(np.abs(x).ravel(), return_inverse=True)
    p = _profile_amplitude(state, cfg)
    out = tuple((p * v)[inverse].reshape(x.shape)
                for v in route(state, cfg, state.kappa * ax, spec))
    return tuple(float(v) for v in out) if x.ndim == 0 else out


def position_wavefunction_quadrature(state, cfg, x, spec=QuadSpec()):
    """Position profile by direct cosine transform of the momentum one,
    the reference route: no use of the H-function.  Real, even, positive
    at 0; returns (value, err_est) for scalar or array x."""
    return _position(_profile_quadrature, state, cfg, x, spec)


def position_wavefunction_hfox(state, cfg, x, spec=QuadSpec()):
    """Position profile from the exact H form of I; returns (value,
    err_est) for scalar or array x."""
    return _position(_profile_hfox, state, cfg, x, spec)


def _x0_identity(cfg, state, spec):
    """(radial integral at the state's energy, its closed value
    (2 pi hbar)^lam / (gamma measure_norm)): the identity at x = 0."""
    val, _ = _radial_integral(cfg, -state.energy, spec)
    return val, ((2.0 * math.pi * cfg.hbar) ** cfg.lam
                 / (cfg.gamma_strength * cfg.measure_norm))


def normalize(state, cfg, spec=QuadSpec()):
    """Fix the amplitude so that int |phi(x)|^2 d^lam x = 1.

    phi = P I(kappa|x|) is even, so the norm is 2 P^2 kappa^-lam times
    int_0^inf I(y)^2 d^lam y, taken on the quadrature route: its
    integrand is O(I(0)^2) whatever gamma, D and kappa are.  P is formed
    at unit amplitude, so the operation is idempotent by construction.
    """
    def f(y):
        return _profile_quadrature(state, cfg, y, spec)[0] ** 2

    half, _ = measure_integrate(cfg.dim, f, (0.0, np.inf), spec)
    # the square root first, so no power of P or kappa over- or underflows
    nrm = (_profile_amplitude(replace(state, amplitude=1.0), cfg)
           * math.sqrt(2.0 * half) * state.kappa ** (-0.5 * cfg.lam))
    if not (nrm > 0 and math.isfinite(nrm)):
        raise QuadFailure(f"norm came out {nrm} (half-line integral {half})")
    return replace(state, amplitude=1.0 / nrm)
