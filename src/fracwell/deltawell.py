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
solves the same condition numerically (a trapezoid rule in log p, after
which the condition is a line in log|E|) and shares no code with the
closed form beyond the gamma kernel.  The acceptance suite treats the
oracle as the arbiter.

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
from functools import cached_property

import numpy as np

from .gammafn import _log_sin_pi, gammaln_sign, loggamma
from .hfox import HFoxParams, eval_auto
from .measure import MeasureDim
from .quadrature import (NumericalFailure, QuadSpec, QuadFailure,
                         integrate_oscillatory, integrate_sinh)

__all__ = ["SHAPE_TOL", "DomainError", "PotentialConfig", "BoundState",
           "energy_closed_form", "energy_oracle", "momentum_wavefunction",
           "position_wavefunction_quadrature", "position_wavefunction_hfox",
           "normalize"]

# largest relative gap between the two position routes, beyond their
# summed err_est, at which a printed row counts the H route as verified
SHAPE_TOL = 1e-4


class DomainError(Exception):
    """Physical parameters outside the admissible window."""


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
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise DomainError(f"{name} must be finite and positive, got {v}")
        # existence window of the bound-state integral; redundant for
        # lam <= 1 < alpha but out-of-range lam must still die here,
        # before any quadrature is attempted
        if lam >= a:
            raise DomainError(
                f"bound state exists only in the window 0 < lam < alpha; "
                f"got lam={lam}, alpha={a}")
        if not 0.0 < lam <= 1.0:
            raise DomainError(f"lam must lie in (0, 1], got {lam}")

    @cached_property
    def dim(self):
        return MeasureDim(self.lam)

    @cached_property
    def measure_norm(self):
        """Surface factor 2 pi^(lam/2) / Gamma(lam/2) of the measure, as
        lam pi^(lam/2) / Gamma(1 + lam/2): twice dim.weight_norm bit for bit
        at normal lam, and lam itself, not 0, at the smallest subnormal
        lam, where lam/2 rounds to 0."""
        lam = self.lam
        return math.pi ** (lam / 2.0) * lam / math.exp(gammaln_sign(1.0 + lam / 2.0)[0])


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
    # the three gammas in one kernel call, each as log Gamma(1 + x) - log x: x > 0 may
    # lie below the kernel's pole tolerance; log x is read off log lam (lam/2 is 0 at 5e-324)
    x = (lam / a, 1.0 - lam / a, 0.5 * lam)
    log_x = (math.log(lam) - math.log(a), math.log(x[1]), math.log(lam) - math.log(2.0))
    lg1 = gammaln_sign(np.array([1.0 + v for v in x]))[0].tolist()
    lg = [g - v for g, v in zip(lg1, log_x)]
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


def _radial_integral(cfg, spec):
    """(J, err_est) of the radial integral int_0^inf p^(lam-1) / (D p^alpha
    + |E|) dp in units of its knee p0 = (|E|/D)^(1/alpha): p = p0 e^t
    turns it into p0^lam / |E| J, J = int e^(lam t) / (1 + e^(alpha t)) dt
    over the line, with no knee, no scale and no dependence on E.  J's
    tails fall off as e^(lam t) and e^(-(alpha-lam) t).  The integrand is
    one exponential, of lam t - log(1 + e^(alpha t)) at t <= 0 and of
    (lam-alpha) t - log(1 + e^(-alpha t)) at t > 0: nothing overflows,
    and no exponent is the difference of two large terms."""
    a, lam = cfg.alpha, cfg.lam

    def g(t):
        return np.exp(np.where(t > 0.0, (lam - a) * t, lam * t)
                      - np.log1p(np.exp(-a * np.abs(t))))

    return integrate_sinh(g, min(lam, a - lam), spec)


def _energy_condition(cfg, spec):
    """h(t) = log(lhs/rhs) of the bound-state condition
    (2 pi^(lam/2)/Gamma(lam/2)) int_0^inf p^(lam-1)/(D p^alpha + |E|) dp
    = (2 pi hbar)^lam / gamma at t = log|E|.  The integral is p0^lam/|E| J
    (_radial_integral), log p0 = (t - log D)/alpha, so h is the line
    (lam/alpha - 1) t + log J - (lam/alpha) log D - log(rhs/nm): J is
    taken once, every term is a log, and the t terms are one product, so
    h rounds relative to its constant rather than to t."""
    a, lam = cfg.alpha, cfg.lam
    # J first, which raises QuadFailure below lam ~ 1e-306 (before nm, 0 at lam =
    # 5e-324, meets a log); then log(rhs / nm), term by term so nothing overflows
    const = math.log(_radial_integral(cfg, spec)[0]) - lam * math.log(cfg.d_alpha) / a
    const -= (lam * math.log(2.0 * math.pi * cfg.hbar)
              - math.log(cfg.gamma_strength) - math.log(cfg.measure_norm))
    slope = (lam - a) / a
    return lambda t: const + slope * t


def energy_oracle(cfg, spec=QuadSpec()):
    """Bound-state energy with no closed-form input.

    The root in t = log|E| of _energy_condition's h, the line h(0) + (lam/
    alpha - 1) t: t = h(0) alpha/(alpha - lam), one evaluation of h on
    the measured J.  OverflowError means the root lies beyond the double
    range of |E|.
    """
    a, lam = cfg.alpha, cfg.lam
    log_e = _energy_condition(cfg, spec)(0.0) * a / (a - lam)
    if not _LOG_E_MIN <= log_e <= _LOG_E_MAX:
        raise OverflowError(
            f"oracle energy out of double range: log|E| = {log_e:.6g}")
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
            * ((state.kappa * cfg.hbar) ** cfg.lam / -state.energy))


def _profile_quadrature(cfg, y, spec):
    """(I(y), err_est) by quadrature on a 1-d array y >= 0: one
    integrate_oscillatory call over every y > 0.  I(0) is J of
    _radial_integral, so the x = 0 identity is measured, not substituted."""
    lam, a = cfg.lam, cfg.alpha
    value = np.empty(y.shape)
    err = np.empty(y.shape)
    zero = y == 0.0
    if zero.any():
        value[zero], err[zero] = _radial_integral(cfg, spec)
    if not zero.all():
        def envelope(q):
            # q = u/y overflows q^alpha at tiny y and underflows to 0 at huge y
            with np.errstate(over="ignore"):
                qa = np.power(q, a)
                if np.isinf(qa).any() or not q.all():
                    raise OverflowError("oscillatory nodes q = u/y past the double "
                                        "range about the knee q = 1 of the profile")
                return np.power(q, lam - 1.0) / (qa + 1.0)

        value[~zero], err[~zero] = integrate_oscillatory(
            envelope, y[~zero], singularity_power=lam - 1.0)
    return value, err


def _profile_block(cfg):
    """Block with I(y) = sqrt(pi)/(2 alpha) H[y/2] for the profile integral
    I(y) = int_0^inf cos(qy) q^(lam-1) / (1 + q^alpha) dq: the duplication
    and reflection formulas turn I's Mellin transform Gamma(s) cos(pi s/2)
    (pi/alpha) / sin(pi (lam-s)/alpha) into sqrt(pi)/(2 alpha) 2^s h(s)."""
    r, e = 1.0 - cfg.lam / cfg.alpha, 1.0 / cfg.alpha
    try:
        return HFoxParams(m=2, n=1, upper=((r, e),), lower=((0.0, 0.5), (r, e), (0.5, 0.5)))
    except ValueError as err:   # strip 0 < Re s < lam inside the engine's pole tolerance
        raise NumericalFailure(f"lam = {cfg.lam!r} too small for the H route: {err}") from None


def _profile_hfox(cfg, y, spec):
    """(I(y), err_est) from the exact H form (_profile_block) at each
    y >= 0 of a 1-d array: the closed I(0) = pi / (alpha sin(pi lam/alpha))
    and one engine call on every y/2 > 0."""
    a, lam = cfg.alpha, cfg.lam
    value = np.full_like(y, math.pi / (a * math.sin(math.pi * lam / a)))
    err = np.zeros_like(y)
    pos = y > 0
    h, e, _ = eval_auto(_profile_block(cfg), y[pos] / 2.0, spec)
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
                for v in route(cfg, state.kappa * ax, spec))
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
    (2 pi hbar)^lam / (gamma measure_norm)): the identity at x = 0.  Their
    ratio is e^h(log|E|) of _energy_condition."""
    want = ((2.0 * math.pi * cfg.hbar) ** cfg.lam
            / (cfg.gamma_strength * cfg.measure_norm))
    return want * math.exp(_energy_condition(cfg, spec)(math.log(-state.energy))), want


def normalize(state, cfg, spec=QuadSpec()):
    """Fix the amplitude so that int |phi(x)|^2 d^lam x = 1.

    phi = P I(kappa|x|) is even, so the norm is 2 P^2 kappa^-lam times
    int_0^inf I(y)^2 d^lam y, and int_0^inf I(y)^2 y^(lam-1) dy = (1/pi)
    int_0^inf |M(lam/2 + it)|^2 dt by Mellin-Parseval, M(s) = Gamma(s)
    cos(pi s/2) (pi/alpha) / sin(pi (lam-s)/alpha) being I's Mellin
    transform (Paris & Kaminski, Asymptotics and Mellin-Barnes Integrals,
    2001, ch. 3).  |M|^2 is flat to t ~ lam/2 and falls as e^(-2 pi
    t/alpha), so in t = (lam/2) e^v it is a bump of unit width: one
    integrate_sinh call, on lam^3 |M|^2 t formed in logs, O(1) at every
    lam.  Where lam/2 underflows the line meets M's pole at 0 or lam, the
    integrand is inf and integrate_sinh raises NonIntegrable.  P is formed
    at unit amplitude, so the operation is idempotent by construction.
    """
    a, lam = cfg.alpha, cfg.lam
    log_t0 = math.log(lam) - math.log(2.0)   # 0.5 * lam is 0 at lam = 5e-324
    const = 2.0 * math.log(math.pi / a) + 3.0 * math.log(lam) + log_t0

    def g(v):
        s = 0.5 * lam + 1j * np.exp(log_t0 + v)
        with np.errstate(divide="ignore"):
            log_m = loggamma(s) + _log_sin_pi(0.5 * s + 0.5) - _log_sin_pi((lam - s) / a)
        return np.exp(2.0 * log_m.real + const + v)

    k, _ = integrate_sinh(g, 1.0, spec)
    # lam out of P and of the root, so no power of lam, P or kappa over- or underflows
    nrm = (_profile_amplitude(replace(state, amplitude=1.0), cfg) / lam
           * math.sqrt(cfg.measure_norm / lam * k / math.pi)
           * state.kappa ** (-0.5 * lam))
    if not (nrm > 0 and math.isfinite(nrm)):
        raise QuadFailure(f"norm came out {nrm} (lam^3 int |M|^2 dt = {k})")
    return replace(state, amplitude=1.0 / nrm)
