"""Independent references for the fracwell benchmark, and the rules that
judge each CLI output against them.

Nothing here imports fracwell.  Energies come from the closed form
re-derived in log space with math.lgamma; the classical point
alpha = 2, lam = 1 uses the textbook -gamma^2/(4D) and
sqrt(kappa) exp(-kappa|x|); profile shapes phi(x)/phi(0) elsewhere come
from scipy's QUADPACK (algebraic-weight rule on the first half period,
Fourier rule on the rest), or far out from the asymptotic series of the
same integral.  On the line lam = 1 the Parseval identity also fixes
phi(0) absolutely.  scipy is imported only inside the profile reference,
which runs in a child process (``python3 bench/reference.py`` with the configs
as JSON on stdin), so it never enters the measured process.

Tolerances (quoted in bench/NOTES.md):

- ENERGY_REL_TOL: E_closed_form, E_oracle and kappa, relative.  Equal to
  the pin of the suite's energy_oracle_agreement check.
- PHI_REL_TOL: profile values, relative.  Equal to the pin of the
  suite's wavefunction_classical_profile check.
- PHI_FLOOR: absolute floor, as a share of the reference |phi(0)|,
  set to the same pin.  Tail values far below the peak are not failures
  when merely imprecise, while a wrong sign or a wrong peak is.

A value v with reference r passes when
|v - r| <= PHI_REL_TOL * |r| + PHI_FLOOR * |phi0_ref| + ref_err, where
ref_err is the reference's own error estimate.  The error ratio of an
output is the largest |v - r| / tolerance over its numbers.
"""

import csv
import io
import json
import math
import sys

ENERGY_REL_TOL = 1e-6
PHI_REL_TOL = 1e-6
PHI_FLOOR = 1e-6
VALIDATE_CHECKS = 20

# Known failure regions of the program at the commit that introduced the
# benchmark (ROADMAP item 3).  A request that fails inside one is counted
# in `failed`; a failure anywhere else makes the run incorrect.  Each
# edge was measured by probing configs across it and is set with a margin
# on the side that excuses more:
# - |E| beyond 2^+-200: the oracle's bracket search stops there and the
#   closed form overflows further out.  Failures were seen from 2^199.3,
#   passes up to 2^198.5.
KNOWN_LOG2_E = 195.0
# - lam below 1e-4: the oracle exits 0 with |E| off by up to 3.5e-5
#   relative (35x the tolerance), the error growing with lam from about
#   lam = 1.6e-6 and vanishing at once above lam = 1e-4.  Failures were
#   seen up to lam = 9.9e-5, passes from 1.04e-4 on, at alpha from 1.05
#   to 1.99 and gamma, D from 0.1 to 10.
KNOWN_LAM = 1.2e-4
# - lam -> 0: profile requests exit 3 below lam = 0.0201 and pass from
#   0.0223 on.
KNOWN_PROFILE_LAM = 0.025
# - lam = 1 with |E| large: the absolute quadrature tolerance leaves the
#   profile wrong by 1.5x to 1e50x the tolerance from |E| = 10^3.7 on;
#   error ratios stay below 0.05 up to |E| = 10^3.3.
KNOWN_LINE_LOG10_E = 3.0


def _cfg_floats(cfg):
    return (float(cfg["alpha"]), float(cfg["lam"]), float(cfg["gamma"]),
            float(cfg["d_alpha"]))


def _is_classical(cfg):
    a, lam, _, _ = _cfg_floats(cfg)
    return a == 2.0 and lam == 1.0


def energy_reference(cfg):
    """(log|E|, log kappa) of the bound level, hbar = 1."""
    a, lam, g, d = _cfg_floats(cfg)
    if a == 2.0 and lam == 1.0:
        log_e = 2.0 * math.log(g) - math.log(4.0 * d)
    else:
        log_bracket = (math.log(g) + math.lgamma(lam / a)
                       + math.lgamma(1.0 - lam / a)
                       + (1.0 - lam) * math.log(2.0)
                       - 0.5 * lam * math.log(math.pi)
                       - math.lgamma(0.5 * lam) - math.log(a)
                       - (lam / a) * math.log(d))
        log_e = a / (a - lam) * log_bracket
    return log_e, (log_e - math.log(d)) / a


def _k0(a, lam):
    """K(0) = int_0^inf q^(lam-1) / (1 + q^a) dq."""
    return math.pi / (a * math.sin(math.pi * lam / a))


# above this kappa*x the asymptotic series is used; below it QUADPACK,
# whose Fourier rule loses accuracy at very high frequency.  The two
# agree to about 1e-13 of K(0) across the domain at the switch.
ASYMPTOTIC_FROM = 30.0


def _k_asymptotic(s, a, lam):
    """Large-s expansion of K(s): expanding 1/(1 + q^a) at q = 0 gives
    sum_k (-1)^k Gamma(b_k) cos(pi b_k / 2) s^(-b_k), b_k = lam + a k,
    summed to its smallest term, which is returned as the error.  No
    pole of 1/(1 + q^a) lies in the quarter plane the contour sweeps for
    alpha < 2, so the expansion misses no exponential part (at alpha = 2
    the pole sits on the edge, which is the exact classical e^-s)."""
    total, smallest = 0.0, math.inf
    for k in range(400):
        b = lam + a * k
        mag = math.exp(math.lgamma(b) - b * math.log(s))
        if mag > smallest:
            break
        total += (-1) ** k * mag * math.cos(0.5 * math.pi * b)
        smallest = mag
        if mag < 1e-18 * _k0(a, lam):
            break
    return total, smallest + 1e-13 * _k0(a, lam)


def _k(s, a, lam):
    """K(s) = int_0^inf cos(q s) q^(lam-1) / (1 + q^a) dq, with error.

    In t = q s, K(s) = s^-lam int_0^inf cos(t) t^(lam-1) / (1 + (t/s)^a)
    dt: the algebraic-weight rule takes [0, pi] and the Fourier rule the
    rest, so the Fourier rule's first cycle never spans the decay of the
    integrand, however small s is (a split at q = 1 loses the answer at
    s = 1e-7 while reporting a 1e-6 error)."""
    if s >= ASYMPTOTIC_FROM:
        return _k_asymptotic(s, a, lam)
    from scipy import integrate

    scale = s ** -lam
    head, head_err = integrate.quad(
        lambda t: math.cos(t) / (1.0 + (t / s) ** a), 0.0, math.pi,
        weight="alg", wvar=(lam - 1.0, 0.0), limit=200,
        epsabs=0.0, epsrel=1e-12)
    tail, tail_err = integrate.quad(
        lambda t: t ** (lam - 1.0) / (1.0 + (t / s) ** a), math.pi, math.inf,
        weight="cos", wvar=1.0, limlst=200, limit=200, epsabs=1e-13 / scale)
    return scale * (head + tail), scale * (head_err + tail_err)


def profile_reference(cfg, xs):
    """Reference profile on the grid xs.

    phi(x) is proportional to J(x) = int_0^inf cos(p x) p^(lam-1)
    / (D p^alpha + |E|) dp; with p = kappa q this is a constant times
    K(kappa x).  Returns a dict with the energy reference, the shape
    ratios K(kappa x)/K(0) and their error estimates, and phi0 (the
    absolute phi(0)) where it is known: on lam = 1, Parseval gives
    int phi^2 dx = pi c^2 int_0^inf m(p)^2 dp for phi = c J, which
    fixes phi(0) = K(0) sqrt(kappa / (pi M2)) with
    M2 = int_0^inf (1 + q^a)^-2 dq = (a - 1)/a^2 * pi / sin(pi/a).
    """
    import warnings

    a, lam, _, _ = _cfg_floats(cfg)
    log_e, log_kappa = energy_reference(cfg)
    if max(log_e, log_kappa) > 709.0:
        # not representable as a double: no output can match it
        return {"log_e": log_e, "log_kappa": log_kappa, "ratios": None}
    kappa = math.exp(log_kappa)
    ratios, errs = [], []
    k0 = _k0(a, lam)
    for x in xs:
        s = kappa * abs(x)
        if s == 0.0:
            ratios.append(1.0)
            errs.append(0.0)
        elif _is_classical(cfg):
            ratios.append(math.exp(-s))
            errs.append(0.0)
        else:
            with warnings.catch_warnings():
                # QUADPACK warns when its own error target is not met; the
                # error estimate it returns is what the tolerance uses
                warnings.simplefilter("ignore")
                v, e = _k(s, a, lam)
            ratios.append(v / k0)
            errs.append(e / k0)
    phi0 = None
    if lam == 1.0:
        m2 = (a - 1.0) / (a * a) * math.pi / math.sin(math.pi / a)
        phi0 = k0 * math.sqrt(kappa / (math.pi * m2))
    return {"log_e": log_e, "log_kappa": log_kappa, "ratios": ratios,
            "ratio_errs": errs, "phi0": phi0}


# --- judging outputs ----------------------------------------------------------

def _rel_ratio(got, log_ref, tol):
    """|got - ref| / (tol |ref|) for ref = -exp(log_ref) or exp(log_ref)."""
    if not math.isfinite(got):
        return math.inf
    if log_ref > 709.0:           # reference not representable as a double
        return math.inf
    ref = math.exp(log_ref)
    return abs(abs(got) - ref) / (tol * ref) if got != 0.0 else math.inf


def known_failure(workload, cfg):
    """True if cfg lies in a known failure region of the workload."""
    _, lam, _, _ = _cfg_floats(cfg)
    log_e, _ = energy_reference(cfg)
    if abs(log_e) > KNOWN_LOG2_E * math.log(2.0) or lam < KNOWN_LAM:
        return True
    if workload != "profile":
        return False
    return lam < KNOWN_PROFILE_LAM or (
        lam == 1.0 and log_e > KNOWN_LINE_LOG10_E * math.log(10.0))


def judge_energy(stdout, cfg, ref):
    """Error ratio of one '--mode energy --format json' output."""
    row = json.loads(stdout)["rows"][0]
    log_e, log_kappa = ref
    worst = 0.0
    for key in ("E_closed_form", "E_oracle"):
        v = float(row[key])
        if not v < 0.0:
            return math.inf
        worst = max(worst, _rel_ratio(v, log_e, ENERGY_REL_TOL))
    return max(worst, _rel_ratio(float(row["kappa"]), log_kappa,
                                 ENERGY_REL_TOL))


def _parse_profile_csv(stdout):
    meta, body = {}, []
    for line in stdout.splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(" = ", 1)
            meta[key] = val
        else:
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, rows


def judge_profile(stdout, cfg, ref, xs):
    """Error ratio of one '--mode wavefunction' CSV output."""
    meta, rows = _parse_profile_csv(stdout)
    if ref["ratios"] is None or len(rows) != len(xs):
        return math.inf
    worst = max(_rel_ratio(-float(meta["E"]), ref["log_e"], ENERGY_REL_TOL)
                if float(meta["E"]) < 0 else math.inf,
                _rel_ratio(float(meta["kappa"]), ref["log_kappa"],
                           ENERGY_REL_TOL))
    for row, x in zip(rows, xs):
        if abs(float(row["x"]) - x) > 1e-11 * max(1.0, abs(x)):
            return math.inf
    phi = [float(r["phi_quadrature"]) for r in rows]
    if not all(math.isfinite(v) for v in phi) or not phi[0] > 0.0:
        return math.inf
    # absolute scale where it is known, else the shape phi(x)/phi(0)
    scale = ref["phi0"] if ref["phi0"] is not None else 1.0
    got = phi if ref["phi0"] is not None else [v / phi[0] for v in phi]
    for v, r, e in zip(got, ref["ratios"], ref["ratio_errs"]):
        want = scale * r
        tol = PHI_REL_TOL * abs(want) + PHI_FLOOR * scale + scale * e
        worst = max(worst, abs(v - want) / tol)
    if _is_classical(cfg):
        # the H-function route is exact here and must say so
        if meta.get("hfox_verified") != "true":
            return math.inf
        for row, r in zip(rows, ref["ratios"]):
            want = scale * r
            tol = PHI_REL_TOL * abs(want) + PHI_FLOOR * scale
            worst = max(worst, abs(float(row["phi_hfox"]) - want) / tol)
    return worst


def judge_validate(stdout):
    """Largest measured/tolerance over the suite; inf unless 20 of 20 pass."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != VALIDATE_CHECKS or any(r["passed"] != "true" for r in rows):
        return math.inf
    return max(float(r["measured"]) / float(r["tolerance"])
               for r in rows if float(r["tolerance"]) > 0.0)


def compute(items):
    """References for a list of {"workload", "config", "xs"} items."""
    out = []
    for it in items:
        if it["workload"] == "spectrum":
            out.append(list(energy_reference(it["config"])))
        else:
            out.append(profile_reference(it["config"], it["xs"]))
    return out


if __name__ == "__main__":
    json.dump(compute(json.load(sys.stdin)), sys.stdout)
