"""The CLI over the whole admissible domain, judged by references that do
not import fracwell.

An energy request on valid input ends one of three ways: exit 0 with
energies a fracwell-free reference judges right, exit 3 naming
OverflowError where the level or its decay scale leaves the double range,
or, at lam below WINDOW_LAM, exit 3 naming the QuadFailure of the
oracle's radial integral, whose decay rate lam is too slow for the double
range.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from fracwell import cli

# log range in which a double is normal, and the band at either edge in
# which the reference cannot say which side a computed log falls on
LOG_MIN, LOG_MAX, EDGE = -708.0, 709.0, 1e-6
# the oracle's radial integral decays as e^(-lam |t|); the trapezoid window
# |s| <= asinh(40 / (pi lam / 2)) it needs passes s = 700, where sinh s
# nears the double range, below this lam
WINDOW_LAM = 80.0 / (math.pi * math.sinh(700.0))


def log_energy_reference(alpha, lam, gamma, d):
    """(log|E|, log kappa) of the bound level at hbar = 1, from math.lgamma
    alone: |E| = [gamma G(lam/alpha) G(1-lam/alpha) 2^(1-lam) / (pi^(lam/2)
    G(lam/2) alpha D^(lam/alpha))]^(alpha/(alpha-lam)) and kappa =
    (|E|/D)^(1/alpha), every factor taken as a log.  log G(x) at x =
    lam/alpha and lam/2 is log G(1 + x) - log x with log x formed from
    log lam: x itself loses digits at subnormal lam, and lam/2 is 0 at
    lam = 5e-324."""
    def lgamma_small(log_x):
        return math.lgamma(1.0 + math.exp(log_x)) - log_x

    log_lam = math.log(lam)
    log_bracket = (math.log(gamma) + lgamma_small(log_lam - math.log(alpha))
                   + math.lgamma(1.0 - lam / alpha) + (1.0 - lam) * math.log(2.0)
                   - 0.5 * lam * math.log(math.pi)
                   - lgamma_small(log_lam - math.log(2.0))
                   - math.log(alpha) - (lam / alpha) * math.log(d))
    log_e = log_bracket * alpha / (alpha - lam)
    return log_e, (log_e - math.log(d)) / alpha


def _inside(v):
    return LOG_MIN + EDGE <= v <= LOG_MAX - EDGE


def _outside(v):
    return not LOG_MIN - EDGE <= v <= LOG_MAX + EDGE


def _log10_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


def _judge_energy_request(alpha, lam, gamma, d):
    """Run one JSON energy request in process and judge its outcome."""
    argv = ["--mode", "energy", "--format", "json", "--alpha", repr(alpha),
            "--lambda", repr(lam), "--gamma", repr(gamma), "--d-alpha", repr(d)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    ref_e, ref_k = log_energy_reference(alpha, lam, gamma, d)
    if code == 3:
        assert out.getvalue() == "", argv
        if "OverflowError" in err.getvalue():
            assert not (_inside(ref_e) and _inside(ref_k)), (argv, ref_e, ref_k)
            return
        assert err.getvalue().startswith(
            f"fracwell: convergence failure: QuadFailure: decay rate {lam!r} too slow "
            "for the double range"), (argv, err.getvalue())
        assert lam <= WINDOW_LAM * (1.0 + EDGE), argv
        assert not (_outside(ref_e) or _outside(ref_k)), (argv, ref_e, ref_k)
        return
    assert code == 0, (argv, err.getvalue())
    assert lam >= WINDOW_LAM * (1.0 - EDGE), argv
    assert not (_outside(ref_e) or _outside(ref_k)), (argv, ref_e, ref_k)
    row = json.loads(out.getvalue())["rows"][0]
    for key, ref in (("E_closed_form", ref_e), ("E_oracle", ref_e), ("kappa", ref_k)):
        got = math.log(abs(row[key]))
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (argv, key, got, ref)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(alpha_gap=_log10_uniform(-3.0, 0.0), lam=_log10_uniform(-8.0, 0.0),
       gamma=_log10_uniform(-30.0, 30.0), d=_log10_uniform(-30.0, 30.0))
def test_energy_cli_matches_lgamma_reference(alpha_gap, lam, gamma, d):
    _judge_energy_request(1.0 + alpha_gap, lam, gamma, d)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alpha_gap=_log10_uniform(-3.0, 0.0),
       lam=_log10_uniform(math.log10(5e-324), -8.0),
       gamma=_log10_uniform(-300.0, 300.0), d=_log10_uniform(-300.0, 300.0))
@example(alpha_gap=0.5, lam=6e-303, gamma=1.0, d=1.0)     # just above WINDOW_LAM
@example(alpha_gap=0.5, lam=4.9e-303, gamma=1.0, d=1.0)   # just below it
def test_energy_cli_at_subnormal_lam(alpha_gap, lam, gamma, d):
    # lam down to the smallest subnormal, gamma and D over most of the
    # double range, so that all three outcomes occur
    _judge_energy_request(1.0 + alpha_gap, lam, gamma, d)
