"""The CLI over the whole admissible domain, judged by references that do
not import fracwell.

An energy request on valid input ends one of two ways: exit 0 with
energies a fracwell-free reference judges right, or exit 3 naming
OverflowError where the level or its decay scale leaves the double range.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings, strategies as st

from fracwell import cli

# log range in which a double is normal, and the band at either edge in
# which the reference cannot say which side a computed log falls on
LOG_MIN, LOG_MAX, EDGE = -708.0, 709.0, 1e-6


def log_energy_reference(alpha, lam, gamma, d):
    """(log|E|, log kappa) of the bound level at hbar = 1, from math.lgamma
    alone: |E| = [gamma G(lam/alpha) G(1-lam/alpha) 2^(1-lam) / (pi^(lam/2)
    G(lam/2) alpha D^(lam/alpha))]^(alpha/(alpha-lam)) and kappa =
    (|E|/D)^(1/alpha), every factor taken as a log."""
    log_bracket = (math.log(gamma) + math.lgamma(lam / alpha)
                   + math.lgamma(1.0 - lam / alpha) + (1.0 - lam) * math.log(2.0)
                   - 0.5 * lam * math.log(math.pi) - math.lgamma(0.5 * lam)
                   - math.log(alpha) - (lam / alpha) * math.log(d))
    log_e = log_bracket * alpha / (alpha - lam)
    return log_e, (log_e - math.log(d)) / alpha


def _inside(v):
    return LOG_MIN + EDGE <= v <= LOG_MAX - EDGE


def _outside(v):
    return not LOG_MIN - EDGE <= v <= LOG_MAX + EDGE


def _log10_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(alpha_gap=_log10_uniform(-3.0, 0.0), lam=_log10_uniform(-8.0, 0.0),
       gamma=_log10_uniform(-30.0, 30.0), d=_log10_uniform(-30.0, 30.0))
def test_energy_cli_matches_lgamma_reference(alpha_gap, lam, gamma, d):
    alpha = 1.0 + alpha_gap
    argv = ["--mode", "energy", "--format", "json", "--alpha", repr(alpha),
            "--lambda", repr(lam), "--gamma", repr(gamma), "--d-alpha", repr(d)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    ref_e, ref_k = log_energy_reference(alpha, lam, gamma, d)
    if code == 3:
        assert out.getvalue() == "" and "OverflowError" in err.getvalue(), argv
        assert not (_inside(ref_e) and _inside(ref_k)), (argv, ref_e, ref_k)
        return
    assert code == 0, (argv, err.getvalue())
    assert not (_outside(ref_e) or _outside(ref_k)), (argv, ref_e, ref_k)
    row = json.loads(out.getvalue())["rows"][0]
    for key, ref in (("E_closed_form", ref_e), ("E_oracle", ref_e), ("kappa", ref_k)):
        got = math.log(abs(row[key]))
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (argv, key, got, ref)
