"""Seeded request streams for the fracwell benchmark.

Every workload is an endless, deterministic stream of CLI argument
lists generated from the workload seed.  Nothing here imports fracwell:
the program receives only the generated inputs.

Configurations are points of a Halton sequence (bases 2, 3, 5, 7, 11),
shifted modulo 1 by a seeded random vector (a Cranley-Patterson
rotation).  Per-request cost depends strongly on (alpha, lambda, gamma,
D), and a run completes a number of requests that depends on the
machine; every prefix of a Halton sequence covers the parameter cube
evenly, so the mix of cheap and expensive requests, and with it the
run's latency figures, stays nearly the same from one seed to the next
while the inputs still differ.

``spectrum`` draws uniformly over the whole admissible domain: its
log-space energy reference is exact everywhere, the classical point
included.  ``profile`` uses a fifth coordinate to pin one config in
eight to the classical point alpha = 2, lam = 1, where the exact profile
is known in closed form, and one in eight to the line lam = 1 at the
drawn alpha, where the Parseval identity fixes the absolute
normalisation rather than only the shape.
"""

import random

# Generator parameters, recorded here and quoted in bench/NOTES.md.
ALPHA_RANGE = (1.0, 2.0)         # 1 < alpha <= 2, uniform, edges kept
LAMBDA_RANGE = (0.0, 1.0)        # 0 < lam <= 1, uniform, edges kept
LOG10_GAMMA_RANGE = (-1.0, 1.0)  # gamma log-uniform over two decades
LOG10_D_RANGE = (-1.0, 1.0)      # D log-uniform over two decades
CLASSICAL_SHARE = 0.125          # profile configs pinned to alpha = 2, lam = 1
LINE_SHARE = 0.125               # profile configs pinned to lam = 1
PROFILE_GRID = ("0", "6", "25")  # --x-min, --x-max, --x-steps (README grid)
_BASES = (2, 3, 5, 7, 11)

# The request set: the stream prefix a run sends in passes until its
# time is up, keeping each request's best time.  The deterministic
# figures (fail_frac, worst_err_ratio, output digest, per-layer counts)
# are taken over it.  A pass takes a few seconds on a 2-core Xeon.
SET_SIZE = {"spectrum": 128, "profile": 16, "validate": 1}

WORKLOADS = ("spectrum", "profile", "validate")


def _fmt(x):
    # 9 significant digits survive the CLI's float() parse unchanged, and
    # the reference parses the same string, so both see one value
    return f"{x:.9g}"


class Config:
    """One well configuration, carried as the exact strings the CLI gets."""

    __slots__ = ("alpha", "lam", "gamma", "d_alpha")

    def __init__(self, alpha, lam, gamma, d_alpha):
        self.alpha, self.lam, self.gamma, self.d_alpha = alpha, lam, gamma, d_alpha

    def argv(self):
        return ["--alpha", self.alpha, "--lambda", self.lam,
                "--gamma", self.gamma, "--d-alpha", self.d_alpha]

    def as_dict(self):
        return {"alpha": self.alpha, "lam": self.lam,
                "gamma": self.gamma, "d_alpha": self.d_alpha}


def _radical_inverse(i, base):
    out, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * f
        f /= base
    return out


def _config(u, pins):
    def span(lo_hi, t):
        return lo_hi[0] + (lo_hi[1] - lo_hi[0]) * t

    alpha = span(ALPHA_RANGE[::-1], u[0])            # (1, 2]
    lam = span(LAMBDA_RANGE[::-1], u[1])             # (0, 1]
    gamma = 10.0 ** span(LOG10_GAMMA_RANGE, u[2])
    d = 10.0 ** span(LOG10_D_RANGE, u[3])
    a_s, l_s = _fmt(alpha), _fmt(lam)
    if float(a_s) <= 1.0:            # rounding must not leave the domain
        a_s = _fmt(1.0 + 1e-8)
    if float(l_s) <= 0.0:
        l_s = _fmt(1e-8)
    if pins and u[4] < CLASSICAL_SHARE:
        a_s, l_s = "2", "1"
    elif pins and u[4] < CLASSICAL_SHARE + LINE_SHARE:
        l_s = "1"
    return Config(a_s, l_s, _fmt(gamma), _fmt(d))


def configs(rng, pins):
    """Endless rotated-Halton stream of configs; with pins, the fifth
    coordinate pins shares of them to alpha = 2, lam = 1 and to lam = 1."""
    shift = [rng.random() for _ in _BASES]
    i = 0
    while True:
        i += 1
        yield _config([(_radical_inverse(i, b) + s) % 1.0
                       for b, s in zip(_BASES, shift)], pins)


class Request:
    """One CLI call: its argv and, for config-driven modes, the config."""

    __slots__ = ("argv", "config")

    def __init__(self, argv, config=None):
        self.argv, self.config = argv, config


def stream(workload, seed):
    """Endless deterministic request stream for (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "validate":
        # the suite's inputs are pinned, so the seed changes nothing
        while True:
            yield Request(["--mode", "validate"])
    rng = random.Random(f"fracwell-bench/{workload}/{seed}")
    for cfg in configs(rng, pins=workload == "profile"):
        if workload == "spectrum":
            argv = ["--mode", "energy", "--format", "json"] + cfg.argv()
        else:
            x_min, x_max, steps = PROFILE_GRID
            argv = (["--mode", "wavefunction"] + cfg.argv()
                    + ["--x-min", x_min, "--x-max", x_max, "--x-steps", steps])
        yield Request(argv, cfg)
