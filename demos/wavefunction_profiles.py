"""Position-space bound-state profiles across the parameter window.

Emits a CSV (stdout or a file given as argv[1]) with one column per
(alpha, lambda) pair, normalized so every profile starts at 1.  Only
at alpha=2, lam=1 is the profile a pure exponential; elsewhere the
large-x tail is algebraic, which is easiest to see on a log-log plot
of the emitted columns.
"""

import csv
import sys

import numpy as np

from fracwell.deltawell import PotentialConfig, energy_closed_form, position_wavefunction_quadrature

PAIRS = ((2.0, 1.0), (1.8, 1.0), (1.5, 0.8), (1.5, 0.5))


def main(out=sys.stdout):
    xs = np.linspace(0.1, 12.0, 40)
    cols = {}
    for a, lam in PAIRS:
        cfg = PotentialConfig(alpha=a, lam=lam)
        st = energy_closed_form(cfg)
        phi, _ = position_wavefunction_quadrature(st, cfg, xs)
        cols[f"a{a}_l{lam}"] = phi / phi[0]
        # quick tail diagnostic: log-slope between the last two octaves
        i, j = 20, 39
        slope = np.log(cols[f"a{a}_l{lam}"][j] / cols[f"a{a}_l{lam}"][i]) \
            / np.log(xs[j] / xs[i])
        print(f"# alpha={a} lam={lam}: E={st.energy:.6f} kappa={st.kappa:.6f} "
              f"log-log tail slope ~ {slope:.3f}", file=sys.stderr)

    w = csv.writer(out, lineterminator="\n")
    w.writerow(["x"] + list(cols))
    for i, x in enumerate(xs):
        w.writerow([f"{x:.6f}"] + [f"{cols[k][i]:.9e}" for k in cols])


if __name__ == "__main__":
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            main(fh)
    else:
        main()
