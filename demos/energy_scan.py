"""Scan the bound-state energy over the (alpha, lambda) parameter square.

Two independent routes are compared at every point: the closed-form
gamma-product expression, and the root in log|E| of the defining
spectral condition, whose integral is taken by a trapezoid rule in log p.  Agreement across
the grid is the main evidence that the closed form is transcribed correctly.
"""

import numpy as np

from fracwell.deltawell import PotentialConfig, energy_closed_form, energy_oracle

alphas = (1.2, 1.5, 1.8, 2.0)
lams = (0.3, 0.5, 0.8, 1.0)


def main():
    print(f"{'alpha':>6} {'lambda':>7} {'E closed':>16} {'E oracle':>16} {'rel dev':>10}")
    worst = 0.0
    for a in alphas:
        for lam in lams:
            cfg = PotentialConfig(alpha=a, lam=lam)
            ec = energy_closed_form(cfg).energy
            eo = energy_oracle(cfg).energy
            rel = abs(ec - eo) / abs(eo)
            worst = max(worst, rel)
            print(f"{a:6.2f} {lam:7.2f} {ec:16.10f} {eo:16.10f} {rel:10.2e}")
    print(f"\nworst relative deviation: {worst:.2e}")

    # binding deepens monotonically with lambda at fixed alpha: a useful
    # sanity plot if you dump this table
    print("\nE(alpha=1.5, lam) for a dense lambda sweep:")
    for lam in np.linspace(0.1, 0.99, 7):
        e = energy_closed_form(PotentialConfig(alpha=1.5, lam=float(lam))).energy
        print(f"  lam={lam:5.3f}  E={e:12.8f}")


if __name__ == "__main__":
    main()
