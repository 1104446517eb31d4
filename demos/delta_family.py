"""The fractional Dirac delta as a Gaussian family under the weighted measure.

delta_eps(x) = eps^lam e^{-pi eps^2 x^2} carries unit mass under the
order-lam measure for every eps; the sifting property only emerges in
the eps -> infinity limit.  This script shows the mass staying pinned
while the sifting error decays like 1/eps^2.
"""

import numpy as np

from fracwell.measure import DeltaFamily, MeasureDim, delta_value, integrate, sift


def main():
    print("unit mass at every width (value of integral delta_eps d^lam x):")
    for lam in (0.4, 0.7, 1.0):
        dim = MeasureDim(lam=lam)
        masses = []
        for eps in (1.0, 4.0, 16.0):
            fam = DeltaFamily(dim=dim, epsilon=eps)
            v, _ = integrate(dim, lambda x: delta_value(fam, x))
            masses.append(v)
        print(f"  lam={lam}: " + "  ".join(f"{m:.12f}" for m in masses))

    print("\nsifting error for f=cos against eps (should fall ~4x per doubling):")
    dim = MeasureDim(lam=0.8)
    prev = None
    for eps in (2.0, 4.0, 8.0, 16.0, 32.0):
        v, _ = sift(dim, lambda x: np.cos(x), eps)
        err = abs(v - 1.0)
        ratio = "" if prev is None else f"  ratio {prev / err:5.2f}"
        print(f"  eps={eps:5.1f}: sift={v:.10f}  err={err:.3e}{ratio}")
        prev = err

    print("\nodd functions sift to zero at any width:")
    v, _ = sift(dim, lambda x: np.asarray(x, dtype=float) ** 3, 8.0)
    print(f"  f=x^3, eps=8: {v:.3e}")


if __name__ == "__main__":
    main()
