"""A short tour of the H-function engine on instances with known values.

H^{1,0}_{0,1}[z | (0,1)] is e^{-z}; H^{1,1}_{1,1}[z | (0,1);(0,1)] is
1/(1+z).  eval_auto (the residue series, with the Mellin-Barnes contour
as its fallback) runs beside the contour alone, and reports which of the
two answered.  Both take a whole array of arguments, but a contour
value's last digits depend on the arguments that share its line, so
each z is asked for on its own here.  Then the Mellin transform of each
instance is checked against direct quadrature.
"""

import math

from fracwell.hfox import HFoxParams, eval_auto, eval_contour, mellin, mellin_numeric_check

EXP = HFoxParams(m=1, n=0, upper=(), lower=((0.0, 1.0),))
RAT = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),))


def main():
    print("exponential instance (the alternating series cancels at large z;")
    print("the contour's line moves with z and keeps relative accuracy)")
    print(f"{'z':>6} {'eval_auto':>20} {'method':>8} {'contour':>20} {'e^-z':>20}")
    for z in (0.3, 1.0, 3.0, 20.0, 100.0):
        a, _, series = eval_auto(EXP, z)
        c, _ = eval_contour(EXP, z)
        method = "series" if series else "contour"
        print(f"{z:6.1f} {a:20.13e} {method:>8} {c:20.13e} "
              f"{math.exp(-z):20.13e}")

    print("\nrational instance (series switches to the 1/z expansion past z=1;")
    print("a guard annulus around |z|=1 is refused and left to the contour)")
    print(f"{'z':>6} {'eval_auto':>20} {'method':>8} {'contour':>20} {'1/(1+z)':>20}")
    for z in (0.3, 0.7, 1.0, 1.26, 5.0):
        a, _, series = eval_auto(RAT, z)
        c, _ = eval_contour(RAT, z)
        method = "series" if series else "contour"
        print(f"{z:6.2f} {a:20.14f} {method:>8} {c:20.14f} "
              f"{1 / (1 + z):20.14f}")

    print("\nMellin transforms: gamma products vs direct quadrature")
    for params, name, pts in ((EXP, "exp", (0.5, 1.0, 2.5)),
                              (RAT, "rational", (0.25, 0.5, 0.75))):
        for s, chk in zip(pts, mellin_numeric_check(params, pts)):
            print(f"  {name:8s} s={s:4.2f}: analytic={chk.analytic:.10f} "
                  f"numeric={chk.numeric:.10f} rel={chk.rel_err:.1e}")

    # a classic: the rational Mellin transform at s=1/2 is
    # Gamma(1/2)^2 = pi
    print(f"\nmellin(RAT, 1/2) = {float(mellin(RAT, 0.5))!r}  (pi = {math.pi!r})")


if __name__ == "__main__":
    main()
