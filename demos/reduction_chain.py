"""Follow the wavefunction's H-function reduction step by step.

Starting point: the position wavefunction is the cosine transform of
gamma / ((2 pi hbar)^lam (D p^alpha + |E|)), and the momentum kernel is
itself an H-function.  The chain below transforms, rescales the
argument power away, shifts, and cancels matched gamma pairs until a
one-gamma H-function is left.  At alpha=2, lam=1 that endpoint is the
plain exponential, so every intermediate can be checked numerically.

The transform identity this rests on is applied per instance and
numerically re-verified each time (cosine_transform_check); the chain
is not trusted symbolically.
"""

import math

from fracwell import hfox as hf
from fracwell.hfox import HFoxParams, eval_auto, eval_contour


def show(tag, params):
    print(f"{tag}: H^{{{params.m},{params.n}}}_{{{params.p},{params.q}}}")
    print(f"   upper {params.upper}")
    print(f"   lower {params.lower}")


def main():
    # momentum kernel 1/(p^2 + 1/4) at the classical bound energy,
    # written as an H-function of argument 4 p^2
    kern = HFoxParams(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),),
                      arg_scale=4.0)
    show("kernel", kern)

    ct = hf.cosine_transform(kern, k=1.0, s=1.0, mu=2.0)
    show("after cosine transform", ct.params)
    print(f"   multiplier {ct.multiplier:.6f}, argument {ct.argument}, "
          f"verified yet: {ct.verified}")

    chk = hf.cosine_transform_check(kern, k=1.0, s=1.0, mu=2.0)
    print(f"   numeric check: lhs={chk.lhs:.12f} rhs={chk.rhs:.12f} "
          f"rel={chk.rel_err:.1e} -> verified {chk.transform.verified}")
    print(f"   (closed form of the lhs here: pi/4 e^(-1/2) = "
          f"{math.pi / 4 * math.exp(-0.5):.12f})")

    resc, mult = hf.rescale_power(ct.params, 2.0)
    shifted = hf._shift(resc, -1.0)
    show("after rescale + shift", shifted)

    step = shifted
    while True:
        try:
            step = hf.cancel_pairs(step)
        except hf.NoMatchingPair:
            break
        show("after cancellation", step)

    print("\nnumeric consistency along the chain at z = 0.7:")
    v_full = eval_contour(shifted, 0.7)[0]
    v_red = eval_auto(step, 0.7)[0]
    print(f"   unreduced (contour): {v_full:.15f}")
    print(f"   reduced   (series):  {v_red:.15f}")
    print(f"   e^-0.7:              {math.exp(-0.7):.15f}")


if __name__ == "__main__":
    main()
