"""The alpha=2, lam=1 corner is ordinary quantum mechanics.

Everything has a textbook answer there: E = -m gamma^2 / (2 hbar^2)
with m = 1/(2 D), and the normalized wavefunction sqrt(kappa)
e^{-kappa|x|}.  This script walks the whole pipeline through that
corner and prints each quantity next to its textbook value.
"""

import math

from fracwell.deltawell import (
    PotentialConfig,
    energy_closed_form,
    normalize,
    position_wavefunction_hfox,
    position_wavefunction_quadrature,
)

cfg = PotentialConfig(alpha=2.0, d_alpha=1.0, gamma_strength=1.0, hbar=1.0, lam=1.0)


def main():
    st = energy_closed_form(cfg)
    m_eff = 1.0 / (2.0 * cfg.d_alpha)
    e_text = -m_eff * cfg.gamma_strength ** 2 / (2.0 * cfg.hbar ** 2)
    print(f"energy: {st.energy!r}")
    print(f"textbook -m g^2/(2 hbar^2): {e_text!r}")
    print(f"kappa: {st.kappa!r}  (sqrt(|E|/D)/hbar = {math.sqrt(-st.energy):.12f})")

    st = normalize(st, cfg)
    print(f"\nnormalized amplitude: {st.amplitude:.12f}")
    print(f"{'x':>5} {'phi (quadrature)':>18} {'sqrt(k) e^(-kx)':>18}")
    for x in (0.0, 0.5, 1.0, 2.0, 4.0):
        ph, _ = position_wavefunction_quadrature(st, cfg, x)
        text = math.sqrt(st.kappa) * math.exp(-st.kappa * x)
        print(f"{x:5.1f} {ph:18.12f} {text:18.12f}")

    # the H-function route evaluates the same transform exactly, with the
    # same prefactor and amplitude, so its values match the quadrature's
    # within the two routes' summed error estimates
    print(f"\n{'x':>5} {'phi (H form)':>18} {'phi (quadrature)':>18} "
          f"{'|gap|':>9} {'err sum':>9}")
    xs = (0.5, 1.0, 2.0, 4.0)
    hv, herr = position_wavefunction_hfox(st, cfg, xs)
    qv, qerr = position_wavefunction_quadrature(st, cfg, xs)
    for x, h, q, e in zip(xs, hv, qv, herr + qerr):
        print(f"{x:5.1f} {h:18.12f} {q:18.12f} {abs(h - q):9.2e} {e:9.2e}")


if __name__ == "__main__":
    main()
