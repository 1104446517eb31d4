"""Bound states of a delta-potential well in fractional-dimensional space.

The package has four numerical layers plus a command line front end:

- ``quadrature``: one trapezoid rule in log x for half-line
  integrals and an oscillatory rule.  Every closed form
  in the package is cross-checked against this layer, so it stays
  deliberately independent of the rest.
- ``gammafn`` / ``hfox``: complex gamma kernel and a Fox H-function
  engine (eval_auto: residue series with eval_contour, the Mellin-Barnes
  contour, as its fallback; Mellin transform; parameter algebra), each
  evaluation over a whole argument array.
- ``measure``: the fractional measure d^lam(x), its delta family,
  Fourier transforms.
- ``deltawell``: the spectral problem itself; closed-form energy, an
  independent quadrature oracle, and the wavefunction routes.

Import each name from its module; the package exports only __version__.
"""

__version__ = "0.1.0"
