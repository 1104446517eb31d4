"""Bound states of a delta-potential well in fractional-dimensional space.

The package has four numerical layers plus a command line front end:

- ``quadrature``: adaptive and oscillatory integration, ITP root
  finding.  Every closed form in the package is cross-checked against
  this layer, so it stays deliberately independent of the rest.
- ``gammafn`` / ``hfox``: complex gamma kernel and a Fox H-function
  engine (residue series with a Mellin-Barnes contour fallback behind
  eval_auto, Mellin transform, parameter algebra).
- ``measure``: the fractional measure d^lam(x), its delta family,
  Fourier transforms.
- ``deltawell``: the spectral problem itself; closed-form energy, an
  independent quadrature oracle, and the wavefunction routes.
"""

from .quadrature import (
    NumericalFailure,
    QuadSpec,
    QuadFailure,
    NonIntegrable,
    NonDecaying,
    NoBracket,
    integrate_adaptive,
    integrate_oscillatory,
    root_itp,
)
from .hfox import (
    HFoxParams,
    EvalOutcome,
    eval_contour,
    eval_auto,
    mellin,
    mellin_numeric_check,
    rescale_power,
    cancel_pairs,
    cosine_transform,
    cosine_transform_check,
)
from .measure import (
    MeasureDim,
    DeltaFamily,
    integrate,
    delta_value,
    sift,
    fourier_forward,
    fourier_inverse,
)
from .deltawell import (
    DomainError,
    BracketFailure,
    PotentialConfig,
    BoundState,
    energy_closed_form,
    energy_oracle,
    momentum_wavefunction,
    position_wavefunction_quadrature,
    position_wavefunction_hfox,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "NumericalFailure", "QuadSpec", "QuadFailure", "NonIntegrable",
    "NonDecaying", "NoBracket", "integrate_adaptive", "integrate_oscillatory",
    "root_itp",
    "HFoxParams", "EvalOutcome", "eval_contour", "eval_auto",
    "mellin", "mellin_numeric_check", "rescale_power", "cancel_pairs",
    "cosine_transform", "cosine_transform_check",
    "MeasureDim", "DeltaFamily", "integrate",
    "delta_value", "sift", "fourier_forward", "fourier_inverse",
    "DomainError", "BracketFailure", "PotentialConfig", "BoundState",
    "energy_closed_form", "energy_oracle", "momentum_wavefunction",
    "position_wavefunction_quadrature", "position_wavefunction_hfox",
    "normalize",
    "__version__",
]
