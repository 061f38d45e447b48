"""hslab: desk-scale numerics for critical Neumann problems with
Hardy-type singular weights.

Subpackages cover the whole-space best constants and extremal profiles,
compactness-threshold identities, boundary-bubble energy asymptotics, and a
grid-based mountain-pass solver, plus the quadrature engine they share.
"""

from . import boundary_energy, extremals, identities, quadrature, variational

__all__ = [
    "boundary_energy",
    "cli",
    "extremals",
    "identities",
    "quadrature",
    "variational",
]

__version__ = "0.1.0"
