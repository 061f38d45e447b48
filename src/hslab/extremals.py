"""Extremal profiles and best constants for the Hardy-Sobolev quotient.

For dimension N >= 3 and weight exponent s in (0, 2) the critical exponent
is q = 2(N-s)/(N-2), and the quotient

    Q(u) = ||grad u||_2^2 / ( integral |u|^q |x|^(-s) dx )^(2/q)

over R^N is minimised along a one-parameter family of radial profiles.  The
concentrating profile used throughout this package is

    bubble(x; eps) = eps^((N-2)/(2(2-s))) * (eps + |x|^(2-s))^((2-N)/(2-s)),

whose Dirichlet energy and weighted critical mass are eps-independent and
give the best constant

    S = grad_energy / weighted_mass^((N-2)/(N-s)).

Both moments of every (N, s) a call asks for are rows of one stacked
tanh-sinh run (``whole_space_constants_batch``; ``whole_space_constants`` is
its one-pair case), and the results are kept in one least-recently-used
cache of ``CONSTANTS_CACHE_SIZE`` entries.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import (
    DEFAULT_REL_TOL,
    RadialPowerIntegrand,
    integrate_radial_powers,
    sphere_surface_area,
)

__all__ = [
    "CONSTANTS_CACHE_SIZE",
    "HSParams",
    "NonPositiveEps",
    "WholeSpaceConstants",
    "bubble_radial",
    "whole_space_constants",
    "whole_space_constants_batch",
]


class NonPositiveEps(ValueError):
    """The bubble needs a strictly positive concentration parameter eps."""


@dataclass(frozen=True)
class HSParams:
    """Dimension and weight exponent (N >= 3 integer, 0 < s < 2)."""

    N: int
    s: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or self.N < 3:
            raise ValueError("N must be an integer >= 3")
        if not (0.0 < self.s < 2.0) or not math.isfinite(self.s):
            raise ValueError("s must lie in the open interval (0, 2)")

    @property
    def two_star(self) -> float:
        """Critical exponent 2(N-s)/(N-2); always in (2, 2N/(N-2))."""
        return 2.0 * (self.N - self.s) / (self.N - 2.0)

    @property
    def profile_decay(self) -> float:
        """b = 2(N-s)/(2-s): the bubble's critical density is (1 + r^(2-s))^(-b)."""
        return 2.0 * (self.N - self.s) / (2.0 - self.s)


@dataclass(frozen=True)
class WholeSpaceConstants:
    """Bubble Dirichlet energy, weighted critical mass, best constant."""

    grad_energy: float
    weighted_mass: float
    best_constant: float


def bubble_radial(r, eps: float, p: HSParams):
    """Concentrating profile at radius r >= 0 (vectorized in r).

    bubble(0) = eps**(-(N-2)/(2(2-s))), and the family is generated from the
    eps = 1 member by the invariance
    bubble(r; eps) = eps^(-(N-2)/(2(2-s))) * bubble(r * eps^(-1/(2-s)); 1).
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise NonPositiveEps("eps must be a positive real")
    r = np.asarray(r, dtype=float)
    n, s = p.N, p.s
    pref = eps ** ((n - 2.0) / (2.0 * (2.0 - s)))
    return pref * (eps + r ** (2.0 - s)) ** ((2.0 - n) / (2.0 - s))


# Whole-space constants already computed, keyed by (HSParams, rel_tol) and
# ordered from least to most recently used; the least recently used entry
# goes once more than CONSTANTS_CACHE_SIZE are held, so a long-lived process
# that sweeps s stays bounded.
CONSTANTS_CACHE_SIZE = 128
_CONSTANTS: OrderedDict[tuple[HSParams, float], WholeSpaceConstants] = OrderedDict()
_CONSTANTS_LOCK = threading.Lock()


def whole_space_constants_batch(
    ps: Sequence[HSParams], rel_tol: float = DEFAULT_REL_TOL
) -> list[WholeSpaceConstants]:
    """:func:`whole_space_constants` of every pair in ``ps``, in order.

    The grad and mass moments of every distinct pair not in the cache are
    the members of one :func:`integrate_radial_powers` call, so a list of
    pairs takes one stacked tanh-sinh run.  A member's value does not
    depend on the members stacked with it, so each result is bit-identical
    to computing its pair alone.  The new results fill the cache, which
    keeps the ``CONSTANTS_CACHE_SIZE`` most recently used pairs.

    Raises
    ------
    ToleranceNotMet
        From the stacked run; no result of the call is cached then.
    """
    found = {}
    with _CONSTANTS_LOCK:
        for p in ps:
            if (p, rel_tol) in _CONSTANTS:
                _CONSTANTS.move_to_end((p, rel_tol))
                found[p] = _CONSTANTS[p, rel_tol]
    misses = [p for p in dict.fromkeys(ps) if p not in found]
    if not misses:
        return [found[p] for p in ps]
    moments = integrate_radial_powers(
        [
            RadialPowerIntegrand(a, p.profile_decay, p.s)
            for p in misses
            for a in (p.N + 1.0 - 2.0 * p.s, p.N - 1.0 - p.s)
        ],
        rel_tol,
    )
    for p, grad_moment, mass_moment in zip(misses, moments[::2], moments[1::2]):
        n, s = p.N, p.s
        omega = sphere_surface_area(n)
        grad = (n - 2.0) ** 2 * omega * grad_moment
        mass = omega * mass_moment
        found[p] = WholeSpaceConstants(
            grad_energy=grad,
            weighted_mass=mass,
            best_constant=grad / mass ** ((n - 2.0) / (n - s)),
        )
    with _CONSTANTS_LOCK:
        for p in misses:
            _CONSTANTS[p, rel_tol] = found[p]
            _CONSTANTS.move_to_end((p, rel_tol))
        while len(_CONSTANTS) > CONSTANTS_CACHE_SIZE:
            _CONSTANTS.popitem(last=False)
    return [found[p] for p in ps]


def whole_space_constants(p: HSParams, rel_tol: float = DEFAULT_REL_TOL) -> WholeSpaceConstants:
    """Dirichlet energy and weighted mass of the unit bubble, best constant.

    grad_energy = (N-2)^2 * omega * int r^(N+1-2s) (1+r^(2-s))^(-2(N-s)/(2-s)) dr,
    weighted_mass = omega * int r^(N-1-s) (1+r^(2-s))^(-2(N-s)/(2-s)) dr,
    with omega the surface area of the unit sphere in R^N.  For
    (N, s) = (3, 1) the radial integrals close to 1/3 and 1/6, giving
    4 pi/3, 2 pi/3 and best constant sqrt(8 pi / 3).  The one-pair case of
    :func:`whole_space_constants_batch`, so results are cached.
    """
    return whole_space_constants_batch([p], rel_tol)[0]
