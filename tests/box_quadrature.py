"""Brute-force midpoint integration over axis-aligned boxes.

A cross check for the tests: plain tensor midpoint sums, with no adaptivity
and no special treatment of singular points.  The library itself never
integrates over boxes this way.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from hslab.quadrature import NonFinite


def integrate_box(
    f: Callable[[np.ndarray], np.ndarray],
    box: Sequence[tuple[float, float]],
    cells_per_axis: int,
    *,
    chunk: int = 1 << 18,
) -> float:
    """Midpoint-rule integral of a vectorized scalar field over a box.

    Parameters
    ----------
    f : callable
        Receives an (M, N) array of points, returns (M,) values.
    box : sequence of (lo, hi) pairs
        Axis-aligned bounds, one pair per dimension.
    cells_per_axis : int
        Uniform midpoint cells along every axis.

    Notes
    -----
    O(h^2) accurate for twice-differentiable integrands; midpoints never lie
    on the box boundary, so integrable edge singularities are tolerated.
    Raises :class:`NonFinite` if the field returns NaN/inf anywhere.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in box]
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("each axis needs hi > lo")
    if cells_per_axis < 1:
        raise ValueError("cells_per_axis must be >= 1")
    ndim = len(bounds)
    axes = [lo + (hi - lo) * (np.arange(cells_per_axis) + 0.5) / cells_per_axis for lo, hi in bounds]
    cell_vol = math.prod((hi - lo) / cells_per_axis for lo, hi in bounds)
    total = 0.0
    n_cells = cells_per_axis**ndim
    # walk the tensor grid in fixed row-major chunks
    for start in range(0, n_cells, chunk):
        idx = np.arange(start, min(start + chunk, n_cells))
        pts = np.empty((idx.size, ndim))
        rem = idx
        for d in range(ndim - 1, -1, -1):
            rem, k = np.divmod(rem, cells_per_axis)
            pts[:, d] = axes[d][k]
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (idx.size,) or not np.all(np.isfinite(vals)):
            raise NonFinite("field returned non-finite values on the box")
        total += float(np.sum(vals))
    return total * cell_vol
