"""Discrete energy functional and mountain-pass solver on a Neumann box.

The domain is an axis-aligned box with a uniform vertex-centered grid per
axis (nodes include the faces).  The energy of a node field u is

    (1/2) * sum(|grad u|**2 + lambda u**2) - sum_i (1/q_i) * int w_i * u_+**q_i

with q_i = 2(N - s_i)/(N - 2) and w_i the discretised singular weight
|x - x_i|**(-s_i).  The quadratic part is <u, L u>, L the stencil matrix:
per axis, forward-difference fluxes times edge volumes (transverse
trapezoid weights), which is exactly the variational form of the
ghost-node reflection Neumann stencil.  Its Euler derivative at a face
node is the reflected second-order formula, and the gradient returned here
is L u minus the mass terms, the exact derivative of the energy actually
evaluated.

Every full-grid pass of these kernels is contiguous.  Differences along
axis k are taken on the flat row-major layout, d[j] = u[j + step] - u[j]
with ``step`` the stride of axis k, and the entries on the axis's last
layer, which wrap into the next row, are zeroed through one strided view;
the stencil then updates its flat output at offsets +step and 0.  One
coefficient c_k = cell / h_k**2 per axis weighs the edges, with the
transverse faces halved, and the small integer powers of the mass terms
(4 and 3 for s = 1 in three dimensions) go by multiplication.

The solver minimises the energy over the Nehari set (fields with
d/dt energy(t u) = 0 at t = 1): each iteration rescales the iterate to its
Nehari point, steps along an L-BFGS direction of the projected functional
J(x) = energy(t(x) x), and backtracks from a unit step until the composed
move decreases the Nehari-point energy.  The direction's initial inverse
Hessian is the Riesz map L^-1 of the (grad, grad) + lambda (., .) inner
product, and ``MEMORY`` curvature pairs correct it.  The generalized
eigenpairs of each axis's 1-D stiffness and trapezoid mass diagonalize L
(fast diagonalization): V^T L V = diag(lambda + sum_k mu_k), V the tensor of
the per-axis eigenvectors.  So the quasi-Newton algebra runs in these modal
coordinates, where L^-1 divides by that symbol: each iteration maps the
derivative field g to modes once (g^ = V^T g, one GEMM per axis), runs the
two-loop recursion on modal arrays, and maps the direction back once
(d = V d^).  Every L-BFGS quantity pairs a node field x (modes
x^ = V^-1 x) with a derivative field g, and <x, g> = x^ . g^, so the
iterates are those of the recursion on node fields in exact arithmetic.
Along the search ray v - t d the quadratic part is the polynomial
a0 - 2 t a1 + t**2 a2: a0 = <v, L v> and a1 = <d, L v> come from the
stencil L v that the gradient kernel forms anyway, and
a2 = sum((lambda + sum_k mu_k) * d^**2) from the modal direction.  A trial
therefore costs one pass for its masses B_q, grouped by distinct
exponent with one summed weight array W_q per exponent (one power, one
multiply and one sum each); its Nehari scale and energy then follow in
closed form as the peak over tau of A tau**2/2 - sum_q B_q tau**q / q, A
the polynomial's value at the trial's t, and the decrease
test allows for rounding at the level of ``ROUNDING * |energy|``.  The
public ``energy`` and ``gradient`` use the same kernels as the solver.
Fields are plain numpy arrays shaped like the grid.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .extremals import HSParams, bubble_radial
from .identities import NonpositivePart, SingularitySite, ThresholdReport, ps_threshold, ray_peak

__all__ = [
    "DomainGrid",
    "NonpositiveLambda",
    "NonpositivePart",
    "ProblemConfig",
    "ShapeMismatch",
    "Singularity",
    "SolveOptions",
    "SolveReport",
    "bubble_start",
    "energy",
    "gradient",
    "load_field",
    "mountain_pass_solve",
    "nehari_scale",
    "node_volumes",
    "placement_of",
    "save_field",
    "singular_weight",
    "threshold_report",
]


class ShapeMismatch(ValueError):
    """Field shape does not match the grid."""


class NonpositiveLambda(ValueError):
    """The solver requires a strictly positive zeroth-order coefficient."""


# ---------------------------------------------------------------------------
# grid and problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainGrid:
    """Uniform vertex-centered grid on an axis-aligned box.

    ``bounds`` is a tuple of (lo, hi) pairs, one per axis; ``nodes_per_axis``
    counts the nodes along each axis (faces included), at least 8 each.
    Node volumes are trapezoid products (half-weight dual cells at faces),
    so they sum exactly to the box volume.
    """

    bounds: tuple[tuple[float, float], ...]
    nodes_per_axis: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(len(pair) != 2 for pair in self.bounds):
            raise ValueError("each axis needs a (lo, hi) pair of bounds")
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        nodes = tuple(int(n) for n in self.nodes_per_axis)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "nodes_per_axis", nodes)
        if not bounds:
            raise ValueError("bounds must be nonempty")
        if len(nodes) != len(bounds):
            raise ValueError("nodes_per_axis must match the number of axes")
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError("each axis needs finite bounds with hi > lo")
        if any(n < 8 for n in nodes):
            raise ValueError("need at least 8 nodes per axis")

    @property
    def N(self) -> int:
        return len(self.bounds)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes_per_axis

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for (lo, hi), n in zip(self.bounds, self.nodes_per_axis)
        )

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.bounds]))

    def axis_nodes(self, k: int) -> np.ndarray:
        lo, hi = self.bounds[k]
        return np.linspace(lo, hi, self.nodes_per_axis[k])


def _axis_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid dual-cell lengths along an axis of n nodes spaced h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


@lru_cache(maxsize=64)
def _node_volumes(grid: DomainGrid) -> np.ndarray:
    vol = np.ones(grid.shape)
    for k in range(grid.N):
        shape = [1] * grid.N
        shape[k] = grid.nodes_per_axis[k]
        vol = vol * _axis_weights(grid.nodes_per_axis[k], grid.spacing[k]).reshape(shape)
    vol.flags.writeable = False
    return vol


def node_volumes(grid: DomainGrid) -> np.ndarray:
    """Per-node dual-cell volumes (trapezoid product; sums to the box volume)."""
    return _node_volumes(grid)


@dataclass(frozen=True)
class Singularity:
    """A singular site: location inside the closed box and exponent s in (0,2)."""

    location: tuple[float, ...]
    s: float

    def __post_init__(self) -> None:
        loc = tuple(float(x) for x in self.location)
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "s", float(self.s))
        if not all(math.isfinite(x) for x in loc):
            raise ValueError("location must be finite")
        if not (0.0 < self.s < 2.0):
            raise ValueError("exponent s must lie in (0, 2)")


def placement_of(grid: DomainGrid, sing: Singularity) -> float:
    """The site's share theta of the box: 2**-k, k the faces within half a
    cell of it (1 inside, 1/2 on a face, 1/4 on an edge, 1/8 at a corner)."""
    if len(sing.location) != grid.N:
        raise ValueError("singularity dimension does not match the grid")
    k = sum((x <= lo + 0.5 * h) + (x >= hi - 0.5 * h)
            for (lo, hi), h, x in zip(grid.bounds, grid.spacing, sing.location))
    return 0.5**k


@dataclass(frozen=True)
class ProblemConfig:
    """Grid, zeroth-order coefficient, and the list of singular sites."""

    grid: DomainGrid
    lam: float
    singularities: tuple[Singularity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", float(self.lam))
        sings = tuple(self.singularities)
        object.__setattr__(self, "singularities", sings)
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        if not sings:
            raise ValueError("need at least one singular site")
        for sing in sings:
            if len(sing.location) != self.grid.N:
                raise ValueError("singularity dimension does not match the grid")
            for (lo, hi), x in zip(self.grid.bounds, sing.location):
                if not (lo - 1e-12 <= x <= hi + 1e-12):
                    raise ValueError(f"singularity location {sing.location} outside box")
        for i in range(len(sings)):
            for j in range(i + 1, len(sings)):
                gap = math.dist(sings[i].location, sings[j].location)
                if gap < 1e-12:
                    raise ValueError("singular sites must be pairwise distinct")

    def exponents(self) -> tuple[float, ...]:
        return tuple(HSParams(self.grid.N, sing.s).two_star for sing in self.singularities)


def _check_field(grid: DomainGrid, u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.shape != grid.shape:
        raise ShapeMismatch(f"field shape {arr.shape} does not match grid {grid.shape}")
    return arr


# ---------------------------------------------------------------------------
# singular weights
# ---------------------------------------------------------------------------


def _distance_sq(grid: DomainGrid, location: Sequence[float]) -> np.ndarray:
    r2 = np.zeros(grid.shape)
    for k in range(grid.N):
        shape = [1] * grid.N
        shape[k] = grid.nodes_per_axis[k]
        r2 = r2 + ((grid.axis_nodes(k) - location[k]) ** 2).reshape(shape)
    return r2


# Midpoints of the near-node cell averages evaluated in one array.  All 5**N
# near nodes at once would take 5**N * 8**N points (about 0.8 GB at N = 5);
# chunks of this many points (512 KB) stay in cache, and at N = 3 the 125
# near nodes fit in one.
_AVERAGE_CHUNK = 2**16


def _cell_averages(grid: DomainGrid, ranges: Sequence[range], location, s: float) -> np.ndarray:
    """Averages of |x - location|**(-s) over the clipped dual cells of the
    nodes in the product of the index ``ranges``, shaped like that block.

    Uses an 8x-per-axis midpoint refinement; midpoints never coincide with
    ``location`` even when it is exactly a node, and the kernel is locally
    integrable for s < 2 <= N, so the averages are finite.  The squared
    offsets of the midpoints are formed per axis and broadcast over the
    nodes, chunk by chunk, each node's 8**N samples averaged over the
    trailing axes.
    """
    refine = 8
    sq = []  # per axis, (nodes, refine): squared offsets of the midpoints
    for k, r in enumerate(ranges):
        lo, hi = grid.bounds[k]
        h = grid.spacing[k]
        x = grid.axis_nodes(k)[r.start:r.stop, None]
        a, b = np.maximum(lo, x - 0.5 * h), np.minimum(hi, x + 0.5 * h)
        sq.append((a + (np.arange(refine) + 0.5) * (b - a) / refine - location[k]) ** 2)
    block = tuple(len(r) for r in ranges)
    nodes = np.indices(block).reshape(grid.N, -1)
    out = np.empty(nodes.shape[1])
    chunk = max(1, _AVERAGE_CHUNK // refine**grid.N)
    for start in range(0, out.size, chunk):
        sel = nodes[:, start:start + chunk]
        r2 = 0.0
        for k, offsets in enumerate(sq):
            shape = [sel.shape[1]] + [1] * grid.N
            shape[k + 1] = refine
            r2 = r2 + offsets[sel[k]].reshape(shape)
        out[start:start + chunk] = np.mean((r2 ** (-0.5 * s)).reshape(sel.shape[1], -1), axis=1)
    return out.reshape(block)


@lru_cache(maxsize=64)
def _weights_cached(grid: DomainGrid, sing: Singularity) -> np.ndarray:
    loc = sing.location
    with np.errstate(divide="ignore"):
        w = _distance_sq(grid, loc) ** (-0.5 * sing.s)
    center = tuple(
        int(np.clip(round((loc[k] - grid.bounds[k][0]) / grid.spacing[k]), 0,
                    grid.nodes_per_axis[k] - 1))
        for k in range(grid.N)
    )
    ranges = [
        range(max(0, c - 2), min(n, c + 3))
        for c, n in zip(center, grid.nodes_per_axis)
    ]
    w[tuple(slice(r.start, r.stop) for r in ranges)] = _cell_averages(grid, ranges, loc, sing.s)
    w.flags.writeable = False
    return w


def singular_weight(grid: DomainGrid, sing: Singularity) -> np.ndarray:
    """Per-node weights discretising |x - x_i|**(-s_i).

    Nodes within two cells (per axis) of the site get the cell average of
    the kernel over their dual cell (8x-refined midpoint rule, clipped at
    the box); all other nodes get the point value.  The array is cached and
    read-only.
    """
    return _weights_cached(grid, sing)


# ---------------------------------------------------------------------------
# energy, gradient, Nehari scaling
# ---------------------------------------------------------------------------


def _weigh_edges(d: np.ndarray, axis: int) -> None:
    """Halve, in place, the entries of d on the two face layers of every axis
    but ``axis``: the transverse trapezoid weights of the edges along
    ``axis``.  Halving is exact, so this rounds like a multiply by the
    tensor of those weights."""
    for k in range(d.ndim):
        if k != axis:
            # one face at a time: a view of both would run in rows of two
            # along the last axis
            for end in (0, -1):
                face = d[(slice(None),) * k + (end,)]
                face *= 0.5


def _difference(u: np.ndarray, k: int, buf: np.ndarray) -> tuple[np.ndarray, int]:
    """Forward differences of u along axis k on the flat row-major layout,
    written into the flat buffer ``buf`` (at least u.size long).

    With ``step`` the stride of axis k in elements, d[j] = u[j + step] - u[j]
    is one contiguous subtract.  The entries on axis k's last layer wrap
    into the next row; they are zeroed through one strided view, so the
    returned d (shaped like u, a view of ``buf``) is the difference padded
    with a zero layer, and ``step`` is returned with it."""
    flat = u.reshape(-1)
    step = math.prod(u.shape[k + 1:])
    d = buf[: u.size]
    np.subtract(flat[step:], flat[:-step], out=d[:-step])
    d = d.reshape(u.shape)
    d[(slice(None),) * k + (-1,)] = 0.0
    return d, step


class _ExponentWeights(NamedTuple):
    """The mass terms grouped by exponent: the distinct q_i in site order and,
    per q, W_q = node_volumes * sum of the singular weights w_i with q_i = q."""

    qs: tuple[float, ...]
    arrays: tuple[np.ndarray, ...]


def _exponent_weights(cfg: ProblemConfig) -> _ExponentWeights:
    grouped: dict[float, np.ndarray] = {}
    for sing, q in zip(cfg.singularities, cfg.exponents()):
        w = _weights_cached(cfg.grid, sing)
        if q in grouped:
            grouped[q] += w
        else:
            grouped[q] = w.copy()
    for w in grouped.values():
        w *= _node_volumes(cfg.grid)
    return _ExponentWeights(tuple(grouped), tuple(grouped.values()))


def _weighted_power(u: np.ndarray, p: float, w: np.ndarray, term: np.ndarray) -> np.ndarray:
    """W * u_+**p written into ``term``, a scratch array shaped like u.

    The small integer exponents go by multiplication, which costs a few
    passes where numpy's generic float pow costs several times more (the
    s = 1 sites of a 3-D box need q = 4 and q - 1 = 3): p = 2 and 4 are one
    and two squarings of u_+, and p = 3 is (u * u) * u clamped at 0, an odd
    power keeping the sign of u.  Every other p takes ``np.power``."""
    if p == 3.0:
        np.multiply(u, u, out=term)
        term *= u
        np.maximum(term, 0.0, out=term)
    else:
        np.maximum(u, 0.0, out=term)
        if p in (2.0, 4.0):
            for _ in range(int(p) // 2):
                term *= term
        else:
            np.power(term, p, out=term)
    term *= w
    return term


def _masses(u: np.ndarray, weights: _ExponentWeights, term: np.ndarray) -> list[float]:
    """Weighted masses sum(W_q * u_+**q), one per exponent of ``weights``:
    one power, one multiply and one sum each, in the scratch array
    ``term`` shaped like u."""
    return [float(np.sum(_weighted_power(u, q, w, term))) for q, w in zip(*weights)]


def _field_masses(u: np.ndarray, cfg: ProblemConfig) -> tuple[list[float], tuple[float, ...]]:
    """The masses of u per distinct exponent, and those exponents."""
    weights = _exponent_weights(cfg)
    return _masses(u, weights, np.empty(u.shape)), weights.qs


def _edge_coefficients(grid: DomainGrid) -> list[float]:
    """c_k = cell / h_k**2 per axis, cell the product of the spacings in axis
    order: the edge volume over h_k**2 of an edge along axis k away from the
    faces, so that one multiply replaces the divisions by h_k."""
    cell = math.prod(grid.spacing)
    return [cell / h**2 for h in grid.spacing]


def _stencil(u: np.ndarray, cfg: ProblemConfig, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """L u, the reflected Neumann stencil -Lap u + lambda u times the node
    volumes, written into ``out`` (C-contiguous; ``buf``: flat scratch of
    u.size).  L is the matrix of the quadratic part: that part of u is
    <u, L u>.

    Per axis the flux is the flat-offset difference times c_k = cell / h_k**2
    with the transverse faces halved; its wrapped entries are zero, so it
    enters ``out`` through two contiguous updates at offsets +step and 0."""
    grid = cfg.grid
    np.multiply(u, cfg.lam, out=out)
    out *= _node_volumes(grid)
    flat = out.reshape(-1)
    for k, c in enumerate(_edge_coefficients(grid)):
        flux, step = _difference(u, k, buf)
        flux *= c
        _weigh_edges(flux, k)
        flux = flux.reshape(-1)[:-step]
        flat[step:] += flux
        flat[:-step] -= flux
    return out


def _derivative(u: np.ndarray, cfg: ProblemConfig, weights: _ExponentWeights,
                lu: np.ndarray, g: np.ndarray, term: np.ndarray) -> None:
    """Write L u into ``lu`` and the energy's derivative field
    L u - sum_q W_q u_+**(q - 1) into ``g``; ``term`` is a scratch array
    shaped like u."""
    _stencil(u, cfg, lu, term.reshape(-1))
    qs, arrays = weights
    np.subtract(lu, _weighted_power(u, qs[0] - 1.0, arrays[0], term), out=g)
    for q, w in zip(qs[1:], arrays[1:]):
        g -= _weighted_power(u, q - 1.0, w, term)


def _dot(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> float:
    """sum(a * b) with the product in ``buf`` (which may be b): numpy's
    pairwise sum, which, unlike a BLAS dot, rounds the same for any thread
    count.  The ray coefficients a0 = <v, L v> and a1 = <d, L v> stay on it:
    the trial energies built from them are tested against the allowance
    ``ROUNDING``, calibrated on pairwise sums.  The dots of the modal
    direction take ``_modal_dot``."""
    np.multiply(a, b, out=buf)
    return float(np.sum(buf))


def _quadratic_part(u: np.ndarray, cfg: ProblemConfig) -> float:
    """<u, L u>: sum(|grad u|**2) + lambda * sum(u**2), both volume-weighted."""
    lu = _stencil(u, cfg, np.empty(u.shape), np.empty(u.size))
    return _dot(u, lu, lu)


def energy(u, cfg: ProblemConfig) -> float:
    """(1/2) quadratic part minus the weighted critical masses of u_+."""
    arr = _check_field(cfg.grid, u)
    masses, qs = _field_masses(arr, cfg)
    value = 0.5 * _quadratic_part(arr, cfg)
    for m, q in zip(masses, qs):
        value -= m / q
    return value


def gradient(u, cfg: ProblemConfig) -> np.ndarray:
    """Exact derivative field G: plain-dot(G, phi) = d/dt energy(u + t phi).

    Equivalently the reflected Neumann stencil -Lap u + lambda u minus
    sum_i w_i u_+**(q_i - 1), multiplied by the node volumes.  The solver
    evaluates its iterates with this same kernel.
    """
    arr = _check_field(cfg.grid, u)
    lu, g, term = (np.empty(arr.shape) for _ in range(3))
    _derivative(arr, cfg, _exponent_weights(cfg), lu, g, term)
    return g


def nehari_scale(u, cfg: ProblemConfig) -> float:
    """The t > 0 with d/dt energy(t u) = 0, i.e. the ray's peak scale
    (``identities.ray_peak`` of the quadratic part and the masses).
    Raises NonpositivePart when u has no positive part and ValueError when
    a mass or the quadratic part overflows.
    """
    arr = _check_field(cfg.grid, u)
    masses, qs = _field_masses(arr, cfg)
    return ray_peak(_quadratic_part(arr, cfg), masses, qs)[0]


# ---------------------------------------------------------------------------
# modal coordinates of the Riesz map (descent metric)
# ---------------------------------------------------------------------------


class _AxisEigenpairs(NamedTuple):
    """Generalized eigenpairs K V = M V diag(mu), V^T M V = I, of one axis."""

    vectors: np.ndarray  # V: modal coefficients to node values
    mu: np.ndarray


@lru_cache(maxsize=64)
def _axis_eigenpairs(n: int, h: float) -> _AxisEigenpairs:
    """Eigenpairs of the stiffness K of the edge energy sum (du)**2 / h
    against the trapezoid mass M, from eigh of M^-1/2 K M^-1/2."""
    stiff = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
    stiff[0, 0] = stiff[-1, -1] = 1.0 / h
    root = np.sqrt(_axis_weights(n, h))
    mu, w = np.linalg.eigh(stiff / np.outer(root, root))
    pairs = _AxisEigenpairs(vectors=w / root[:, None], mu=mu)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _grid_eigenpairs(grid: DomainGrid) -> list[_AxisEigenpairs]:
    return [_axis_eigenpairs(n, h) for n, h in zip(grid.nodes_per_axis, grid.spacing)]


@lru_cache(maxsize=1)
def _riesz_symbol(grid: DomainGrid, lam: float) -> np.ndarray:
    """lam + sum_k mu_k over the tensor grid of modes (one full-grid array,
    so only the latest (grid, lam) is kept: a solve uses one).  The Riesz
    map divides modal coefficients by it, a pass as fast as a multiply by
    a reciprocal, and the modal quadratic part weighs by it."""
    sym = np.full(grid.shape, lam)
    for k, pairs in enumerate(_grid_eigenpairs(grid)):
        shape = [1] * grid.N
        shape[k] = grid.nodes_per_axis[k]
        sym = sym + pairs.mu.reshape(shape)
    sym.flags.writeable = False
    return sym


def _contract_axes(a: np.ndarray, mats: Sequence[np.ndarray], out: np.ndarray,
                   scratch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply the square mats[k] along axis k for every k, into ``out``
    (C-contiguous, shaped like a): one GEMM per axis, each contracting the
    leading axis and rotating it to the back, so the axes end in their
    order.  The products before the last alternate between the two
    C-contiguous ``scratch`` arrays of a.size, so no GEMM allocates."""
    z = a
    for k, mat in enumerate(mats):
        dest = out if k == len(mats) - 1 else scratch[k % 2]
        prod = dest.reshape(-1, mat.shape[0])
        np.matmul(z.reshape(z.shape[0], -1).T, mat.T, out=prod)
        z = prod.reshape(z.shape[1:] + mat.shape[:1])
    return out


def _to_modes(g: np.ndarray, grid: DomainGrid, out: np.ndarray,
              scratch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """V^T g along every axis: the modal coefficients of a derivative field
    g, paired with those of a node field x = V x^ by <x, g> = x^ . g^."""
    return _contract_axes(g, [p.vectors.T for p in _grid_eigenpairs(grid)], out, scratch)


def _from_modes(x: np.ndarray, grid: DomainGrid, out: np.ndarray,
                scratch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """V x along every axis: the node field of the modal coefficients x."""
    return _contract_axes(x, [p.vectors for p in _grid_eigenpairs(grid)], out, scratch)


def _modal_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) of two C-contiguous arrays in one einsum pass: no product
    array and no BLAS, so it rounds the same for any thread count."""
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def _modal_quadratic_part(x: np.ndarray, sym: np.ndarray) -> float:
    """Q(V x) = sum(sym * x**2), the quadratic part of the node field whose
    modal coefficients are x (C-contiguous).

    One einsum pass sums each row along the leading axis, and numpy's
    pairwise sum adds the row sums, in the time of one einsum over the
    whole grid.  That single running sum of these positive terms rounds up
    to 2e-15 relative at 16**3, as much as Q(V x) and Q of the rounded node
    field V x differ by."""
    rows = (x.shape[0], -1)
    x = x.reshape(rows)
    return float(np.einsum("ij,ij,ij->i", x, x, sym.reshape(rows)).sum())


def _lbfgs_direction(g: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray, float]],
                     sym: np.ndarray, q: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """H g by the L-BFGS two-loop recursion (Nocedal, Math. Comp. 1980) over
    the curvature pairs (s, y, 1 / <s, y>), oldest first, in modal
    coordinates: g, every s and y and the result are modal arrays, and the
    initial inverse Hessian H0, the Riesz map L^-1, divides by the symbol
    ``sym``.  ``q`` and ``buf`` are scratch arrays shaped like g; with no
    pairs the result is g / sym."""
    alphas = []
    qk = g  # the recursion's q: g itself until the first pair writes the scratch q
    for s, y, rho in reversed(pairs):
        alpha = rho * _modal_dot(s, qk)
        qk = np.subtract(qk, np.multiply(y, alpha, out=buf), out=q)
        alphas.append(alpha)
    r = np.divide(qk, sym)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        beta = rho * _modal_dot(y, r)
        r += np.multiply(s, alpha - beta, out=buf)
    return r


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 20000
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.grad_tol <= 0.0:
            raise ValueError("max_iters must be >= 1 and grad_tol > 0")


# Sufficient-decrease factor of the line search's Armijo test (Nocedal &
# Wright, Numerical Optimization, 2006, sec. 3.1).
ARMIJO = 1e-4

# Allowance, relative to |energy|, by which a line-search trial may exceed the
# Armijo bound.  A trial's energy comes in closed form from its ray polynomial
# and masses (``ray_peak``); over the 203 trials of one solve-nonconst
# benchmark round it differed from the energy re-assembled from the rescaled
# field by at most 1.7e-15 relative.  Near convergence the Armijo decrease
# falls below that rounding and no step can pass an exact test: without the
# allowance 12 of the 24 solves of the tests' 32^3-40^3, lambda 5-50 matrix
# stall short of their tolerance.  Compare the approximate Wolfe conditions
# of Hager & Zhang (SIAM J. Optim. 2005).
ROUNDING = 64 * np.finfo(float).eps

# Curvature pairs kept by the L-BFGS direction (Liu & Nocedal, Math. Prog.
# 1989).  Its initial inverse Hessian is the exact H1 Riesz map, and the
# projected energy's Hessian is that metric plus a relatively compact
# singular term, so a few pairs capture most of the difference.
MEMORY = 3


@dataclass(frozen=True)
class SolveReport:
    """Outcome of ``mountain_pass_solve``.

    ``residual_sup`` is max |gradient(u) / node_volumes| of the returned
    field: a sup of pointwise terms that cancel from about 12/h**2 times
    the field, so rounding-level changes of the solver path move it by
    absolute amounts of that size times machine epsilon, far above
    rounding relative to the residual itself.
    """

    energy: float
    residual_sup: float
    min_value: float
    iterations: int
    threshold: float
    below_threshold: bool
    converged: bool

    def __post_init__(self) -> None:
        if self.below_threshold != (self.energy < self.threshold):
            raise ValueError("below_threshold must equal energy < threshold")


def threshold_report(cfg: ProblemConfig) -> ThresholdReport:
    """The sites' compactness levels, each placed by ``placement_of``, and their minimum."""
    sites = [
        SingularitySite(placement_of(cfg.grid, sing), sing.s)
        for sing in cfg.singularities
    ]
    return ps_threshold(cfg.grid.N, sites)


def bubble_start(cfg: ProblemConfig, site: int | None = None,
                 eps: float | None = None) -> np.ndarray:
    """The bubble field of one singular site: the solver's default start.

    ``site`` indexes the config's sites; None picks the site with the
    lowest compactness level.  ``eps`` defaults to 4 times the largest grid
    spacing.  Raises ValueError for a site index out of range and
    NonPositiveEps for an eps that is not a positive real.
    """
    if site is None:
        per_site = threshold_report(cfg).per_site
        site = min(range(len(per_site)), key=lambda i: per_site[i][1])
    elif not 0 <= site < len(cfg.singularities):
        raise ValueError(f"site index {site} out of range for {len(cfg.singularities)} sites")
    sing = cfg.singularities[site]
    eps = 4.0 * max(cfg.grid.spacing) if eps is None else eps
    return bubble_radial(np.sqrt(_distance_sq(cfg.grid, sing.location)), eps,
                         HSParams(cfg.grid.N, sing.s))


def mountain_pass_solve(
    cfg: ProblemConfig,
    init: np.ndarray | None = None,
    opts: SolveOptions | None = None,
) -> tuple[SolveReport, np.ndarray]:
    """Minimise the energy over the Nehari set by projected descent.

    ``init`` is the start field, a node array shaped like the grid (copied;
    ShapeMismatch otherwise), or None for ``bubble_start(cfg)``.  Every
    iterate v is rescaled to its ray peak (Nehari point).  The step
    v - t d starts at t = 1 and is halved until the rescaled energy
    decreases (Armijo test against the directional slope, which on the
    Nehari set equals the full one).  d is the L-BFGS direction H g of the
    projected functional J(x) = E(t(x) x), whose gradient is
    t(x) E'(t(x) x): H0 is the Riesz map L^-1, and each accepted trial
    c = v - t d, rescaled by tau, gives the pair s = c - v,
    y = tau E'(tau c) - E'(v), kept when <s, y> > 0 so that H stays
    positive definite.  The recursion runs on the modal coefficients of g,
    s and y (fast diagonalization, Lynch, Rice & Thomas, Numer. Math.
    1964), where H0 divides by the symbol lambda + sum_k mu_k; g goes to
    modes and d back to node values once per iteration.

    The quadratic part is Q(u) = <u, L u>, L the stencil.  Along the
    search ray it is the polynomial Q(v - t d) = a0 - 2 t a1 + t**2 a2,
    with a0 = <v, L v> and a1 = <d, L v> from the stencil L v that the
    gradient kernel (shared with ``gradient``) already forms, and
    a2 = Q(d) = sum(sym * d^**2) from the modal direction,
    sym = lambda + sum_k mu_k.  A trial therefore costs one mass pass over
    its candidate, one power per distinct exponent; its rescaled energy is
    the closed-form ray peak of that polynomial and the masses, so only an
    accepted trial is rescaled as a field.  The test accepts an energy up to
    ``ROUNDING * |energy|`` above the Armijo bound (factor ``ARMIJO``), the
    rounding of that closed form, since steps
    near convergence ask for decreases below it.  The reported energy is
    that closed form (or, with no accepted step, the re-assembled energy of
    the projected start).

    Convergence means the sup norm of the pointwise Euler-Lagrange residual
    -Lap u + lambda u - sum w_i u_+**(q_i-1) drops below ``grad_tol``; the
    report's ``residual_sup`` is that norm at the returned field.
    Failure to converge is reported (``converged=False``), never raised.
    A finite start with no positive part, or whose masses overflow, has no
    Nehari point and raises; a start with non-finite values is not
    projected, and its non-finite slope stops the solver at once.
    """
    if cfg.lam <= 0.0:
        raise NonpositiveLambda("the solver requires lambda > 0")
    opts = opts or SolveOptions()
    grid = cfg.grid
    vol = _node_volumes(grid)
    thresholds = threshold_report(cfg)
    weights = _exponent_weights(cfg)

    v = bubble_start(cfg) if init is None else _check_field(grid, init).copy()
    if np.isfinite(v).all():  # a non-finite start is reported as a bad slope
        v = nehari_scale(v, cfg) * v  # raises on a hopeless or overflowing start
    e_v = energy(v, cfg)
    # candidate and term double as scratch outside the line search, and g,
    # once in modes, leaves its buffer to the direction
    lv, g, candidate, term = (np.empty(grid.shape) for _ in range(4))
    scratch = (candidate, term)
    sym = _riesz_symbol(grid, cfg.lam)

    # the curvature pairs in modal coordinates: (s^, y^, 1 / <s, y>)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
    pending = None  # (s^, g^(v), tau) of the accepted step, awaiting g^(tau c)
    iterations = 0

    while True:
        _derivative(v, cfg, weights, lv, g, term)
        residual = np.divide(g, vol, out=candidate)
        residual_sup = float(np.max(np.abs(residual, out=term)))
        converged = residual_sup < opts.grad_tol
        if converged or iterations == opts.max_iters:
            break
        g_hat = _to_modes(g, grid, np.empty(grid.shape), scratch)
        if pending is not None:
            # y = grad J(c) - grad J(v) for J(x) = E(t(x) x), where
            # grad J(x) = t(x) E'(t(x) x) and t(c) = tau, t(v) = 1
            s_hat, y_hat, tau = pending
            np.subtract(np.multiply(g_hat, tau, out=term), y_hat, out=y_hat)
            sy = _modal_dot(s_hat, y_hat)
            if sy > 0.0:  # keeps H positive definite
                pairs.append((s_hat, y_hat, 1.0 / sy))
        d_hat = _lbfgs_direction(g_hat, pairs, sym, candidate, term)
        slope = _modal_dot(d_hat, g_hat)
        if not math.isfinite(slope) or slope <= 0.0:
            break  # gradient representation broke down; report honestly
        direction = _from_modes(d_hat, grid, g, scratch)
        # the ray polynomial Q(v - t d) = a0 - 2 t a1 + t**2 a2
        a0, a1 = _dot(v, lv, term), _dot(direction, lv, term)
        a2 = _modal_quadratic_part(d_hat, sym)

        accepted = False
        allowance = ROUNDING * abs(e_v)
        t = 1.0
        for _ in range(80):
            # the first trial, t = 1, steps by the direction itself
            step = direction if t == 1.0 else np.multiply(direction, t, out=candidate)
            np.subtract(v, step, out=candidate)
            try:
                tau, e_new = ray_peak(a0 - 2.0 * t * a1 + t * t * a2,
                                      _masses(candidate, weights, term), weights.qs)
            except ValueError:  # no positive part, no positive peak, or overflow
                t *= 0.5
                continue
            if math.isfinite(e_new) and e_new <= e_v - ARMIJO * t * slope + allowance:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        d_hat *= -t  # s = c - v, taken before the Nehari rescale
        pending = (d_hat, g_hat, tau)
        np.multiply(candidate, tau, out=v)
        e_v = e_new
        iterations += 1

    report = SolveReport(
        energy=e_v,
        residual_sup=residual_sup,
        min_value=float(np.min(v)),
        iterations=iterations,
        threshold=thresholds.overall,
        below_threshold=bool(e_v < thresholds.overall),
        converged=converged,
    )
    return report, v


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def save_field(path, grid: DomainGrid, values) -> None:
    """Write a field snapshot: float64 header (N, nodes_per_axis, bounds
    pairs) followed by the row-major float64 node values."""
    arr = _check_field(grid, values)
    header = [float(grid.N)]
    header.extend(float(n) for n in grid.nodes_per_axis)
    for lo, hi in grid.bounds:
        header.extend((lo, hi))
    with open(path, "wb") as fh:
        fh.write(np.asarray(header, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def load_field(path) -> tuple[DomainGrid, np.ndarray]:
    """Read a snapshot written by save_field."""
    raw = np.fromfile(path, dtype=np.float64)
    if raw.size < 1:
        raise ValueError("empty snapshot")
    n_axes = int(raw[0])
    header_len = 1 + n_axes + 2 * n_axes
    if n_axes < 1 or raw.size < header_len:
        raise ValueError("truncated snapshot header")
    nodes = tuple(int(x) for x in raw[1 : 1 + n_axes])
    bounds = tuple(
        (raw[1 + n_axes + 2 * k], raw[2 + n_axes + 2 * k]) for k in range(n_axes)
    )
    grid = DomainGrid(bounds=bounds, nodes_per_axis=nodes)
    count = int(np.prod(nodes))
    body = raw[header_len:]
    if body.size != count:
        raise ValueError("snapshot body does not match the grid size")
    return grid, body.reshape(nodes)
