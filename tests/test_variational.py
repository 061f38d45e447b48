"""Discrete energy, gradient, Nehari projection, and the ground-state solver."""

import itertools
import math
import sys
from functools import lru_cache

import numpy as np
import pytest

from hslab.boundary_energy import BoundaryGeometry, CutoffSpec, bubble_energies
from hslab.extremals import HSParams, NonPositiveEps
from hslab import variational
from hslab.identities import ray_peak
from hslab.variational import (
    MEMORY,
    _axis_weights,
    _dot,
    _exponent_weights,
    _field_masses,
    _from_modes,
    _grid_eigenpairs,
    _lbfgs_direction,
    _modal_quadratic_part,
    _quadratic_part,
    _riesz_symbol,
    _stencil,
    _to_modes,
    _weighted_power,
    DomainGrid,
    NonpositiveLambda,
    NonpositivePart,
    ProblemConfig,
    ShapeMismatch,
    Singularity,
    SolveOptions,
    SolveReport,
    bubble_start,
    energy,
    gradient,
    load_field,
    mountain_pass_solve,
    nehari_scale,
    node_volumes,
    placement_of,
    save_field,
    singular_weight,
)

from box_quadrature import integrate_box
from oracles import PositiveLambda, bubble_field, negative_lambda_sanity

UNIT3 = ((0.0, 1.0),) * 3
CENTER = (0.5, 0.5, 0.5)
INTERIOR_PAIR = ((0.3, 0.5, 0.5), (0.7, 0.5, 0.5))
FACE_PAIR = ((0.0, 0.5, 0.5), (0.7, 0.5, 0.5))


def unit_config(nodes=9, lam=1.0, sites=None):
    grid = DomainGrid(UNIT3, (nodes,) * 3)
    if sites is None:
        sites = (Singularity(CENTER, 1.0),)
    return ProblemConfig(grid, lam, tuple(sites))


class TestGrid:
    def test_geometry_properties(self):
        grid = DomainGrid(((0.0, 2.0), (0.0, 1.0)), (9, 17))
        assert grid.N == 2
        assert grid.shape == (9, 17)
        assert grid.spacing == pytest.approx((0.25, 0.0625))
        assert grid.volume == pytest.approx(2.0, rel=1e-14)
        nodes = grid.axis_nodes(0)
        assert nodes[0] == 0.0 and nodes[-1] == 2.0

    def test_node_volumes_tile_the_box(self):
        grid = DomainGrid(UNIT3, (9, 11, 13))
        vol = node_volumes(grid)
        assert vol.shape == grid.shape
        assert float(np.sum(vol)) == pytest.approx(grid.volume, rel=1e-13)
        # faces carry half cells, corners an eighth
        h = np.prod(grid.spacing)
        assert vol[0, 0, 0] == pytest.approx(h / 8.0, rel=1e-13)
        assert vol[4, 5, 6] == pytest.approx(h, rel=1e-13)

    def test_rejects_tiny_axes(self):
        with pytest.raises(ValueError):
            DomainGrid(UNIT3, (4, 9, 9))
        with pytest.raises(ValueError):
            DomainGrid(((1.0, 0.0),) * 3, (9, 9, 9))


class TestProblemConfig:
    def test_exponents(self):
        cfg = unit_config()
        assert cfg.exponents() == pytest.approx((4.0,))

    def test_site_outside_box_rejected(self):
        grid = DomainGrid(UNIT3, (9,) * 3)
        with pytest.raises(ValueError):
            ProblemConfig(grid, 1.0, (Singularity((1.5, 0.5, 0.5), 1.0),))

    def test_duplicate_sites_rejected(self):
        grid = DomainGrid(UNIT3, (9,) * 3)
        with pytest.raises(ValueError):
            ProblemConfig(
                grid, 1.0,
                (Singularity(CENTER, 1.0), Singularity(CENTER, 0.5)),
            )

    def test_empty_site_tuple_rejected(self):
        grid = DomainGrid(UNIT3, (9,) * 3)
        with pytest.raises(ValueError):
            ProblemConfig(grid, 1.0, ())

    def test_placement_dispatch(self):
        grid = DomainGrid(UNIT3, (9,) * 3)
        h = grid.spacing[0]
        for location, theta in (
            (CENTER, 1.0),
            ((0.0, 0.5, 0.5), 0.5),
            ((0.0, 1.0, 0.5), 0.25),
            ((1.0, 0.0, 0.0), 0.125),
            ((1.0 - 0.4 * h, 0.5, 0.5), 0.5),  # within half a cell of a face
        ):
            assert placement_of(grid, Singularity(location, 1.0)) == theta

    def test_share_matches_ray_peak_ratio(self):
        """theta is the limit, as the bubble concentrates, of the ray peak of
        a bubble at a face, edge or corner site over that of the same bubble
        at the centre; the gap to theta shrinks about like eps."""
        grid = DomainGrid(UNIT3, (65,) * 3)
        eps_list = (0.1, 0.05, 0.03)

        def peak(location, eps):
            cfg = ProblemConfig(grid, 1e-6, (Singularity(location, 1.0),))
            u = bubble_field(grid, location, eps, 1.0)
            return energy(nehari_scale(u, cfg) * u, cfg)

        centre = [peak(CENTER, eps) for eps in eps_list]
        for location in ((0.0, 0.5, 0.5), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0)):
            theta = placement_of(grid, Singularity(location, 1.0))
            gaps = [abs(peak(location, eps) / c / theta - 1.0)
                    for eps, c in zip(eps_list, centre)]
            assert gaps[1] <= 0.6 * gaps[0]
            assert gaps[2] <= 0.65 * gaps[1]
            assert gaps[2] <= 0.15


class TestSingularWeight:
    def test_far_node_uses_point_value(self):
        grid = DomainGrid(UNIT3, (9,) * 3)
        sing = Singularity(CENTER, 1.0)
        w = singular_weight(grid, sing)
        x = np.array([grid.axis_nodes(k)[1] for k in range(3)])
        r = math.sqrt(float(np.sum((x - 0.5) ** 2)))
        assert w[1, 1, 1] == pytest.approx(1.0 / r, rel=1e-14)

    def test_singular_node_uses_cell_average(self):
        grid = DomainGrid(UNIT3, (9,) * 3)
        sing = Singularity(CENTER, 1.0)
        w = singular_weight(grid, sing)
        assert np.all(np.isfinite(w))
        h = grid.spacing[0]
        box = tuple((0.5 - h / 2.0, 0.5 + h / 2.0) for _ in range(3))
        ref = integrate_box(
            lambda pts: np.sum((pts - 0.5) ** 2, axis=1) ** -0.5, box, 64
        ) / h**3
        assert w[4, 4, 4] == pytest.approx(ref, rel=5e-3)

    def test_total_weighted_volume_matches_continuum(self):
        grid = DomainGrid(UNIT3, (17,) * 3)
        sing = Singularity(CENTER, 1.0)
        total = float(np.sum(singular_weight(grid, sing) * node_volumes(grid)))
        cont = integrate_box(
            lambda pts: np.sum((pts - 0.5) ** 2, axis=1) ** -0.5, UNIT3, 192
        )
        assert total == pytest.approx(cont, rel=0.01)

    @pytest.mark.parametrize("bounds,nodes,location,s", [
        (((0.0, 2.0), (-1.0, 1.0)), (24, 13), (0.7, 0.1), 1.0),  # off-node
        (((0.0, 2.0), (-1.0, 1.0)), (24, 13), (0.0, 0.3), 0.7),  # face
        (((0.0, 2.0), (-1.0, 1.0)), (24, 13), (2.0, -1.0), 1.5),  # corner
        (UNIT3, (16, 16, 16), CENTER, 1.0),
        (UNIT3, (16, 17, 18), (0.0, 0.5, 0.5), 1.0),  # face
        (UNIT3, (16, 17, 18), (0.0, 1.0, 0.37), 1.2),  # edge
        (UNIT3, (16, 17, 18), (1.0, 0.0, 0.0), 0.5),  # corner
        (((0.0, 1.0),) * 4, (9, 10, 11, 12), (0.3, 0.5, 0.5, 0.5), 1.0),
        (((0.0, 1.0),) * 4, (9, 10, 11, 12), (0.0, 1.0, 0.5, 0.21), 1.3),  # edge
        (((0.0, 1.0),) * 4, (9, 10, 11, 12), (0.0, 0.0, 1.0, 1.0), 1.0),  # corner
    ], ids=["2d-off-node", "2d-face", "2d-corner", "3d-centre", "3d-face", "3d-edge",
            "3d-corner", "4d-interior", "4d-edge", "4d-corner"])
    def test_near_nodes_match_per_node_loop(self, bounds, nodes, location, s):
        """The broadcast cell averages equal, bit for bit, the midpoint rule
        evaluated node by node."""
        grid = DomainGrid(bounds, nodes)
        sing = Singularity(location, s)
        assert np.array_equal(singular_weight(grid, sing), _loop_singular_weight(grid, sing))


def _loop_cell_average(grid, index, location, s):
    """The 8x-per-axis midpoint average of |x - location|**(-s) over one
    node's clipped dual cell."""
    refine = 8
    axes_pts = []
    for k, j in enumerate(index):
        lo, hi = grid.bounds[k]
        h = grid.spacing[k]
        x = grid.axis_nodes(k)[j]
        a, b = max(lo, x - 0.5 * h), min(hi, x + 0.5 * h)
        axes_pts.append(a + (np.arange(refine) + 0.5) * (b - a) / refine)
    r2 = np.zeros((refine,) * grid.N)
    for k, pts in enumerate(axes_pts):
        shape = [1] * grid.N
        shape[k] = refine
        r2 = r2 + ((pts - location[k]) ** 2).reshape(shape)
    return float(np.mean(r2 ** (-0.5 * s)))


def _loop_singular_weight(grid, sing):
    """Point values, with the cell average on the nodes within two cells of
    the nearest node to the site, one node at a time."""
    loc = sing.location
    r2 = sum(
        ((grid.axis_nodes(k) - loc[k]) ** 2).reshape([-1 if j == k else 1 for j in range(grid.N)])
        for k in range(grid.N)
    )
    with np.errstate(divide="ignore"):
        w = r2 ** (-0.5 * sing.s)
    center = [min(max(round((loc[k] - grid.bounds[k][0]) / grid.spacing[k]), 0), n - 1)
              for k, n in enumerate(grid.nodes_per_axis)]
    ranges = [range(max(0, c - 2), min(n, c + 3)) for c, n in zip(center, grid.nodes_per_axis)]
    for index in itertools.product(*ranges):
        w[index] = _loop_cell_average(grid, index, loc, sing.s)
    return w


class TestEnergyAndGradient:
    def test_zero_field_has_zero_energy(self):
        cfg = unit_config()
        assert energy(np.zeros(cfg.grid.shape), cfg) == 0.0

    def test_constant_field_closed_form(self):
        cfg = unit_config(nodes=9, lam=0.7)
        vol = node_volumes(cfg.grid)
        masses = [
            float(np.sum(singular_weight(cfg.grid, s) * vol))
            for s in cfg.singularities
        ]
        for c in (0.3, 1.0, 2.5):
            u = np.full(cfg.grid.shape, c)
            expected = 0.5 * cfg.lam * cfg.grid.volume * c * c - sum(
                m / q * c**q for m, q in zip(masses, cfg.exponents())
            )
            assert energy(u, cfg) == pytest.approx(expected, rel=1e-12)

    def test_constant_field_gradient_is_pointwise(self):
        cfg = unit_config(nodes=9, lam=0.7)
        c = 0.8
        u = np.full(cfg.grid.shape, c)
        g = gradient(u, cfg)
        vol = node_volumes(cfg.grid)
        w = singular_weight(cfg.grid, cfg.singularities[0])
        q = cfg.exponents()[0]
        expected = (cfg.lam * c - w * c ** (q - 1.0)) * vol
        assert np.allclose(g, expected, rtol=1e-12, atol=1e-15)

    def test_gradient_matches_directional_derivative(self):
        cfg = unit_config(nodes=8, lam=0.5)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = 0.6 + 0.3 * rng.standard_normal(cfg.grid.shape)
            phi = rng.standard_normal(cfg.grid.shape)
            g = gradient(u, cfg)
            analytic = float(np.sum(g * phi))
            h = 1e-6
            fd = (energy(u + h * phi, cfg) - energy(u - h * phi, cfg)) / (2 * h)
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-12)

    def test_shape_mismatch(self):
        cfg = unit_config()
        with pytest.raises(ShapeMismatch):
            energy(np.zeros((3, 3, 3)), cfg)
        with pytest.raises(ShapeMismatch):
            gradient(np.zeros((9, 9)), cfg)


def _edge_volumes(grid, axis):
    """Edge dual volumes for forward differences along ``axis``: the tensor
    of the spacing along ``axis`` and the trapezoid weights of the others."""
    shape = list(grid.shape)
    shape[axis] -= 1
    ev = np.ones(shape)
    for k in range(grid.N):
        rs = [1] * grid.N
        rs[k] = shape[k]
        if k == axis:
            ev = ev * np.full(shape[k], grid.spacing[axis]).reshape(rs)
        else:
            ev = ev * _axis_weights(grid.nodes_per_axis[k], grid.spacing[k]).reshape(rs)
    return ev


def _reference_quadratic_part(u, cfg):
    """The quadratic part from the difference quotients along each axis."""
    grid = cfg.grid
    total = 0.0
    for k in range(grid.N):
        d = np.diff(u, axis=k) / grid.spacing[k]
        total += float(np.sum(d * d * _edge_volumes(grid, k)))
    total += cfg.lam * float(np.sum(u * u * node_volumes(grid)))
    return total


def _reference_exponent_weights(cfg):
    """{q: node volumes * (sum of the w_i with q_i = q)}, in site order."""
    summed = {}
    for sing, q in zip(cfg.singularities, cfg.exponents()):
        w = singular_weight(cfg.grid, sing)
        summed[q] = summed[q] + w if q in summed else w
    return {q: w * node_volumes(cfg.grid) for q, w in summed.items()}


def _chain_power(up, p):
    """up**p for up >= 0, with p = 2, 3 and 4 by multiplication."""
    if p == 2.0:
        return up * up
    if p == 3.0:
        return up * up * up
    if p == 4.0:
        sq = up * up
        return sq * sq
    return up**p


def _reference_positive_masses(u, cfg, power=_chain_power):
    up = np.maximum(u, 0.0)
    return [float(np.sum(power(up, q) * w)) for q, w in _reference_exponent_weights(cfg).items()]


def _reference_stencil(u, grid, lam, divided=False):
    """The reflected Neumann stencil -Lap u + lam u times the node volumes:
    each flux is the difference times its edge volume over h**2, or, with
    ``divided``, the difference quotient times the edge volume over h."""
    g = lam * u * node_volumes(grid)
    for k, h in enumerate(grid.spacing):
        if divided:
            flux = np.diff(u, axis=k) / h * _edge_volumes(grid, k) / h
        else:
            flux = np.diff(u, axis=k) * (_edge_volumes(grid, k) / h**2)
        left = [slice(None)] * grid.N
        right = [slice(None)] * grid.N
        left[k] = slice(0, -1)
        right[k] = slice(1, None)
        g[tuple(right)] += flux
        g[tuple(left)] -= flux
    return g


def _reference_gradient(u, cfg, divided=False, power=_chain_power):
    grid = cfg.grid
    g = _reference_stencil(u, grid, cfg.lam, divided)
    up = np.maximum(u, 0.0)
    for q, w in _reference_exponent_weights(cfg).items():
        g -= power(up, q - 1.0) * w
    return g


KERNEL_CASES = {
    # two of the three sites share s = 0.5: q = 5, 3.6 and q - 1 = 4, 2.6
    "aniso16": (DomainGrid(((0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)), (16, 17, 18)),
                (((0.3, 0.5, 0.0), 0.5), ((0.0, 1.0, -0.2), 1.2), ((0.7, 1.5, 0.5), 0.5))),
    "aniso21": (DomainGrid(((0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)), (21, 22, 23)),
                (((0.3, 0.5, 0.0), 0.5), ((0.0, 1.0, -0.2), 1.2), ((0.7, 1.5, 0.5), 0.5))),
    # the shipped s = 1 pair: q = 4, q - 1 = 3
    "unit16": (DomainGrid(UNIT3, (16,) * 3), ((INTERIOR_PAIR[0], 1.0), (INTERIOR_PAIR[1], 1.0))),
    # N = 4: q = 3, 3.5 and q - 1 = 2, 2.5
    "four": (DomainGrid(((0.0, 1.0), (0.0, 1.5), (0.0, 1.0), (-0.5, 0.5)), (9, 10, 11, 12)),
             (((0.3, 0.5, 0.5, 0.0), 1.0), ((1.0, 1.5, 0.2, 0.1), 0.5))),
}


class TestKernelsMatchPlainForms:
    """The flat-offset kernels against plain array expressions, with the
    mass terms summed per distinct exponent.  The stencil, the gradient and
    the masses round exactly like their plain forms in the same arithmetic
    (flux = difference * (edge volume / h**2), p = 2, 3, 4 by
    multiplication); the quadratic part sums in another order, and the
    difference-quotient, ``np.power`` forms round differently, so those
    agree to 1e-15 relative (measured: at most 2.2e-16 and 3.3e-16)."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_on_random_fields(self, case):
        grid, sites = KERNEL_CASES[case]
        cfg = ProblemConfig(grid, 3.0, tuple(Singularity(x, s) for x, s in sites))
        weights, reference = _exponent_weights(cfg), _reference_exponent_weights(cfg)
        assert weights.qs == tuple(reference)
        assert all(np.array_equal(w, r) for w, r in zip(weights.arrays, reference.values()))
        rng = np.random.default_rng(grid.shape[0])
        for _ in range(3):
            u = 0.3 + rng.standard_normal(grid.shape)
            assert _quadratic_part(u, cfg) == pytest.approx(_reference_quadratic_part(u, cfg), rel=1e-15)
            assert _field_masses(u, cfg)[0] == _reference_positive_masses(u, cfg)
            assert _field_masses(u, cfg)[0] == pytest.approx(
                _reference_positive_masses(u, cfg, power=np.power), rel=1e-15)
            g = gradient(u, cfg)
            assert np.array_equal(g, _reference_gradient(u, cfg))
            old = _reference_gradient(u, cfg, divided=True, power=np.power)
            assert np.max(np.abs(g - old)) <= 1e-15 * np.max(np.abs(g))

    @pytest.mark.parametrize("grid", [
        DomainGrid(((0.0, 2.0), (-1.0, 1.0)), (24, 13)),
        DomainGrid(((0.0, 0.5), (0.0, 3.0)), (9, 31)),
    ])
    def test_plane_stencil_and_quadratic_part(self, grid):
        """Anisotropic 2-D grids: the flat offsets differ per axis."""
        cfg = ProblemConfig(grid, 0.7, (Singularity((0.1, 0.2), 1.0),))
        rng = np.random.default_rng(3)
        for _ in range(3):
            u = rng.standard_normal(grid.shape)
            out = _stencil(u, cfg, np.empty(grid.shape), np.empty(u.size))
            assert np.array_equal(out, _reference_stencil(u, grid, cfg.lam))
            assert _quadratic_part(u, cfg) == pytest.approx(_reference_quadratic_part(u, cfg), rel=1e-15)

    def test_stencil_of_a_strided_field(self):
        """A non-contiguous field gives the stencil of its values."""
        grid = KERNEL_CASES["aniso16"][0]
        cfg = ProblemConfig(grid, 3.0, (Singularity((0.3, 0.5, 0.0), 1.0),))
        u = np.random.default_rng(5).standard_normal(grid.shape[::-1]).T
        out = _stencil(u, cfg, np.empty(grid.shape), np.empty(u.size))
        assert np.array_equal(out, _reference_stencil(u, grid, cfg.lam))


class TestWeightedPower:
    """The small integer powers go by multiplication; the others by np.power."""

    def field(self):
        rng = np.random.default_rng(11)
        return rng.uniform(1e-3, 10.0, 4000), rng.uniform(0.5, 2.0, 4000)

    @pytest.mark.parametrize("p", [4.0, 3.0])
    def test_chain_within_four_ulp(self, p):
        u, w = self.field()
        got = _weighted_power(u, p, w, np.empty_like(u))
        ref = np.power(u, p) * w
        assert np.max(np.abs(got - ref) / np.spacing(ref)) <= 4.0

    @pytest.mark.parametrize("p", [5.0, 3.6])
    def test_other_exponents_are_np_power(self, p):
        u, w = self.field()
        assert np.array_equal(_weighted_power(u, p, w, np.empty_like(u)), np.power(u, p) * w)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 3.6])
    def test_negative_part_gives_zero(self, p):
        u = np.array([-3.0, -1e-300, -0.0, 0.0, 2.0, -np.inf])
        got = _weighted_power(u, p, np.ones(6), np.empty(6))
        assert np.array_equal(got, [0.0, 0.0, 0.0, 0.0, 2.0**p, 0.0])


RIESZ_GRIDS = {
    "unit16": DomainGrid(UNIT3, (16,) * 3),
    "unit21": DomainGrid(UNIT3, (21,) * 3),
    "aniso": DomainGrid(((0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)), (16, 17, 18)),
    "plane": DomainGrid(((0.0, 2.0), (-1.0, 1.0)), (24, 13)),
    "four": DomainGrid(((0.0, 1.0), (0.0, 1.5), (0.0, 1.0), (-0.5, 0.5)), (9, 10, 11, 12)),
}


def _scratch(grid):
    return np.empty(grid.shape), np.empty(grid.shape)


def _modes(g, grid):
    """The modal coefficients V^T g of a derivative field g."""
    return _to_modes(g, grid, np.empty(grid.shape), _scratch(grid))


def _nodes(x, grid):
    """The node field V x of the modal coefficients x."""
    return _from_modes(x, grid, np.empty(grid.shape), _scratch(grid))


def _riesz(g, grid, lam):
    """L^-1 g by the modal kernels: V (V^T g / (lam + sum_k mu_k))."""
    return _nodes(_modes(g, grid) / _riesz_symbol(grid, lam), grid)


class TestRieszMap:
    """The modal Riesz map V (V^T . / sym) inverts the reflected Neumann
    stencil."""

    # the check's own rounding grows like the condition number ~ 1/lam: at
    # lam = 0.005 it passes 1e-12 even for the cosine-transform inverse
    @pytest.mark.parametrize("lam", [0.1, 3.0])
    @pytest.mark.parametrize("name", sorted(RIESZ_GRIDS))
    def test_solves_the_reflected_stencil_system(self, name, lam):
        grid = RIESZ_GRIDS[name]
        vol = node_volumes(grid)
        rng = np.random.default_rng(sum(grid.shape))
        for _ in range(3):
            r = rng.standard_normal(grid.shape)
            z = _riesz(r * vol, grid, lam)
            applied = _reference_stencil(z, grid, lam) / vol
            assert np.linalg.norm(applied - r) <= 1e-12 * np.linalg.norm(r)

    def test_leaves_the_residual_untouched(self):
        grid = RIESZ_GRIDS["aniso"]
        r = np.random.default_rng(3).standard_normal(grid.shape)
        kept = r.copy()
        _modes(r, grid)
        _nodes(r, grid)
        assert np.array_equal(r, kept)

    @pytest.mark.parametrize("name", sorted(RIESZ_GRIDS))
    def test_axis_pairs_diagonalise_stiffness_and_mass(self, name):
        grid = RIESZ_GRIDS[name]
        for k, pairs in enumerate(_grid_eigenpairs(grid)):
            # the 1-D forms, assembled from the reference stencil on one axis
            axis = DomainGrid((grid.bounds[k],), (grid.nodes_per_axis[k],))
            eye = np.eye(axis.nodes_per_axis[0])
            stiff = np.stack([_reference_stencil(e, axis, 0.0) for e in eye], axis=1)
            mass = np.diag(node_volumes(axis))
            v = pairs.vectors
            # V^T M is the inverse of V: the pairing <x, g> is x^ . g^
            assert np.abs(v @ (v.T @ mass) - eye).max() <= 1e-12
            assert np.abs(v.T @ mass @ v - eye).max() <= 1e-12
            scale = float(np.max(pairs.mu))
            assert np.abs(v.T @ stiff @ v - np.diag(pairs.mu)).max() <= 1e-12 * scale


def _curvature_pairs(grid, count, rng):
    """``count`` modal pairs (s^, y^, 1 / <s, y>) with y = A s for one
    symmetric positive definite A: the reflected stencil at lambda = 2 plus
    a random positive diagonal times the node volumes.  The node fields s
    go with the pairs, since s^ = V^T M s rounds."""
    vol = node_volumes(grid)
    diagonal = (0.5 + rng.random(grid.shape)) * vol
    pairs, fields = [], []
    for _ in range(count):
        s = rng.standard_normal(grid.shape)
        y = _reference_stencil(s, grid, 2.0) + diagonal * s
        pairs.append((_modes(vol * s, grid), _modes(y, grid), 1.0 / float(np.sum(s * y))))
        fields.append(s)
    return pairs, fields


def _direction(g_hat, pairs, grid, lam):
    return _lbfgs_direction(g_hat, pairs, _riesz_symbol(grid, lam),
                            np.empty(grid.shape), np.empty(grid.shape))


class TestLbfgsDirection:
    """The two-loop recursion behind the solver's quasi-Newton direction,
    run on modal arrays."""

    @pytest.mark.parametrize("name", sorted(RIESZ_GRIDS))
    def test_without_pairs_it_is_the_riesz_map(self, name):
        grid = RIESZ_GRIDS[name]
        g = np.random.default_rng(sum(grid.shape)).standard_normal(grid.shape)
        g_hat = _modes(g, grid)
        kept = g_hat.copy()
        d_hat = _direction(g_hat, [], grid, 3.0)
        assert np.array_equal(d_hat, g_hat / _riesz_symbol(grid, 3.0))
        assert np.array_equal(g_hat, kept)
        # d = V d^ solves L d = g
        applied = _reference_stencil(_nodes(d_hat, grid), grid, 3.0)
        assert np.linalg.norm(applied - g) <= 1e-12 * np.linalg.norm(g)

    @pytest.mark.parametrize("count", range(1, MEMORY + 1))
    @pytest.mark.parametrize("name", sorted(RIESZ_GRIDS))
    def test_newest_pair_satisfies_the_secant_equation(self, name, count):
        grid = RIESZ_GRIDS[name]
        pairs, fields = _curvature_pairs(grid, count, np.random.default_rng(count))
        _, y_hat, _ = pairs[-1]
        s = fields[-1]
        d = _nodes(_direction(y_hat, pairs, grid, 3.0), grid)
        assert np.linalg.norm(d - s) <= 1e-12 * np.linalg.norm(s)

    @pytest.mark.parametrize("name", sorted(RIESZ_GRIDS))
    def test_slope_is_positive_on_random_fields(self, name):
        grid = RIESZ_GRIDS[name]
        rng = np.random.default_rng(11)
        pairs, _ = _curvature_pairs(grid, MEMORY, rng)
        for _ in range(5):
            g = rng.standard_normal(grid.shape)
            d_hat = _direction(_modes(g, grid), pairs, grid, 3.0)
            assert float(np.sum(_nodes(d_hat, grid) * g)) > 0.0


class TestRayPeak:
    @pytest.mark.parametrize("exponents", [(1.0, 1.0), (0.5, 1.2)])
    def test_peak_is_the_energy_at_the_nehari_point(self, exponents):
        sites = tuple(Singularity(loc, s) for loc, s in zip(INTERIOR_PAIR, exponents))
        cfg = unit_config(nodes=16, lam=2.0, sites=sites)
        u = 0.5 + bubble_field(cfg.grid, INTERIOR_PAIR[0], 0.1, exponents[0])
        t, peak = ray_peak(_quadratic_part(u, cfg), *_field_masses(u, cfg))
        assert t == nehari_scale(u, cfg)
        assert peak == pytest.approx(energy(t * u, cfg), rel=1e-13)


RAY_GRIDS = {
    "unit16": DomainGrid(UNIT3, (16,) * 3),
    "aniso": RIESZ_GRIDS["aniso"],
}


def _ray_coefficients(v, d_hat, cfg):
    """(a0, a1, a2) as the solver forms them: <v, L v>, <d, L v> and
    sum(sym * d^**2), for d = V d^; and d."""
    grid = cfg.grid
    d = _nodes(d_hat, grid)
    lv = _stencil(v, cfg, np.empty(v.shape), np.empty(v.size))
    buf = np.empty(v.shape)
    a2 = _modal_quadratic_part(d_hat, _riesz_symbol(grid, cfg.lam))
    return (_dot(v, lv, buf), _dot(d, lv, buf), a2), d


class TestRayPolynomial:
    """The line search's quadratic part a0 - 2 t a1 + t**2 a2 of v - t d,
    and the closed-form trial energy built from it."""

    @pytest.mark.parametrize("t", [1e-3, 1.0, 30.0])
    @pytest.mark.parametrize("name", sorted(RAY_GRIDS))
    def test_matches_the_field_passes(self, name, t):
        grid = RAY_GRIDS[name]
        sites = tuple(
            Singularity(tuple(lo + f * (hi - lo) for lo, hi in grid.bounds), s)
            for f, s in ((0.3, 1.0), (0.7, 0.5))
        )
        cfg = ProblemConfig(grid, 3.0, sites)
        rng = np.random.default_rng(sum(grid.shape))
        for _ in range(3):
            v = 0.5 + rng.random(grid.shape)
            d_hat = _modes(gradient(v, cfg), grid) / _riesz_symbol(grid, cfg.lam)
            (a0, a1, a2), d = _ray_coefficients(v, d_hat, cfg)
            c = v - t * d
            a = a0 - 2.0 * t * a1 + t * t * a2
            assert a == pytest.approx(_quadratic_part(c, cfg), rel=1e-13)
            # the polynomial's rounding is relative to its largest term: at
            # t = 1 a random v and its descent direction cancel (c is ~60x
            # smaller in Q than v), and the trial energy inherits that factor
            cancellation = (a0 + 2.0 * t * abs(a1) + t * t * a2) / a
            tau, peak = ray_peak(a, *_field_masses(c, cfg))
            assert peak == pytest.approx(energy(tau * c, cfg), rel=4e-15 * cancellation)

    @pytest.mark.parametrize("t", [1e-3, 1.0, 30.0])
    def test_plane_grid(self, t):
        # N = 2 has no critical exponent, so only the quadratic part is
        # checked, along the Riesz image of a random residual
        grid = RIESZ_GRIDS["plane"]
        cfg = ProblemConfig(grid, 3.0, (Singularity((1.0, 0.0), 1.0),))
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = 0.5 + rng.random(grid.shape)
            d_hat = _modes(rng.standard_normal(grid.shape), grid) / _riesz_symbol(grid, cfg.lam)
            (a0, a1, a2), d = _ray_coefficients(v, d_hat, cfg)
            a = a0 - 2.0 * t * a1 + t * t * a2
            assert a == pytest.approx(_quadratic_part(v - t * d, cfg), rel=1e-13)

    @pytest.mark.parametrize("name", ["aniso", "plane"])
    def test_modal_quadratic_part_is_the_field_pass(self, name):
        """a2 = sum(sym * d^**2) equals Q(V d^), for the Riesz image of a
        random residual and for random modal coefficients."""
        grid = RIESZ_GRIDS[name]
        cfg = ProblemConfig(grid, 3.0, (Singularity(tuple(lo for lo, _ in grid.bounds), 1.0),))
        sym = _riesz_symbol(grid, cfg.lam)
        rng = np.random.default_rng(5)
        for _ in range(3):
            for d_hat in (_modes(rng.standard_normal(grid.shape), grid) / sym,
                          rng.standard_normal(grid.shape)):
                assert _modal_quadratic_part(d_hat, sym) == pytest.approx(
                    _quadratic_part(_nodes(d_hat, grid), cfg), rel=1e-13)


class TestNehariScale:
    def test_constant_closed_form(self):
        cfg = unit_config(nodes=9, lam=1.0)
        u = np.ones(cfg.grid.shape)
        vol = node_volumes(cfg.grid)
        mass = float(np.sum(singular_weight(cfg.grid, cfg.singularities[0]) * vol))
        q = cfg.exponents()[0]
        expected = (cfg.lam * cfg.grid.volume / mass) ** (1.0 / (q - 2.0))
        assert nehari_scale(u, cfg) == pytest.approx(expected, rel=1e-12)

    def test_scaled_field_is_stationary_along_ray(self):
        cfg = unit_config(nodes=9, lam=1.0)
        u = bubble_field(cfg.grid, CENTER, 0.05, 1.0)
        t = nehari_scale(u, cfg)
        v = t * u
        # <grad E(v), v> = 0 on the natural constraint manifold
        g = gradient(v, cfg)
        pairing = float(np.sum(g * v))
        scale = abs(float(np.sum(np.abs(g * v))))
        assert abs(pairing) <= 1e-8 * max(scale, 1.0)

    def test_scan_confirms_ray_maximum(self):
        cfg = unit_config(nodes=9, lam=1.0)
        u = bubble_field(cfg.grid, CENTER, 0.05, 1.0)
        t_star = nehari_scale(u, cfg)
        ts = np.linspace(0.2 * t_star, 3.0 * t_star, 2001)
        vals = [energy(t * u, cfg) for t in ts]
        k = int(np.argmax(vals))
        assert ts[k] == pytest.approx(t_star, rel=2e-3)

    def test_mixed_exponents_newton(self):
        sites = (
            Singularity((0.3, 0.5, 0.5), 0.5),
            Singularity((0.7, 0.5, 0.5), 1.5),
        )
        cfg = unit_config(nodes=9, lam=1.0, sites=sites)
        u = 0.5 + bubble_field(cfg.grid, (0.3, 0.5, 0.5), 0.1, 0.5)
        t_star = nehari_scale(u, cfg)
        ts = np.linspace(0.2 * t_star, 3.0 * t_star, 4001)
        vals = [energy(t * u, cfg) for t in ts]
        k = int(np.argmax(vals))
        assert ts[k] == pytest.approx(t_star, rel=2e-3)
        v = t_star * u
        assert float(np.sum(gradient(v, cfg) * v)) == pytest.approx(0.0, abs=1e-7)

    def test_nonpositive_field_rejected(self):
        cfg = unit_config()
        with pytest.raises(NonpositivePart):
            nehari_scale(-np.ones(cfg.grid.shape), cfg)


class TestSolver:
    def test_small_solve_reaches_ground_state(self):
        cfg = unit_config(nodes=16, lam=0.01)
        report, u = mountain_pass_solve(
            cfg, np.ones(cfg.grid.shape), SolveOptions(grad_tol=1e-7)
        )
        assert report.converged is True
        assert report.residual_sup < 1e-7
        assert report.min_value > 0.0
        assert report.below_threshold is True
        assert report.energy < report.threshold
        assert u.shape == cfg.grid.shape
        assert float(np.min(u)) > 0.0

    def test_energy_never_increases_with_more_iterations(self):
        cfg = unit_config(nodes=9, lam=0.01)
        energies = []
        for k in range(1, 7):
            report, _ = mountain_pass_solve(
                cfg, np.ones(cfg.grid.shape),
                SolveOptions(max_iters=k, grad_tol=1e-14),
            )
            energies.append(report.energy)
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12

    def test_threshold_uses_site_placement(self):
        opts = SolveOptions(max_iters=1, grad_tol=1e-14)
        for location, threshold in (
            (CENTER, 2.0 * math.pi / 3.0),
            ((0.0, 0.5, 0.5), math.pi / 3.0),
            ((0.0, 0.5, 1.0), math.pi / 6.0),
            ((0.0, 1.0, 0.0), math.pi / 12.0),
        ):
            cfg = unit_config(nodes=9, lam=0.01, sites=(Singularity(location, 1.0),))
            report, _ = mountain_pass_solve(cfg, np.ones(cfg.grid.shape), opts)
            assert report.threshold == pytest.approx(threshold, rel=1e-9)

    def test_resolution_refinement_is_contracting(self):
        vals = []
        for n in (16, 24, 32):
            cfg = unit_config(nodes=n, lam=0.01)
            report, _ = mountain_pass_solve(
                cfg, np.ones(cfg.grid.shape), SolveOptions(grad_tol=1e-8)
            )
            assert report.converged
            vals.append(report.energy)
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_default_init_is_bubble_at_weakest_site(self):
        cfg = unit_config(nodes=12, lam=0.01)
        r_default, u_default = mountain_pass_solve(
            cfg, None, SolveOptions(max_iters=1, grad_tol=1e-14)
        )
        r_explicit, u_explicit = mountain_pass_solve(
            cfg, bubble_start(cfg), SolveOptions(max_iters=1, grad_tol=1e-14)
        )
        assert np.array_equal(u_default, u_explicit)
        assert r_default.energy == r_explicit.energy

    def test_default_init_starts_at_lowest_level_site(self):
        # levels 1, 1/2 and 1/8 of the interior one: the bubble starts at the corner
        sites = (Singularity(CENTER, 1.0), Singularity((0.0, 0.5, 0.5), 1.0),
                 Singularity((0.0, 0.0, 0.0), 1.0))
        cfg = unit_config(nodes=12, lam=0.01, sites=sites)
        opts = SolveOptions(max_iters=1, grad_tol=1e-14)
        _, u_default = mountain_pass_solve(cfg, bubble_start(cfg), opts)
        _, u_corner = mountain_pass_solve(cfg, bubble_start(cfg, site=2), opts)
        _, u_face = mountain_pass_solve(cfg, bubble_start(cfg, site=1), opts)
        assert np.array_equal(u_default, u_corner)
        assert not np.array_equal(u_default, u_face)

    def test_custom_init_roundtrip(self):
        cfg = unit_config(nodes=9, lam=0.01)
        seed = np.full(cfg.grid.shape, 2.0)
        report, _ = mountain_pass_solve(
            cfg, seed, SolveOptions(max_iters=1, grad_tol=1e-14)
        )
        assert math.isfinite(report.energy)
        assert np.array_equal(seed, np.full(cfg.grid.shape, 2.0))  # copied, not moved

    def test_init_of_another_shape_rejected(self):
        cfg = unit_config(nodes=9, lam=0.01)
        with pytest.raises(ShapeMismatch):
            mountain_pass_solve(cfg, np.ones((9, 9, 8)))

    def test_bubble_start_rejects_bad_site_and_eps(self):
        cfg = unit_config(nodes=9, lam=0.01)
        for site in (-1, len(cfg.singularities)):
            with pytest.raises(ValueError, match="site index"):
                bubble_start(cfg, site=site)
        for eps in (0.0, -1.0, math.inf):
            with pytest.raises(NonPositiveEps):
                bubble_start(cfg, eps=eps)

    def test_nonpositive_lambda_rejected(self):
        cfg = unit_config(nodes=9, lam=0.0)
        with pytest.raises(NonpositiveLambda):
            mountain_pass_solve(cfg, np.ones(cfg.grid.shape))

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            SolveReport(
                energy=1.0, residual_sup=0.0, min_value=0.1, iterations=1,
                threshold=2.0, below_threshold=False, converged=True,
            )


def _sup_residual(u, cfg):
    return float(np.max(np.abs(gradient(u, cfg) / node_volumes(cfg.grid))))


class TestStopping:
    """Each way a small problem makes the solver stop is reported, with the
    residual of the returned field."""

    def test_converged(self):
        cfg = unit_config(nodes=16, lam=0.01)
        report, u = mountain_pass_solve(cfg, np.ones(cfg.grid.shape), SolveOptions(grad_tol=1e-7))
        assert report.converged and report.iterations > 0
        assert report.residual_sup == _sup_residual(u, cfg) < 1e-7

    def test_max_iters(self):
        cfg = unit_config(nodes=16, lam=0.01)
        report, u = mountain_pass_solve(
            cfg, np.ones(cfg.grid.shape), SolveOptions(max_iters=2, grad_tol=1e-14))
        assert not report.converged and report.iterations == 2
        assert report.residual_sup == _sup_residual(u, cfg) >= 1e-14

    def test_line_search_exhausted(self, monkeypatch):
        # an Armijo fraction of 1e30 asks every halving for a decrease
        # 1e30 times the slope's prediction
        cfg = unit_config(nodes=9, lam=0.01)
        monkeypatch.setattr(variational, "ARMIJO", 1e30)
        report, u = mountain_pass_solve(cfg, np.ones(cfg.grid.shape))
        assert not report.converged and report.iterations == 0
        assert report.residual_sup == _sup_residual(u, cfg)
        assert report.energy == energy(u, cfg)

    def test_bad_slope(self):
        # an infinite node value makes the start, its gradient and the
        # slope NaN
        cfg = unit_config(nodes=9, lam=0.01)
        start = np.ones(cfg.grid.shape)
        start[0, 0, 0] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            report, _ = mountain_pass_solve(cfg, start)
        assert not report.converged and report.iterations == 0


class TestOverflowingMasses:
    """A field whose masses overflow has no ray peak: it raises instead of
    being projected to the peak scale (finite / inf)**(1/2) = 0."""

    def test_nehari_scale_raises(self):
        cfg = unit_config(nodes=9, lam=0.01)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            nehari_scale(np.full(cfg.grid.shape, 1e80), cfg)

    def test_solve_from_an_overflowing_start_raises(self):
        cfg = unit_config(nodes=9, lam=0.01)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            mountain_pass_solve(cfg, np.full(cfg.grid.shape, 1e100))

    def test_overflowing_trial_is_halved(self, monkeypatch):
        # the first line-search trial sees overflowed masses; the solver
        # halves its step and still reaches the ground state
        cfg = unit_config(nodes=9, lam=0.01)
        plain, _ = mountain_pass_solve(cfg, np.ones(cfg.grid.shape))
        real, trials = variational._masses, []

        def first_trial_overflows(u, weights, term):
            masses = real(u, weights, term)
            if sys._getframe(1).f_code is mountain_pass_solve.__code__:
                trials.append(u.copy())
                if len(trials) == 1:
                    return [math.inf] * len(masses)
            return masses

        monkeypatch.setattr(variational, "_masses", first_trial_overflows)
        report, _ = mountain_pass_solve(cfg, np.ones(cfg.grid.shape))
        assert len(trials) > 2 and report.converged and report.iterations > 0
        # the second trial halves the first one's step from the projected start
        ones = np.ones(cfg.grid.shape)
        start = nehari_scale(ones, cfg) * ones
        np.testing.assert_allclose(trials[1] - start, 0.5 * (trials[0] - start),
                                   rtol=0.0, atol=1e-14 * float(np.max(start)))
        assert report.energy == pytest.approx(plain.energy, rel=1e-9)


# (nodes, lambda, sites): the non-constant solves of the solve-nonconst
# benchmark plus the 32^3 lambda = 20 face pair, and 32^3 at lambda = 50
SOLVE_MATRIX = [
    (32, 5.0, INTERIOR_PAIR), (32, 5.0, FACE_PAIR), (36, 5.0, INTERIOR_PAIR),
    (40, 5.0, INTERIOR_PAIR), (38, 20.0, FACE_PAIR), (40, 20.0, FACE_PAIR),
    (32, 20.0, FACE_PAIR), (32, 50.0, INTERIOR_PAIR), (32, 50.0, FACE_PAIR),
]


def _cyclic(sites, shift):
    return tuple(tuple(x[(i + shift) % 3] for i in range(3)) for x in sites)


def _solve_case_id(nodes, lam, sites, shift):
    name = f"{'interior' if sites == INTERIOR_PAIR else 'face'}-{lam}"
    return name + (f"-n{nodes}" if nodes != 32 else "") + (f"-shift{shift}" if shift else "")


SOLVE_CASES = [(n, lam, sites, shift) for n, lam, sites in SOLVE_MATRIX
               for shift in ((0,) if lam == 50.0 else (0, 1, 2))]


class TestSolverReachesTolerance:
    """Solves at lambda 5-50 on 32^3-40^3, the lambda 5 and 20 ones in the
    three cyclic axis orders of their sites, reach grad_tol 1e-6 within
    ``BUDGET`` iterations although their last Armijo decreases fall below the
    rounding of the energy; so do the interior pair's 64^3 solves at lambda 5
    and 50, within the solver's 400."""

    BUDGET = 60  # the slowest matrix solve takes 45 L-BFGS iterations

    @staticmethod
    @lru_cache(maxsize=None)
    def solve(nodes, lam, sites):
        cfg = unit_config(nodes=nodes, lam=lam, sites=tuple(Singularity(x, 1.0) for x in sites))
        return mountain_pass_solve(cfg, opts=SolveOptions(max_iters=400))[0]

    @pytest.mark.parametrize("nodes, lam, sites, shift", SOLVE_CASES,
                             ids=[_solve_case_id(*case) for case in SOLVE_CASES])
    def test_converges(self, nodes, lam, sites, shift):
        report = self.solve(nodes, lam, _cyclic(sites, shift))
        assert report.converged, report
        assert report.residual_sup < 1e-6
        assert report.iterations <= self.BUDGET, report

    @pytest.mark.parametrize("lam", [5.0, 50.0])
    def test_converges_on_a_64_grid(self, lam):
        report = self.solve(64, lam, INTERIOR_PAIR)
        assert report.converged, report
        assert report.residual_sup < 1e-6

    @pytest.mark.parametrize("lam, budget, expected", [
        (5.0, 33, 1.28863676836546), (50.0, 15, 1.72671165347998)])
    def test_unit_cube_65_interior_pair(self, lam, budget, expected):
        """The nested 2n - 1 grid of the refinement ladders: iteration
        counts and energies of the interior pair at lambda 5 and 50."""
        report = self.solve(65, lam, INTERIOR_PAIR)
        assert report.converged, report
        assert report.residual_sup < 1e-6
        assert report.iterations <= budget, report
        assert report.energy == pytest.approx(expected, rel=1e-10)

    def test_axis_order_does_not_change_the_solution(self):
        plain = self.solve(32, 5.0, INTERIOR_PAIR)
        turned = self.solve(32, 5.0, _cyclic(INTERIOR_PAIR, 1))
        assert plain.converged and turned.converged
        assert turned.energy == pytest.approx(plain.energy, rel=1e-12)


class TestScalingLaws:
    def test_constant_peak_scale_tracks_box_dilation(self):
        # doubling the box and dividing lambda by 4 multiplies the
        # constant-path maximiser by (lam' V' / C1')^(1/(q-2)) -> 2^(-1/2)
        small = unit_config(nodes=17, lam=1.0)
        big_grid = DomainGrid(((0.0, 2.0),) * 3, (17,) * 3)
        big = ProblemConfig(
            big_grid, 0.25, (Singularity((1.0, 1.0, 1.0), 1.0),)
        )
        c_small = nehari_scale(np.ones(small.grid.shape), small)
        c_big = nehari_scale(np.ones(big.grid.shape), big)
        assert c_big / c_small == pytest.approx(2.0**-0.5, rel=0.02)


class TestNegativeLambdaSanity:
    def test_zero_and_negative_lambda(self):
        for lam in (0.0, -1.0):
            cfg = unit_config(nodes=9, lam=lam)
            assert negative_lambda_sanity(cfg, (0.1, 1.0, 10.0)) is True

    def test_positive_lambda_rejected(self):
        with pytest.raises(PositiveLambda):
            negative_lambda_sanity(unit_config(lam=1.0), (1.0,))

    def test_bad_samples_rejected(self):
        cfg = unit_config(lam=0.0)
        with pytest.raises(ValueError):
            negative_lambda_sanity(cfg, ())
        with pytest.raises(ValueError):
            negative_lambda_sanity(cfg, (1.0, -2.0))


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        grid = DomainGrid(((0.0, 2.0), (-1.0, 1.0)), (9, 12))
        values = np.arange(9 * 12, dtype=float).reshape(9, 12) / 7.0
        path = tmp_path / "field.bin"
        save_field(path, grid, values)
        loaded_grid, loaded = load_field(path)
        assert loaded_grid == grid
        assert np.array_equal(loaded, values)

    def test_truncated_file_rejected(self, tmp_path):
        grid = DomainGrid(UNIT3, (9,) * 3)
        path = tmp_path / "field.bin"
        save_field(path, grid, np.ones(grid.shape))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError):
            load_field(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(ValueError):
            load_field(path)


class TestCrossModuleBubbleEnergy:
    def test_discrete_energy_matches_radial_quadrature(self):
        # an interior concentration site sees two half-space contributions,
        # so the reference energy doubles every flat half-space entry of the
        # radial breakdown:  (1/2)(2 K0e + lam * 2 L2e) - (1/q)(2 K1e)
        p = HSParams(3, 1.0)
        eps, delta, lam = 0.025, 0.25, 1.0
        b = bubble_energies(
            eps,
            BoundaryGeometry((0.0, 0.0), delta),
            CutoffSpec(delta),
            [],
            p,
        )
        q = p.two_star
        reference = 0.5 * (2.0 * b.grad_energy + lam * 2.0 * b.l2_mass) - (
            2.0 / q
        ) * b.near_mass

        grid = DomainGrid(UNIT3, (64,) * 3)
        cfg = ProblemConfig(grid, lam, (Singularity(CENTER, 1.0),))
        r = np.sqrt(
            sum(
                (grid.axis_nodes(k).reshape([-1 if j == k else 1 for j in range(3)])
                 - 0.5) ** 2
                for k in range(3)
            )
        )
        u = CutoffSpec(delta).value(r) * bubble_field(grid, CENTER, eps, 1.0)
        discrete = energy(u, cfg)
        assert discrete == pytest.approx(reference, rel=0.02)
