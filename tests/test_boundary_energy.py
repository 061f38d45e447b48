"""Boundary bubble energies: sliver asymptotics, breakdown, ray peaks."""

import itertools
import math

import numpy as np
import pytest

from hslab.boundary_energy import (
    _W_EDGES,
    _direction_moments,
    _inner_stack,
    _profile_pack,
    _slivers,
    BoundaryGeometry,
    CutoffSpec,
    EnergyBreakdown,
    EpsTooLarge,
    bubble_energies,
    fit_log_slope,
    ray_peak_energy,
    sliver_energy_leading_coefficient,
    sliver_mass_leading_coefficient,
)
from hslab.extremals import HSParams, whole_space_constants
from hslab.identities import NonpositivePart, sliver_ratio_limit
from hslab.quadrature import KRONROD15_NODES, KRONROD15_WEIGHTS, Divergent, QuadratureSettings

from box_quadrature import integrate_box
from oracles import (
    fit_power_log_basis,
    sliver_energy_integral,
    sliver_mass_integral,
    threshold_inequality_check,
    uncut_density,
)

P31 = HSParams(N=3, s=1.0)
P41 = HSParams(N=4, s=1.0)
P55 = HSParams(N=5, s=0.5)

GEOM41 = BoundaryGeometry(curvatures=(1.0, 1.0, 1.0), delta=0.1)
FLAT3 = BoundaryGeometry(curvatures=(0.0, 0.0), delta=0.1)


def make_breakdown(**kw) -> EnergyBreakdown:
    base = dict(
        eps=1e-4,
        grad_energy=2.0,
        near_mass=0.5,
        far_masses=(),
        l2_mass=0.3,
        sliver_energy=0.0,
        sliver_mass=0.0,
    )
    base.update(kw)
    return EnergyBreakdown(**base)


class TestGeometryAndCutoff:
    def test_mean_curvature_is_sum(self):
        assert GEOM41.mean_curvature == pytest.approx(3.0, rel=1e-15)
        assert BoundaryGeometry((0.5, -0.2), 0.1).mean_curvature == pytest.approx(
            0.3, rel=1e-12
        )

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BoundaryGeometry((1.0,), delta=0.0)
        with pytest.raises(ValueError):
            BoundaryGeometry((), delta=0.1)

    def test_cutoff_plateau_and_support(self):
        cut = CutoffSpec(delta=0.2)
        r = np.array([0.0, 0.1, 0.2, 0.4, 0.5, 1.0])
        v = cut.value(r)
        assert np.all(v[:3] == 1.0)  # identically one through r = delta
        assert np.all(v[3:] == 0.0)  # identically zero from r = 2*delta
        assert np.all(cut.slope(r) == 0.0)

    def test_cutoff_ramp_midpoint(self):
        cut = CutoffSpec(delta=0.2)
        mid = np.array([0.3])  # t = 1/2 on the ramp
        assert cut.value(mid)[0] == pytest.approx(0.5, rel=1e-14)
        # d/dr [1 - t^3(10 - 15t + 6t^2)] = -30 t^2 (1-t)^2 / delta
        assert cut.slope(mid)[0] == pytest.approx(-30.0 * 0.0625 / 0.2, rel=1e-13)

    def test_cutoff_monotone_on_ramp(self):
        cut = CutoffSpec(delta=0.1)
        r = np.linspace(0.1, 0.2, 201)
        v = cut.value(r)
        assert np.all(np.diff(v) <= 0.0)
        assert np.all(cut.slope(r[1:-1]) < 0.0)

    def test_cutoff_never_negative_just_inside_outer_edge(self):
        # the descent polynomial rounds to about -1e-15 just below r = 2*delta
        v = CutoffSpec(0.1).value(0.2 * (1.0 - np.logspace(-12, -2, 2000)))
        assert np.all(v >= 0.0)


class TestSliverIntegrals:
    def test_flat_boundary_has_no_sliver(self):
        assert sliver_energy_integral(1e-4, FLAT3, P31) == 0.0
        assert sliver_mass_integral(1e-4, FLAT3, P31) == 0.0

    def test_leading_coefficients_closed_form(self):
        # N=4, s=1, unit curvatures: H (N-2)^2 / (2(N-1)) * area(S^2) * B(5,1)
        # = 2 * 4*pi * (1/5) for the energy and H/(2(N-1)) * 4*pi * B(4,2)
        # = (1/2) * 4*pi * (1/20) for the mass
        coef_e = sliver_energy_leading_coefficient(GEOM41, P41)
        coef_m = sliver_mass_leading_coefficient(GEOM41, P41)
        assert coef_e == pytest.approx(8.0 * math.pi / 5.0, rel=1e-9)
        assert coef_m == pytest.approx(math.pi / 10.0, rel=1e-9)

    def test_energy_coefficient_diverges_in_three_dims(self):
        geom = BoundaryGeometry((1.0, 1.0), 0.1)
        with pytest.raises(Divergent):
            sliver_energy_leading_coefficient(geom, P31)

    def test_mass_coefficient_exists_in_three_dims(self):
        geom = BoundaryGeometry((1.0, 1.0), 0.1)
        assert sliver_mass_leading_coefficient(geom, P31) > 0.0

    def test_sliver_over_tau_approaches_coefficients(self):
        eps = 1e-6
        tau = eps  # s = 1
        coef_e = sliver_energy_leading_coefficient(GEOM41, P41)
        coef_m = sliver_mass_leading_coefficient(GEOM41, P41)
        assert sliver_energy_integral(eps, GEOM41, P41) / tau == pytest.approx(
            coef_e, rel=0.02
        )
        assert sliver_mass_integral(eps, GEOM41, P41) / tau == pytest.approx(
            coef_m, rel=0.02
        )

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("n", [4, 5])
    def test_equal_curvature_sliver_meets_closed_form(self, n, s):
        # the pure profile at tau = 1e-6, on an equal-curvature wall (one
        # node of the curvature rule, the exact sliver) and on a wall with
        # distinct curvatures (eight nodes); the leading coefficients depend
        # on H alone.  At N = 4 the energy's next term is about -3.7 tau
        # relative, so there only the mass is held
        p = HSParams(n, s)
        eps = 1e-6 ** (2.0 - s)
        tau = eps ** (1.0 / (2.0 - s))
        for curv in ((1.0,) * (n - 1), tuple(float(a) for a in range(1, n))):
            geom = BoundaryGeometry(curv, 0.1)
            assert sliver_mass_integral(eps, geom, p) / tau == pytest.approx(
                sliver_mass_leading_coefficient(geom, p), rel=1e-8 if n == 5 else 1e-9, abs=0.0
            )
            if n == 5:
                assert sliver_energy_integral(eps, geom, p) / tau == pytest.approx(
                    sliver_energy_leading_coefficient(geom, p), rel=1e-8, abs=0.0
                )

    def test_mass_to_energy_ratio_below_moment_ratio(self):
        # the sliver ratio tends to (N-3)/((N+1-s)(N-2)^2), strictly below
        # the bubble moment ratio 1/(N-2)^2 that drives the threshold gap
        eps = 1e-6
        for p, geom in (
            (P41, GEOM41),
            (P55, BoundaryGeometry((1.0,) * 4, 0.1)),
        ):
            ii = sliver_mass_integral(eps, geom, p)
            i = sliver_energy_integral(eps, geom, p)
            ratio = ii / i
            assert ratio == pytest.approx(sliver_ratio_limit(p), rel=0.02)
            assert ratio < (p.N - 2.0) ** -2

    def test_sliver_scaling_slopes_near_one(self):
        eps_list = [1e-3 * 0.5**k for k in range(5)]
        energies = [sliver_energy_integral(e, GEOM41, P41) for e in eps_list]
        masses = [sliver_mass_integral(e, GEOM41, P41) for e in eps_list]
        assert fit_log_slope(eps_list, energies) == pytest.approx(1.0, abs=0.05)
        assert fit_log_slope(eps_list, masses) == pytest.approx(1.0, abs=0.05)

    def test_three_dim_energy_has_log_factor(self):
        # in three dimensions the energy sliver behaves like
        # c1 * eps * ln(1/eps) + c2 * eps with c1 > 0
        geom = BoundaryGeometry((1.0, 1.0), 0.1)
        eps_list = [1e-3 * 0.5**k for k in range(4)]
        vals = [sliver_energy_integral(e, geom, P31) for e in eps_list]
        c1, _ = fit_power_log_basis(eps_list, vals, 1.0)
        assert c1 > 0.0

    def test_mass_integral_against_independent_plane_quadrature(self):
        # equal unit curvatures make the curvature profile exactly 1/2, so
        # the sliver mass reduces to a two-variable integral
        #   4*pi*(tau/2) * int rho^4 F(sqrt(rho^2 + w^2)) drho dv,
        # w = (tau/2) rho^2 v, F(r) = r^-1 (1+r)^-6, evaluated by midpoint
        # quadrature on (0,4)x(0,1) plus (4,128)x(0,1)
        eps = 1e-3
        tau = eps

        def g(pts):
            rho = pts[:, 0]
            v = pts[:, 1]
            w = 0.5 * tau * rho * rho * v
            r = np.sqrt(rho * rho + w * w)
            return rho**4 / r / (1.0 + r) ** 6

        inner = integrate_box(g, ((0.0, 4.0), (0.0, 1.0)), 2048)
        outer = integrate_box(g, ((4.0, 128.0), (0.0, 1.0)), 1024)
        oracle = 4.0 * math.pi * 0.5 * tau * (inner + outer)
        ours = sliver_mass_integral(eps, GEOM41, P41)
        assert ours == pytest.approx(oracle, rel=2e-3)

    def test_wrong_curvature_count_rejected(self):
        with pytest.raises(ValueError):
            sliver_mass_integral(1e-4, BoundaryGeometry((1.0, 1.0), 0.1), P41)


class TestBubbleEnergies:
    def test_flat_breakdown_approaches_half_space_constants(self):
        # the cutoff ramp adds O(eps) gradient energy, so the gradient term
        # approaches half the whole-space constant from above, while the
        # weighted mass only loses its tail and approaches from below
        cut = CutoffSpec(0.1)
        consts = whole_space_constants(P31)
        prev = None
        for eps in (1e-3, 2.5e-4, 6.25e-5):
            b = bubble_energies(eps, FLAT3, cut, [], P31)
            assert b.grad_energy > 0.5 * consts.grad_energy
            assert b.near_mass < 0.5 * consts.weighted_mass
            if prev is not None:
                assert b.grad_energy < prev.grad_energy
                assert b.near_mass > prev.near_mass
                assert b.l2_mass < prev.l2_mass
            prev = b
        assert prev.grad_energy == pytest.approx(
            0.5 * consts.grad_energy, rel=5e-3
        )
        assert prev.near_mass == pytest.approx(
            0.5 * consts.weighted_mass, rel=5e-3
        )

    def test_far_mass_scaling_slope(self):
        cut = CutoffSpec(0.1)
        eps_list = [1e-3 * 0.5**k for k in range(4)]
        masses = []
        for eps in eps_list:
            b = bubble_energies(eps, FLAT3, cut, [(0.5, 1.0)], P31)
            assert len(b.far_masses) == 1
            masses.append(b.far_masses[0])
        # far-site mass scales like tau^{s_i} = eps^{s_i/(2-s)} = eps
        assert fit_log_slope(eps_list, masses) == pytest.approx(1.0, abs=0.05)

    def test_sliver_fields_nonzero_only_when_curved(self):
        cut = CutoffSpec(0.1)
        flat = bubble_energies(1e-4, FLAT3, cut, [], P31)
        assert flat.sliver_energy == 0.0
        assert flat.sliver_mass == 0.0
        curved = bubble_energies(1e-4, GEOM41, CutoffSpec(0.1), [], P41)
        assert curved.sliver_energy > 0.0
        assert curved.sliver_mass > 0.0

    def test_eps_too_large(self):
        with pytest.raises(EpsTooLarge):
            bubble_energies(0.02, FLAT3, CutoffSpec(0.1), [], P31)

    def test_cutoff_scale_must_match_patch_scale(self):
        with pytest.raises(ValueError):
            bubble_energies(1e-4, FLAT3, CutoffSpec(0.2), [], P31)

    def test_far_site_too_close_rejected(self):
        cut = CutoffSpec(0.1)
        with pytest.raises(ValueError):
            bubble_energies(1e-4, FLAT3, cut, [(0.2, 1.0)], P31)

    def test_far_site_exponent_out_of_range(self):
        cut = CutoffSpec(0.1)
        with pytest.raises(ValueError):
            bubble_energies(1e-4, FLAT3, cut, [(0.5, 2.0)], P31)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            bubble_energies(0.0, FLAT3, CutoffSpec(0.1), [], P31)

    def test_fractional_far_power_near_cutoff_edge_is_finite(self):
        # a quadrature node lands where the unclamped cutoff was -1e-15,
        # whose fractional far-site power is NaN
        b = bubble_energies(
            0.00021187786299926086,
            BoundaryGeometry((1.0, 1.0), 0.1),
            CutoffSpec(0.1),
            [(0.392, 0.562)],
            HSParams(3, 1.0114357053040086),
        )
        entries = [b.grad_energy, b.near_mass, b.l2_mass, b.sliver_energy,
                   b.sliver_mass, *b.far_masses]
        assert len(b.far_masses) == 1
        assert all(math.isfinite(v) for v in entries)


# Ledger entries (grad_energy, near_mass, l2_mass, sliver_energy,
# sliver_mass, far_masses) with delta = 0.1.  Equal curvatures take one node
# of the curvature rule, the anisotropic case eight.
LEDGER_REFERENCES = [
    # N = 3 with 0, 1 and 2 far sites
    (3, 1.0, (1.0, 1.0), 1e-3, [],
     (2.1631532740132258, 1.045988593251228, 0.0007887825353879826,
      0.01947454815669757, 0.0010231729967157392, ())),
    (3, 1.0, (1.0, 1.0), 1e-3, [(0.5, 0.7)],
     (2.1631532740132258, 1.045988593251228, 0.0007887825353879826,
      0.01947454815669757, 0.0010231729967157392, (0.033267494606274026,))),
    (3, 1.0, (1.0, 1.0), 1e-3, [(0.5, 0.7), (0.4, 0.9)],
     (2.1631532740132258, 1.045988593251228, 0.0007887825353879826,
      0.01947454815669757, 0.0010231729967157392,
      (0.033267494606274026, 0.0232521993604888))),
    # anisotropic curvatures with a negative entry
    (4, 1.0, (1.0, -0.5, 2.0), 5e-4, [(0.5, 0.7)],
     (1.972061041964285, 0.328855754093021, 9.215988562129387e-06,
      0.002093091339948041, 0.0001308799358101722, (0.006014743966689717,))),
    (5, 0.5, (1.0, 1.0, 1.0, 1.0), 1e-4, [(0.5, 0.7)],
     (3.9339595999039667, 0.2918683853038663, 2.4286866892044983e-05,
      0.013967411172652718, 0.0005643097066810247, (0.02684480189726763,))),
    # tau = 0.009 near delta/10 with curvature 50: the floor's cap passes 1
    # inside the cutoff ramp
    (3, 1.0, (50.0, 50.0), 9e-3, [(0.5, 0.7)],
     (1.0226200027882921, 0.7591188477169302, 0.0014703944781228092,
      1.7670282576732852, 0.2752665974536866, (0.08816180587015834,))),
]


class TestFusedLedger:
    @pytest.mark.parametrize("n, s, curv, eps, far, expected", LEDGER_REFERENCES)
    def test_matches_reference_values(self, n, s, curv, eps, far, expected):
        b = bubble_energies(
            eps, BoundaryGeometry(curv, 0.1), CutoffSpec(0.1), far, HSParams(n, s)
        )
        got = (b.grad_energy, b.near_mass, b.l2_mass, b.sliver_energy,
               b.sliver_mass, *b.far_masses)
        want = (*expected[:5], *expected[5])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    # the last case is the benchmark's setting, where the rows refine different panels
    @pytest.mark.parametrize("curv, eps", [((1.0, -0.5, 2.0), 5e-4), ((50.0, 50.0), 9e-3),
                                           ((1.0, 1.0, 1.0, 1.0), 2.5e-4)])
    def test_far_sites_leave_other_entries_bit_identical(self, curv, eps):
        p = HSParams(len(curv) + 1, 1.0)
        geom = BoundaryGeometry(curv, 0.1)
        runs = [
            bubble_energies(eps, geom, CutoffSpec(0.1), far, p)
            for far in ([], [(0.5, 0.7)], [(0.5, 0.7), (0.4, 0.9)])
        ]
        for b in runs[1:]:
            assert b.grad_energy == runs[0].grad_energy
            assert b.near_mass == runs[0].near_mass
            assert b.l2_mass == runs[0].l2_mass
            assert b.sliver_energy == runs[0].sliver_energy
            assert b.sliver_mass == runs[0].sliver_mass
        assert runs[2].far_masses[0] == runs[1].far_masses[0]

    @pytest.mark.parametrize("n", [4, 5])
    def test_near_equal_curvatures_meet_the_equal_ledger(self, n):
        # curvatures 1e-12 apart take the eight-node rule on a range of
        # width 5e-13, equal ones the single node: the rule is continuous
        p = HSParams(n, 1.0)

        def ledger(curv):
            b = bubble_energies(1e-3, BoundaryGeometry(curv, 0.1), CutoffSpec(0.1),
                                [(0.5, 0.7)], p)
            return (b.grad_energy, b.near_mass, b.l2_mass, b.sliver_energy, b.sliver_mass,
                    *b.far_masses)

        got = ledger((1.0,) * (n - 2) + (1.0 + 1e-12,))
        want = ledger((1.0,) * (n - 1))
        assert max(abs(g / w - 1.0) for g, w in zip(got, want)) < 1e-9

    def test_slivers_match_a_cartesian_tensor_rule(self):
        # N = 3, curvatures (1, 3), cut bubble at eps = 1e-3: every row's
        # sliver by a tensor Gauss-Legendre rule over the orthant of the
        # support |y'| < 2 delta / tau = 200 (four times), 8 nodes per panel,
        # geometric panels 0, 1/256, ..., 32 and then width 4 to 200, with
        # _inner_stack across the sliver at each point
        p, tau = HSParams(3, 1.0), 1e-3
        cut = CutoffSpec(0.1)
        rows = ("grad", "mass", "l2", HSParams(3, 0.7).two_star)
        edges = np.concatenate([[0.0], 2.0 ** np.arange(-8.0, 6.0), np.arange(36.0, 201.0, 4.0)])
        x, w = np.polynomial.legendre.leggauss(8)
        half = 0.5 * np.diff(edges)[:, None]
        nodes = ((edges[:-1, None] + half) + half * x).ravel()
        weights = (half * w).ravel()
        y1, y2 = (a.ravel() for a in np.meshgrid(nodes, nodes, indexing="ij"))
        wt = np.outer(weights, weights).ravel()
        rho = np.hypot(y1, y2)
        inside = rho < 200.0
        rho, wt = rho[inside], wt[inside]
        floor = tau * 0.5 * (y1[inside] ** 2 + 3.0 * y2[inside] ** 2)
        dens = _profile_pack(p, tau, cut, rows)
        want = 4.0 * sum(
            (_inner_stack(dens, rho[j : j + 8192], floor[j : j + 8192] / rho[j : j + 8192])
             * rho[j : j + 8192]) @ wt[j : j + 8192]
            for j in range(0, rho.size, 8192)
        )
        got = _slivers(p, tau, cut, rows, BoundaryGeometry((1.0, 3.0), 0.1),
                       QuadratureSettings())
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_direction_moments_match_a_gaussian_rule(self, d):
        # E over the sphere of x**j, x = sum b_i theta_i**2, equals
        # E[(sum b_i z_i**2)**j] / E[|z|**(2j)] for a standard normal z in
        # R^d; an 8-point Gauss-Hermite tensor rule is exact for both (degree
        # 2j <= 14 per axis)
        b = np.random.default_rng(d).uniform(-1.0, 1.0, d)
        z, wz = np.polynomial.hermite_e.hermegauss(8)
        zs = np.stack(np.meshgrid(*[z] * d, indexing="ij"), axis=-1).reshape(-1, d) ** 2
        wt = np.prod(np.stack(np.meshgrid(*[wz] * d, indexing="ij"), axis=-1), axis=-1).ravel()
        j = np.arange(8)[:, None]
        want = ((zs @ b) ** j @ wt) / (zs.sum(axis=1) ** j @ wt)
        np.testing.assert_allclose(_direction_moments(b, 8), want, rtol=0.0, atol=1e-14)

    def test_pure_profile_slivers_match_reference_values(self):
        geom = BoundaryGeometry((1.0, -0.5, 2.0), 0.1)
        # the uncut floor changes sign, so these hold the rule's values, which
        # a converged direction rule moves by about 1.6e-6 (see the oracles)
        assert sliver_energy_integral(1e-3, geom, P41) == pytest.approx(
            0.004168923644563273, rel=1e-12, abs=0.0
        )
        assert sliver_mass_integral(1e-3, geom, P41) == pytest.approx(
            0.0002617860121227337, rel=1e-12, abs=0.0
        )


class TestOrbitWalk:
    """the ledger along the orbit of the curvatures under permutation"""

    @pytest.mark.parametrize("curv", [(1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0),
                                      (1.0, -0.5, 2.0), (1.0, -0.5, 1.0), (50.0, 50.0),
                                      (-0.947, 2.35, 0.037)])
    def test_curvature_order_leaves_the_ledger_bit_identical(self, curv):
        # (-0.947, 2.35, 0.037) sums to different doubles in different orders
        p = HSParams(len(curv) + 1, 1.0)
        eps = 9e-3 if curv[0] == 50.0 else 1e-3
        runs = [bubble_energies(eps, BoundaryGeometry(order, 0.1), CutoffSpec(0.1),
                                [(0.5, 0.7)], p)
                for order in sorted(set(itertools.permutations(curv)))]
        assert all(b == runs[0] for b in runs[1:])


# caps of the inner w-integral: inside, at and past the first panel's 1/64,
# and across several geometric panels; radii from the head, plateau and far
# range of the radial sliver
INNER_CAPS = (1e-4, 0.0094, 1.0 / 64.0, 0.1, 2.0)
INNER_RADII = (0.05, 1.3, 9.7, 12.0, 40.0, 1e3)


def composite_k15_inner(dens, rho, w_cap, pieces=8):
    """integral over [0, w_cap] of dens(rho * sqrt(1 + w**2)) by K15 on
    ``pieces`` equal parts of every geometric panel 0, 1/64, 1/32, ..."""
    edges = np.unique(np.clip(_W_EDGES, 0.0, w_cap))
    fine = np.concatenate([np.linspace(a, b, pieces + 1)[:-1]
                           for a, b in zip(edges[:-1], edges[1:])] + [[w_cap]])
    half = 0.5 * np.diff(fine)
    w = (fine[:-1] + half)[:, None] + half[:, None] * KRONROD15_NODES
    return dens(rho * np.sqrt(1.0 + w * w)) @ KRONROD15_WEIGHTS @ half


class TestInnerRule:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_composite_kronrod(self, n, s):
        # the 4-point first panel and the K15 panels past it, against K15 on
        # eight times finer panels: one call per cap (all caps below 1/64 is
        # the case at small radii) and one call mixing every cap
        p = HSParams(n, s)
        dens = uncut_density(p, ("grad", "mass", "l2", HSParams(n, 0.7).two_star))
        rho = np.array(INNER_RADII)
        per_cap = [_inner_stack(dens, rho, np.full(rho.size, c)) for c in INNER_CAPS]
        rho_all, cap_all = np.tile(rho, len(INNER_CAPS)), np.repeat(INNER_CAPS, rho.size)
        want = np.stack([composite_k15_inner(dens, r, c) for r, c in zip(rho_all, cap_all)],
                        axis=1)
        np.testing.assert_allclose(np.concatenate(per_cap, axis=1), want, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(_inner_stack(dens, rho_all, cap_all), want,
                                   rtol=1e-14, atol=0.0)


class TestRayPeak:
    def test_closed_form_zero_lambda(self):
        # q=4: t* = (A/B)^(1/2), peak = (1/4) A^2 / B
        b = make_breakdown()
        peak = ray_peak_energy(b, 0.0, P31)
        assert peak.scale == pytest.approx(2.0, rel=1e-14)
        assert peak.value == pytest.approx(2.0, rel=1e-14)

    def test_matches_dense_scan(self):
        b = make_breakdown(far_masses=(0.04, 0.01))
        lam = 0.7
        peak = ray_peak_energy(b, lam, P31)
        a = b.grad_energy + lam * b.l2_mass
        total = b.near_mass + sum(b.far_masses)
        q = P31.two_star
        t = np.linspace(1e-3, 4.0 * peak.scale, 400001)
        vals = 0.5 * a * t * t - (total / q) * t**q
        k = int(np.argmax(vals))
        assert vals[k] == pytest.approx(peak.value, rel=1e-7)
        assert t[k] == pytest.approx(peak.scale, rel=1e-4)

    def test_zero_mass_raises(self):
        b = make_breakdown(near_mass=0.0)
        with pytest.raises(NonpositivePart):
            ray_peak_energy(b, 1.0, P31)

    def test_nonpositive_quadratic_raises(self):
        b = make_breakdown(grad_energy=0.0, l2_mass=0.0)
        with pytest.raises(ValueError):
            ray_peak_energy(b, 0.0, P31)


class TestFlatPatchRatio:
    def test_grad_over_sqrt_mass_matches_half_space_constant(self):
        # the half bubble satisfies grad / mass^((N-2)/(N-s))
        # = 2^((s-2)/(N-s)) * (whole-space best constant)
        cut = CutoffSpec(0.1)
        b = bubble_energies(1e-5, FLAT3, cut, [], P31)
        ratio = b.grad_energy / b.near_mass**0.5
        target = 2.0**-0.5 * whole_space_constants(P31).best_constant
        assert ratio == pytest.approx(target, rel=0.01)


class TestMarginReport:
    def test_curved_patch_clears_threshold(self):
        report = threshold_inequality_check(
            [1e-4, 2e-5, 5e-6], GEOM41, CutoffSpec(0.1), [], 1.0, P41
        )
        assert report.strict_margin is True
        assert report.scaled_margin_increasing is True
        eps_seen = [row.eps for row in report.rows]
        assert eps_seen == sorted(eps_seen, reverse=True)
        for row in report.rows:
            assert row.margin > 0.0
            assert row.peak < report.threshold

    def test_flat_patch_has_no_margin(self):
        report = threshold_inequality_check(
            [1e-4, 2e-5], FLAT3, CutoffSpec(0.1), [], 1.0, P31
        )
        assert report.strict_margin is False
        for row in report.rows:
            assert row.margin < 0.0


class TestFits:
    def test_log_slope_recovers_exponent(self):
        eps = [1e-2, 5e-3, 2e-3, 1e-3]
        vals = [3.0 * e**0.7 for e in eps]
        assert fit_log_slope(eps, vals) == pytest.approx(0.7, rel=1e-10)

    def test_power_log_basis_recovers_coefficients(self):
        eps = [1e-2, 5e-3, 2e-3, 1e-3, 5e-4]
        vals = [2.0 * e * math.log(1.0 / e) + 5.0 * e for e in eps]
        c1, c2 = fit_power_log_basis(eps, vals, 1.0)
        assert c1 == pytest.approx(2.0, rel=1e-9)
        assert c2 == pytest.approx(5.0, rel=1e-9)

    def test_fit_input_validation(self):
        with pytest.raises(ValueError):
            fit_log_slope([1e-3], [1.0])
        with pytest.raises(ValueError):
            fit_log_slope([1e-3, 1e-4], [1.0, -1.0])
        with pytest.raises(ValueError):
            fit_power_log_basis([1e-3, 1e-4], [1.0], 1.0)
