"""Extremal profiles and whole-space constants: closed-form anchors."""

import math

import numpy as np
import pytest

from hslab import extremals, quadrature
from hslab.extremals import (
    CONSTANTS_CACHE_SIZE,
    HSParams,
    NonPositiveEps,
    bubble_radial,
    whole_space_constants,
    whole_space_constants_batch,
)
from hslab.quadrature import DEFAULT_REL_TOL, sphere_surface_area

from box_quadrature import integrate_box
from oracles import NonPositiveScale, extremal_value, rayleigh_quotient_check


P31 = HSParams(N=3, s=1.0)
P41 = HSParams(N=4, s=1.0)


class TestParams:
    def test_two_star(self):
        assert P31.two_star == pytest.approx(4.0, rel=1e-15)
        assert P41.two_star == pytest.approx(3.0, rel=1e-15)
        assert HSParams(N=5, s=0.5).two_star == pytest.approx(3.0, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            HSParams(N=2, s=1.0)
        with pytest.raises(ValueError):
            HSParams(N=3, s=0.0)
        with pytest.raises(ValueError):
            HSParams(N=3, s=2.0)


class TestProfiles:
    def test_unit_profile_center(self):
        # normalized profile equals 1 at the origin for every admissible (N, s)
        for n in (3, 4, 5):
            for s in (0.5, 1.0, 1.5):
                p = HSParams(N=n, s=s)
                assert bubble_radial(0.0, 1.0, p) == pytest.approx(1.0, rel=1e-15)

    def test_unit_profile_at_one(self):
        # (1 + 1)^((2-N)/(2-s)) at radius 1
        assert bubble_radial(1.0, 1.0, P31) == pytest.approx(0.5, rel=1e-14)
        assert bubble_radial(1.0, 1.0, P41) == pytest.approx(0.25, rel=1e-14)

    def test_center_amplitude_scaling(self):
        # value at the center is eps^(-(N-2)/(2(2-s)))
        for p in (P31, P41, HSParams(N=5, s=0.5)):
            for eps in (1e-2, 1e-4):
                expected = eps ** (-(p.N - 2) / (2.0 * (2.0 - p.s)))
                assert bubble_radial(0.0, eps, p) == pytest.approx(expected, rel=1e-13)

    def test_concentration_scaling_identity(self):
        # U_eps(x) = eps^(-(N-2)/(2(2-s))) * U_1(x / eps^(1/(2-s)))
        rng = np.random.default_rng(42)
        for p in (P31, P41, HSParams(N=5, s=1.5)):
            for eps in (0.3, 0.01):
                scale = eps ** (1.0 / (2.0 - p.s))
                amp = eps ** (-(p.N - 2) / (2.0 * (2.0 - p.s)))
                for _ in range(5):
                    r = float(np.linalg.norm(rng.standard_normal(p.N)))
                    lhs = bubble_radial(r, eps, p)
                    rhs = amp * bubble_radial(r / scale, 1.0, p)
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_extremal_value_linear_base_center(self):
        # prefactor (scale*(N-s)*(N-2))^((N-2)/(2(N-s))) at the origin, scale=1
        expected = (1.0 * 2.0 * 1.0) ** (1.0 / 4.0)
        assert extremal_value(np.zeros(3), 1.0, P31) == pytest.approx(
            expected, rel=1e-14
        )

    def test_rejects_nonpositive_scale_and_eps(self):
        with pytest.raises(NonPositiveScale):
            extremal_value(np.zeros(3), 0.0, P31)
        with pytest.raises(NonPositiveEps):
            bubble_radial(0.0, -1.0, P31)


class TestWholeSpaceConstants:
    def test_three_dim_closed_forms(self):
        c = whole_space_constants(P31)
        assert c.grad_energy == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)
        assert c.weighted_mass == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)
        assert c.best_constant == pytest.approx(
            math.sqrt(8.0 * math.pi / 3.0), rel=1e-10
        )

    def test_four_dim_closed_forms(self):
        c = whole_space_constants(P41)
        assert c.grad_energy == pytest.approx(2.0 * math.pi**2 / 5.0, rel=1e-10)
        assert c.weighted_mass == pytest.approx(math.pi**2 / 15.0, rel=1e-10)

    def test_best_constant_consistency(self):
        # best constant is grad / mass^(2/q) with q = 2(N-s)/(N-2)
        for p in (P31, P41, HSParams(N=5, s=0.5)):
            c = whole_space_constants(p)
            q = p.two_star
            assert c.best_constant == pytest.approx(
                c.grad_energy / c.weighted_mass ** (2.0 / q), rel=1e-10
            )

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("s", [1.8, 1.9, 1.95, 1.99])
    def test_beta_closed_forms_near_s_two(self, n, s):
        # each radial moment is (1/p) B(x, b - x), p = 2 - s, x = (a+1)/p
        b = 2.0 * (n - s) / (2.0 - s)

        def moment(a):
            x = (a + 1.0) / (2.0 - s)
            return math.exp(math.lgamma(x) + math.lgamma(b - x) - math.lgamma(b)) / (2.0 - s)

        omega = sphere_surface_area(n)
        grad = (n - 2.0) ** 2 * omega * moment(n + 1.0 - 2.0 * s)
        mass = omega * moment(n - 1.0 - s)
        c = whole_space_constants(HSParams(N=n, s=s))
        assert c.grad_energy == pytest.approx(grad, rel=1e-12, abs=0.0)
        assert c.weighted_mass == pytest.approx(mass, rel=1e-12, abs=0.0)
        assert c.best_constant == pytest.approx(
            grad / mass ** ((n - 2.0) / (n - s)), rel=1e-12, abs=0.0
        )


class TestConstantsBatch:
    def test_cold_batch_matches_one_pair_at_a_time_bit_for_bit(self):
        ps = [HSParams(N=n, s=s) for n in (3, 4, 5) for s in (0.2, 0.9, 1.45, 1.9)]
        ps.append(ps[3])
        for rel_tol in (DEFAULT_REL_TOL, 1e-12):
            extremals._CONSTANTS.clear()
            batch = whole_space_constants_batch(ps, rel_tol)
            singles = []
            for p in ps:
                extremals._CONSTANTS.clear()
                singles.append(whole_space_constants(p, rel_tol))
            assert batch == singles

    def test_cache_keys_on_the_pair_and_rel_tol(self, monkeypatch):
        # one _beta_halves run fills the cache for a pair at one rel_tol; only
        # another rel_tol makes a second run
        runs = []
        plain = quadrature._beta_halves

        def recording(pairs, rel_tol):
            runs.append(rel_tol)
            return plain(pairs, rel_tol)

        monkeypatch.setattr(quadrature, "_beta_halves", recording)
        extremals._CONSTANTS.clear()
        p = HSParams(N=3, s=0.77)
        (batch,) = whole_space_constants_batch([p], 3e-12)
        assert whole_space_constants(p, rel_tol=3e-12) is batch
        assert runs == [3e-12]
        other = whole_space_constants(p, rel_tol=1e-11)
        assert other.best_constant == pytest.approx(batch.best_constant, rel=1e-10)
        assert runs == [3e-12, 1e-11]
        whole_space_constants(p, rel_tol=1e-11)
        assert runs == [3e-12, 1e-11]

    def test_cache_keeps_the_most_recently_used_pairs(self):
        extremals._CONSTANTS.clear()
        ps = [HSParams(N=3, s=0.2 + k / 256.0) for k in range(CONSTANTS_CACHE_SIZE + 6)]
        whole_space_constants_batch(ps[:-1])
        whole_space_constants(ps[5])  # a hit: the oldest pair left becomes the newest
        whole_space_constants(ps[-1])
        cached = {p for p, _ in extremals._CONSTANTS}
        assert len(cached) == CONSTANTS_CACHE_SIZE
        assert cached == {ps[5], *ps[7:]}


class TestRayleighQuotient:
    def test_scale_independence(self):
        a = rayleigh_quotient_check(0.5, P31, base="power")
        b = rayleigh_quotient_check(2.0, P31, base="power")
        assert a == pytest.approx(b, rel=1e-9)

    def test_power_base_attains_best_constant(self):
        for p in (P31, P41, HSParams(N=5, s=1.5)):
            c = whole_space_constants(p)
            q = rayleigh_quotient_check(1.0, p, base="power")
            assert q == pytest.approx(c.best_constant, rel=1e-8)

    @pytest.mark.parametrize("n", [3, 4])
    def test_power_base_keeps_the_head_mass_near_s_two(self, n):
        # at scale 1e-3 and s = 1.8 the profile width is 1e-15 and the
        # integrands spread their mass over the fifteen decades below r = 1
        p = HSParams(N=n, s=1.8)
        q = rayleigh_quotient_check(1e-3, p, base="power")
        assert q == pytest.approx(whole_space_constants(p).best_constant, rel=1e-12)

    def test_linear_base_optimal_only_when_s_is_one(self):
        # the linear radial profile is the true optimizer at s=1 ...
        c = whole_space_constants(P31)
        at_one = rayleigh_quotient_check(1.0, P31, base="linear")
        assert at_one == pytest.approx(c.best_constant, rel=1e-8)
        # ... and strictly worse otherwise
        p = HSParams(N=3, s=0.5)
        off = rayleigh_quotient_check(1.0, p, base="linear")
        assert off > whole_space_constants(p).best_constant * (1.0 + 1e-6)


class TestCrossCheckWithBoxQuadrature:
    def test_weighted_mass_against_grid_quadrature(self):
        # integrate |x|^-s U_1^q over a large box and compare with the
        # radial value; the tail beyond radius 16 is ~ 2*pi/256 in 3-D
        p = P31
        q = p.two_star

        def integrand(pts):
            r = np.sqrt(np.sum(pts * pts, axis=1))
            u = (1.0 + r) ** (-1.0)
            return u**q / r

        box = ((-16.0, 16.0),) * 3
        approx = integrate_box(integrand, box, 256)
        k1 = whole_space_constants(p).weighted_mass
        assert approx < k1  # box truncation only loses positive mass
        assert approx == pytest.approx(k1, rel=0.02)
