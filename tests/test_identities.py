"""Moment identities, concentration thresholds, and constant-path bounds."""

import math

import numpy as np
import pytest

from hslab.extremals import HSParams, whole_space_constants
from hslab.identities import (
    EmptySiteList,
    NonpositivePart,
    OutOfRangeBeta,
    SingularitySite,
    beta_recurrence_check,
    beta_recurrence_checks,
    bubble_moment_ratio,
    lambda_existence_bound,
    ps_threshold,
    ray_peak,
    sliver_ratio_limit,
    strict_gap,
)

P31 = HSParams(N=3, s=1.0)
P41 = HSParams(N=4, s=1.0)
P55 = HSParams(N=5, s=0.5)


class TestMomentRecurrence:
    def test_exact_instance(self):
        # N=3, s=1, beta=2: lhs = int r (1+r)^-4 = 1/6,
        # factor (beta-1)/(2N-beta-1-s) = 1/3 applied to int (1+r)^-4 = 1/2
        chk = beta_recurrence_check(2.0, P31)
        assert chk.lhs == pytest.approx(1.0 / 6.0, rel=1e-10)
        assert chk.rhs == pytest.approx(1.0 / 6.0, rel=1e-10)
        assert chk.rel_diff < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_recurrence_grid(self, n, s):
        p = HSParams(N=n, s=s)
        top = 2.0 * (n - s) - 1.0
        for k in range(5):
            beta = 2.0 + (top - 2.0) * (k + 0.5) / 5.0
            chk = beta_recurrence_check(beta, p)
            assert chk.rel_diff < 1e-10, (n, s, beta, chk)

    def test_fractional_head_on_one_panel(self):
        # the upper half of lhs maps to m = 8 with head t**1.186, where one
        # panel's K15 and G7 agree to 2e-10 while K15 is 5e-7 off
        chk = beta_recurrence_check(6.141547606193991, HSParams(N=4, s=0.42922619690300456))
        assert chk.rel_diff < 1e-12, chk

    def test_beta_below_range(self):
        with pytest.raises(OutOfRangeBeta):
            beta_recurrence_check(1.5, P31)

    def test_beta_at_divergence_edge(self):
        with pytest.raises(OutOfRangeBeta):
            beta_recurrence_check(2.0 * (3 - 1.0), P31)


class TestStackedRecurrence:
    @pytest.mark.parametrize("n, s", [(3, 0.2), (3, 1.0), (3, 1.5), (4, 0.5), (4, 1.3),
                                      (4, 1.9), (5, 0.9), (5, 1.6), (5, 1.9)])
    def test_matches_one_beta_at_a_time_bit_for_bit(self, n, s):
        p = HSParams(N=n, s=s)
        top = 2.0 * (n - s) - 1.0
        drawn = np.random.default_rng(n + int(10 * s)).uniform(2.0, top, 5)
        for betas in (np.linspace(2.0, top, 6), drawn):
            assert beta_recurrence_checks(betas, p) == [beta_recurrence_check(b, p) for b in betas]

    def test_out_of_range_beta_refuses_the_list(self):
        with pytest.raises(OutOfRangeBeta):
            beta_recurrence_checks([2.0, 99.0, 3.0], P31)


class TestRatioLimits:
    def test_sliver_ratio_values(self):
        # (N-3) / ((N+1-s)(N-2)^2)
        assert sliver_ratio_limit(P41) == pytest.approx(1.0 / 16.0, rel=1e-14)
        assert sliver_ratio_limit(P55) == pytest.approx(2.0 / 49.5, rel=1e-14)
        assert sliver_ratio_limit(P31) == 0.0

    def test_moment_ratio_closed_form(self):
        for p in (P41, P55, HSParams(N=4, s=0.5)):
            ratio = bubble_moment_ratio(p)
            assert ratio.closed == pytest.approx((p.N - 2.0) ** -2, rel=1e-14)
            assert ratio.quadrature == pytest.approx(ratio.closed, rel=1e-9)

    def test_strict_gap_positive(self):
        # moment ratio minus sliver limit = (4-s)/((N+1-s)(N-2)^2) > 0
        for p in (P31, P41, P55):
            g = strict_gap(p)
            expected = (4.0 - p.s) / ((p.N + 1 - p.s) * (p.N - 2.0) ** 2)
            assert g == pytest.approx(expected, rel=1e-12)
            assert g > 0.0
            assert g == pytest.approx(
                bubble_moment_ratio(p).closed - sliver_ratio_limit(p), rel=1e-12
            )


class TestThresholds:
    def test_interior_value_three_dim(self):
        sites = [SingularitySite(1.0, 1.0)]
        rep = ps_threshold(3, sites)
        assert rep.overall == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)

    def test_boundary_is_half_of_interior(self):
        for p in (P31, P41, P55):
            inner = ps_threshold(
                p.N, [SingularitySite(1.0, p.s)]
            ).overall
            face = ps_threshold(
                p.N, [SingularitySite(0.5, p.s)]
            ).overall
            assert face == pytest.approx(inner / 2.0, rel=1e-12)
            assert face < inner

    def test_boundary_value_three_dim(self):
        sites = [SingularitySite(0.5, 1.0)]
        rep = ps_threshold(3, sites)
        assert rep.overall == pytest.approx(math.pi / 3.0, rel=1e-10)

    def test_overall_is_minimum_across_sites(self):
        sites = [
            SingularitySite(1.0, 1.0),
            SingularitySite(0.5, 1.0),
            SingularitySite(1.0, 0.5),
        ]
        rep = ps_threshold(3, sites)
        levels = [level for _, level in rep.per_site]
        assert rep.overall == min(levels)
        assert len(rep.per_site) == 3

    def test_level_scales_with_share(self):
        inner = ps_threshold(3, [SingularitySite(1.0, 1.0)]).overall
        for theta in (0.5, 0.25, 0.125):
            level = ps_threshold(3, [SingularitySite(theta, 1.0)]).overall
            assert level == theta * inner

    @pytest.mark.parametrize("theta", [0.0, 1.5, math.nan])
    def test_share_outside_unit_interval_rejected(self, theta):
        with pytest.raises(ValueError):
            SingularitySite(theta, 1.0)

    def test_threshold_formula(self):
        # interior level is (2-s)/(2(N-s)) * S^((N-s)/(2-s))
        for p in (P41, P55):
            S = whole_space_constants(p).best_constant
            expected = (2.0 - p.s) / (2.0 * (p.N - p.s)) * S ** (
                (p.N - p.s) / (2.0 - p.s)
            )
            rep = ps_threshold(p.N, [SingularitySite(1.0, p.s)])
            assert rep.overall == pytest.approx(expected, rel=1e-9)

    def test_empty_site_list(self):
        with pytest.raises(EmptySiteList):
            ps_threshold(3, [])


class TestConstantPath:
    def test_closed_form(self):
        lam, volume, c1, q = 0.7, 2.0, 1.3, 4.0
        c_star, value = ray_peak(lam * volume, [c1], [q])
        assert c_star == pytest.approx((lam * volume / c1) ** (1.0 / (q - 2.0)),
                                       rel=1e-14)
        expected = (0.5 - 1.0 / q) * lam * volume * c_star**2
        assert value == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_scan(self):
        lam, volume, c1, q = 0.25, 1.0, 0.9, 4.0
        c_star, value = ray_peak(lam * volume, [c1], [q])
        best_c, best_v = 0.0, -math.inf
        step = c_star / 5000.0
        for k in range(1, 20001):
            c = k * step
            v = 0.5 * lam * volume * c * c - (c1 / q) * c**q
            if v > best_v:
                best_c, best_v = c, v
        assert abs(best_c - c_star) <= step * 1.5
        assert value == pytest.approx(best_v, rel=1e-6)


class TestRayPeak:
    def test_mixed_maximiser_is_stationary(self):
        a, masses, qs = 1.7, [0.8, 0.5, 0.3], [4.0, 3.0, 10.0 / 3.0]
        t, peak = ray_peak(a, masses, qs)
        slope = sum(m * t ** (q - 2.0) for m, q in zip(masses, qs))
        assert slope == pytest.approx(a, rel=1e-14)
        assert peak == pytest.approx(
            0.5 * a * t * t - sum(m * t**q / q for m, q in zip(masses, qs)), rel=1e-15)

    def test_splitting_a_mass_changes_nothing(self):
        q = P31.two_star
        whole = ray_peak(0.9, [0.8, 0.5], [q, 3.0])
        split = ray_peak(0.9, [0.3, 0.5, 0.5], [q, 3.0, q])
        assert split[0] == pytest.approx(whole[0], rel=1e-15)
        assert split[1] == pytest.approx(whole[1], rel=1e-15)
        single = ray_peak(0.9, [0.8], [q])
        assert ray_peak(0.9, [0.3, 0.5], [q, q])[1] == pytest.approx(single[1], rel=1e-15)
        bound = lambda_existence_bound(1.5, [0.8], [q], 2.0)
        assert lambda_existence_bound(1.5, [0.3, 0.5], [q, q], 2.0) == pytest.approx(
            bound, rel=1e-15)
        mixed = lambda_existence_bound(1.5, [0.8, 0.5], [q, 3.0], 2.0)
        assert lambda_existence_bound(1.5, [0.3, 0.5, 0.5], [q, 3.0, q], 2.0) == (
            pytest.approx(mixed, rel=1e-15))

    def test_massless_sites_are_skipped(self):
        assert ray_peak(0.9, [0.8, 0.0], [4.0, 3.0]) == ray_peak(0.9, [0.8], [4.0])
        with pytest.raises(NonpositivePart):
            ray_peak(0.9, [0.0, -1.0], [4.0, 3.0])
        with pytest.raises(ValueError):
            ray_peak(0.0, [0.8], [4.0])

    @pytest.mark.parametrize("a, masses", [
        (0.9, [math.inf]), (0.9, [0.8, math.inf]), (0.9, [math.nan]),
        (0.9, [0.0, math.inf]), (math.inf, [0.8]), (math.nan, [0.8]),
    ])
    def test_non_finite_inputs_raise(self, a, masses):
        # an overflowed mass would otherwise give the peak scale (a/inf)**(1/2) = 0
        with pytest.raises(ValueError, match="finite") as info:
            ray_peak(a, masses, [4.0, 3.0][: len(masses)])
        assert not isinstance(info.value, NonpositivePart)


def closed_form_bound(volume, c1, q, threshold):
    """Single-exponent bound: the peak (1/2 - 1/q) lam V (lam V / c1)**(2/(q-2))
    solved for lam."""
    kappa = (0.5 - 1.0 / q) * volume ** (q / (q - 2.0)) * c1 ** (-2.0 / (q - 2.0))
    return (threshold / kappa) ** ((q - 2.0) / q)


class TestLambdaBound:
    def test_scaling_in_c1(self):
        threshold = ps_threshold(P31.N, [SingularitySite(1.0, 1.0)]).overall
        q = P31.two_star
        base = lambda_existence_bound(1.0, [1.0], [q], threshold)
        doubled = lambda_existence_bound(1.0, [2.0], [q], threshold)
        assert doubled == pytest.approx(base * 2.0 ** (2.0 / q), rel=1e-12)

    def test_bound_saturates_threshold(self):
        sites = [SingularitySite(1.0, 1.0)]
        volume, c1 = 1.0, 1.0
        threshold = ps_threshold(P31.N, sites).overall
        lam = lambda_existence_bound(volume, [c1], [P31.two_star], threshold)
        _, peak = ray_peak(lam * volume, [c1], [P31.two_star])
        assert peak == pytest.approx(threshold, rel=1e-12)

    def test_numeric_matches_closed_single_term(self):
        sites = [SingularitySite(1.0, 1.0)]
        volume, c1 = 1.5, 0.8
        threshold = ps_threshold(P31.N, sites).overall
        closed = closed_form_bound(volume, c1, P31.two_star, threshold)
        numeric = lambda_existence_bound(volume, [c1], [P31.two_star], threshold)
        assert numeric == pytest.approx(closed, rel=1e-14)

    def test_numeric_handles_mixed_exponents(self):
        # two singular terms with different exponents: below the bound the
        # constant-path peak stays under the threshold, above it exceeds
        terms = [(0.8, 4.0), (0.5, 3.0)]
        threshold = 1.0
        volume = 1.0
        lam = lambda_existence_bound(volume, [c for c, _ in terms], [q for _, q in terms],
                                     threshold)

        def peak(lam_val):
            lo, hi = 1e-12, 1e12
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                slope = lam_val * volume - sum(
                    c * mid ** (q - 2.0) for c, q in terms
                )
                if slope > 0.0:
                    lo = mid
                else:
                    hi = mid
            c = math.sqrt(lo * hi)
            return 0.5 * lam_val * volume * c * c - sum(
                (c1 / q) * c**q for c1, q in terms
            )

        assert peak(lam * 0.999) < threshold
        assert peak(lam * 1.001) > threshold

    @pytest.mark.parametrize("masses, qs, threshold", [
        ([0.8, 0.5], [4.0, 3.0], 1.0),
        ([2.0, 0.1, 0.7], [4.0, 2.5, 10.0 / 3.0], 0.03),
        ([1e-3, 5.0], [6.0, 2.2], 40.0),
    ])
    def test_mixed_bound_peak_meets_threshold(self, masses, qs, threshold):
        lam = lambda_existence_bound(2.0, masses, qs, threshold)
        assert ray_peak(2.0 * lam, masses, qs)[1] == pytest.approx(threshold, rel=1e-13)

    def test_no_bracket_limits_the_bound(self):
        # a lambda far above 1e8, where a bracketed bisection on [1e-8, 1e8]
        # could not reach
        lam = lambda_existence_bound(1.0, [1.0, 1.0], [4.0, 3.0], 1e20)
        assert lam > 1e8
        assert ray_peak(lam, [1.0, 1.0], [4.0, 3.0])[1] == pytest.approx(1e20, rel=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            lambda_existence_bound(1.0, [], [], 1.0)
        with pytest.raises(ValueError):
            lambda_existence_bound(1.0, [0.8, 0.0], [4.0, 3.0], 1.0)
        with pytest.raises(ValueError):
            lambda_existence_bound(0.0, [0.8], [4.0], 1.0)
