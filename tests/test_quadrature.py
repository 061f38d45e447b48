"""Quadrature kernel: closed-form anchors, error control, invariances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hslab import quadrature
from hslab.quadrature import (
    DEFAULT_REL_TOL,
    KRONROD15_NODES,
    KRONROD15_WEIGHTS,
    Divergent,
    NonFinite,
    RadialPowerIntegrand,
    ToleranceNotMet,
    adaptive_gauss_kronrod,
    check_rel_tol,
    integrate_radial_power,
    integrate_radial_powers,
    sphere_surface_area,
)

from box_quadrature import integrate_box
from oracles import integrate_improper


def beta_closed_form(a: float, b: float, s: float) -> float:
    """Oracle: int_0^inf r^a (1 + r^(2-s))^(-b) dr via the Beta function.

    Substituting u = r^(2-s) turns the integral into a Beta integral:
    (1/(2-s)) * B((a+1)/(2-s), b - (a+1)/(2-s)).  Log-gamma keeps the
    oracle finite for the large b of s near 2.
    """
    x = (a + 1.0) / (2.0 - s)
    return math.exp(math.lgamma(x) + math.lgamma(b - x) - math.lgamma(b)) / (2.0 - s)


def _recorded_levels(monkeypatch):
    """A list that grows by k each time a radial run takes level k of the
    tanh-sinh rule, that is once per kernel pass."""
    seen = []
    plain = quadrature._tanh_sinh_level

    def recording(k):
        seen.append(k)
        return plain(k)

    monkeypatch.setattr(quadrature, "_tanh_sinh_level", recording)
    return seen


def _halves(moments):
    """The lower and upper Beta halves (x, y) of each moment, in order."""
    halves = []
    for f in moments:
        x = (f.a + 1.0) / (2.0 - f.s)
        halves += [(x, f.b - x), (f.b - x, x)]
    return halves


def _unsettled(halves, rel_tol):
    """The halves a ToleranceNotMet of their stacked run names, or [] if it settles."""
    try:
        quadrature._beta_halves(halves, rel_tol)
    except ToleranceNotMet as err:
        assert "moved by" in str(err)
        return [half for half in halves if f"(x={half[0]!r}, y={half[1]!r})" in str(err)]
    return []


class TestAdaptiveGaussKronrod:
    def test_polynomial_exact(self):
        value = adaptive_gauss_kronrod(lambda x: x * x, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_exported_kronrod_rule(self):
        # ascending, symmetric, read-only, and exact for degree-22 monomials
        assert np.all(np.diff(KRONROD15_NODES) > 0.0)
        assert np.array_equal(KRONROD15_NODES, -KRONROD15_NODES[::-1])
        assert np.array_equal(KRONROD15_WEIGHTS, KRONROD15_WEIGHTS[::-1])
        assert not KRONROD15_NODES.flags.writeable
        assert not KRONROD15_WEIGHTS.flags.writeable
        moment = KRONROD15_WEIGHTS @ KRONROD15_NODES**22
        assert moment == pytest.approx(2.0 / 23.0, rel=1e-13)

    def test_sine_closed_form(self):
        value = adaptive_gauss_kronrod(np.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, rel=1e-13)

    def test_breakpoints_do_not_change_value(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        plain = adaptive_gauss_kronrod(f, 0.0, 5.0)
        seeded = adaptive_gauss_kronrod(f, 0.0, 5.0, breakpoints=(0.7, 1.3, 4.2))
        assert seeded == pytest.approx(plain, rel=1e-12)

    def test_kink_integrand(self):
        # |x - 1/3| integrates to exact piecewise value on [0, 1]
        value = adaptive_gauss_kronrod(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0)
        exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
        assert value == pytest.approx(exact, rel=1e-12)

    def test_tolerance_not_met(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 2)
        with pytest.raises(ToleranceNotMet):
            adaptive_gauss_kronrod(lambda x: np.sin(50.0 * x), 0.0, 10.0, rel_tol=1e-13)


def _counted(f):
    """f, and a list that grows by one entry per call of the returned wrapper."""
    calls = []

    def wrapped(x):
        calls.append(x.size)
        return f(x)

    return wrapped, calls


def _stacked(rows):
    """One integrand returning the values of every function in ``rows``, stacked."""
    return lambda x: np.stack([g(x) for g in rows])


# rows of different difficulty on [0, 2]: a square-root head, an oscillation
# and a polynomial the first panels already integrate exactly
STACK_ROWS = [np.sqrt, lambda x: np.sin(20.0 * x) * np.exp(-x), lambda x: x**3 - x]

# 17 rows for stacks of every size: STACK_ROWS, then polynomials the first
# panels integrate exactly, alternating with square-root heads under
# oscillations of growing frequency
MANY_ROWS = STACK_ROWS + [
    np.polynomial.Polynomial([(j + 1.0) / (k + 7.0) for j in range(k // 2 + 3)]) if k % 2 == 0
    else lambda x, k=k: np.sqrt(x) * np.cos((k + 1.0) * x) + k
    for k in range(14)
]
# first panels: one, two, and forty (39 breakpoints)
SEEDS = {"1": (), "2": (0.3,), "40": tuple(np.linspace(0.0, 2.0, 41)[1:-1])}


class TestStackedRows:
    def test_each_row_equals_its_one_row_integral_bit_for_bit(self):
        stacked = adaptive_gauss_kronrod(_stacked(STACK_ROWS), 0.0, 2.0, breakpoints=(0.3,))
        alone = [adaptive_gauss_kronrod(g, 0.0, 2.0, breakpoints=(0.3,)) for g in STACK_ROWS]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (3,)
        assert stacked.tolist() == alone
        assert all(isinstance(v, float) for v in alone)

    @pytest.mark.parametrize("seeds", SEEDS.values(), ids=[f"{k}-panels" for k in SEEDS])
    @pytest.mark.parametrize("count", [1, 2, 5, 9, 17])
    def test_stacks_of_every_size_match_their_rows_bit_for_bit(self, count, seeds):
        # the estimates of a whole evaluation come from matrix products, whose
        # BLAS kernels change with the number of rows and panels; each row's
        # value must not, in either row order
        rows = MANY_ROWS[:count]
        alone = [adaptive_gauss_kronrod(g, 0.0, 2.0, breakpoints=seeds) for g in rows]
        for order in (1, -1):
            stacked = adaptive_gauss_kronrod(_stacked(rows[::order]), 0.0, 2.0, breakpoints=seeds)
            assert stacked.tolist() == alone[::order]

    def test_a_lone_panel_gets_the_bits_it_gets_beside_another(self):
        # each polynomial is integrated on its first panel [0, 1], evaluated
        # alone, and again beside (1, 2), where the integrand is zero; both
        # calls accept their first panels unsplit
        for k in range(12):
            coeffs = [(j + 1.0) / (k + 7.0) * (-1.0) ** (j * k) for j in range(k + 2)]
            poly = np.polynomial.Polynomial(coeffs)
            counted, calls = _counted(lambda x: np.where(x < 1.0, poly(x), 0.0))
            alone = adaptive_gauss_kronrod(counted, 0.0, 1.0)
            beside = adaptive_gauss_kronrod(counted, 0.0, 2.0, breakpoints=(1.0,))
            assert len(calls) == 2
            assert alone == beside

    def test_improper_rows_equal_their_one_row_integrals(self):
        rows = [lambda r: np.exp(-r), lambda r: 1.0 / (1.0 + r * r), lambda r: r * np.exp(-3.0 * r)]
        stacked = integrate_improper(_stacked(rows), split=2.0)
        assert stacked.tolist() == [integrate_improper(g, split=2.0) for g in rows]

    def test_calls_at_most_one_plus_the_most_splits_of_a_row(self):
        # a one-row call evaluates the first panels in one call and each
        # split's two children in one more, so it makes 1 + splits calls
        splits = []
        for g in STACK_ROWS:
            counted, calls = _counted(g)
            adaptive_gauss_kronrod(counted, 0.0, 2.0)
            splits.append(len(calls) - 1)
        counted, calls = _counted(_stacked(STACK_ROWS))
        adaptive_gauss_kronrod(counted, 0.0, 2.0)
        assert max(splits) > min(splits)
        assert len(calls) <= 1 + max(splits)

    def test_tolerance_not_met_in_one_row_is_raised(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 2)
        rows = [lambda x: x * x, lambda x: np.sin(50.0 * x), np.cos]
        with pytest.raises(ToleranceNotMet):
            adaptive_gauss_kronrod(_stacked(rows), 0.0, 10.0, rel_tol=1e-13)

    def test_non_finite_in_one_row_is_raised(self):
        rows = [lambda x: x * x, lambda x: x, np.cos]
        stack = _stacked(rows)
        assert adaptive_gauss_kronrod(stack, 0.0, 2.0).shape == (3,)
        rows[1] = lambda x: np.where(x > 1.5, np.nan, x)
        with pytest.raises(NonFinite):
            adaptive_gauss_kronrod(stack, 0.0, 2.0)

    def test_infinite_row_raises_non_finite_not_a_warning(self):
        # an inf times a zero G7 weight would be an invalid operation in the sums
        rows = [lambda x: x * x, lambda x: np.where(x > 1.5, np.inf, x), np.cos]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFinite):
                adaptive_gauss_kronrod(_stacked(rows), 0.0, 2.0)


class TestEvaluationPath:
    """Integrand calls and nodes of fixed inputs, as recorded when each row and
    panel still had its own K15/G7 dot products, and the tanh-sinh levels at
    which the pinned radial moments settle: a moved subdivision or stopping
    decision changes them."""

    @pytest.mark.parametrize(
        "seeds, counts",
        [
            # (calls, nodes) of each row alone, then of the three stacked
            ((0.3,), [(20, 600), (9, 270), (1, 30), (18, 750)]),
            ((), [(20, 585), (10, 285), (1, 15), (20, 765)]),
        ],
    )
    def test_stack_rows(self, seeds, counts):
        seen = []
        for g in [*STACK_ROWS, _stacked(STACK_ROWS)]:
            counted, calls = _counted(g)
            adaptive_gauss_kronrod(counted, 0.0, 2.0, breakpoints=seeds)
            seen.append((len(calls), sum(calls)))
        assert seen == counts

    @pytest.mark.parametrize(
        "n, s, a, levels",
        [
            (4, 1.3937620379065336, 2.4424951848373864 - 1.3937620379065336, (3, 3)),
            (5, 1.7984414117183, 6.0 - 2.0 * 1.7984414117183, (3, 3)),
        ],
    )
    def test_pinned_bubble_moment_inputs(self, monkeypatch, n, s, a, levels):
        # the two inputs of TestRadialPower.test_pinned_bubble_moments: one
        # run whose two rows are the lower and upper Beta halves, each
        # settling at its pinned level of the tanh-sinh rule
        seen = _recorded_levels(monkeypatch)
        b = 2.0 * (n - s) / (2.0 - s)
        got = integrate_radial_power(RadialPowerIntegrand(a, b, s))
        assert seen == list(range(max(levels) + 1))
        assert got == pytest.approx(beta_closed_form(a, b, s), rel=1e-14, abs=0.0)
        x = (a + 1.0) / (2.0 - s)
        for half, level in zip([(x, b - x), (b - x, x)], levels):
            seen.clear()
            quadrature._beta_halves([half], DEFAULT_REL_TOL)
            assert seen == list(range(level + 1))


# moments of mixed (N, s, beta): a recurrence pair and the grad and mass
# moments, and a head exponent x = (a+1)/(2-s) of 0.25 (m = 8) beside ones
# above 2 (m = 1); the last moment's halves (m = 2) got other bits alone
# than in a stack when numpy's power took broadcast (rows, 1) exponents
MIXED_MOMENTS = [
    RadialPowerIntegrand(3.2 - 0.7, 2.0 * (4 - 0.7) / 1.3, 0.7),
    RadialPowerIntegrand(3.2 - 2.0, 2.0 * (4 - 0.7) / 1.3, 0.7),
    RadialPowerIntegrand(5 + 1.0 - 2.0 * 1.3, 2.0 * (5 - 1.3) / 0.7, 1.3),
    RadialPowerIntegrand(5 - 1.0 - 1.3, 2.0 * (5 - 1.3) / 0.7, 1.3),
    RadialPowerIntegrand(-0.5, 3.0, 0.0),
    RadialPowerIntegrand(2.0, 4.0, 1.0),
    RadialPowerIntegrand(3 - 1.0 - 0.2, 2.0 * (3 - 0.2) / 1.8, 0.2),
    RadialPowerIntegrand(2.0 - 0.1, 2.0 * (3 - 0.1) / 1.9, 0.1),
]


class TestStackedMoments:
    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_each_moment_equals_its_integral_alone(self, count):
        moments = MIXED_MOMENTS[:count]
        alone = [integrate_radial_power(f) for f in moments]
        for order in (1, -1):
            assert integrate_radial_powers(moments[::order]) == alone[::order]
        for f, value in zip(moments, alone):
            assert value == pytest.approx(beta_closed_form(f.a, f.b, f.s), rel=1e-12, abs=0.0)

    def test_each_half_equals_its_one_row_run(self):
        halves = _halves(MIXED_MOMENTS)
        assert {max(1, math.ceil(2.0 / x)) for x, _ in halves} == {1, 2, 8}
        alone = [quadrature._beta_halves([half], DEFAULT_REL_TOL)[0] for half in halves]
        assert quadrature._beta_halves(halves, DEFAULT_REL_TOL).tolist() == alone

    def test_one_moment_is_one_run(self, monkeypatch):
        # no Gauss-Kronrod run, and one kernel pass per level up to the level
        # at which the last of the rows settles alone
        runs = []
        monkeypatch.setattr(quadrature, "adaptive_gauss_kronrod", lambda *a, **k: runs.append(a))
        seen = _recorded_levels(monkeypatch)
        last = 0
        for f in MIXED_MOMENTS:
            seen.clear()
            integrate_radial_power(f)
            last = max(last, *seen)
        seen.clear()
        integrate_radial_powers(MIXED_MOMENTS)
        assert runs == []
        assert seen == list(range(last + 1))

    def test_no_moments_give_an_empty_list(self):
        assert integrate_radial_powers([]) == []

    def test_divergent_member_raises_before_any_integrand_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(quadrature, "_beta_halves", lambda *a, **k: calls.append(a))
        divergent = RadialPowerIntegrand(a=1.0, b=1.0, s=0.0)
        for place in (0, 2, len(MIXED_MOMENTS)):
            moments = MIXED_MOMENTS[:place] + [divergent] + MIXED_MOMENTS[place:]
            with pytest.raises(Divergent):
                integrate_radial_powers(moments)
        assert calls == []

    @pytest.mark.parametrize("rel_tol", [0.0, 1.0, -1e-3, math.nan])
    def test_bad_rel_tol_raises_before_any_integrand_call(self, monkeypatch, rel_tol):
        calls = []
        monkeypatch.setattr(quadrature, "_beta_halves", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="rel_tol must lie in"):
            integrate_radial_powers(MIXED_MOMENTS, rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol must lie in"):
            check_rel_tol(rel_tol)
        assert calls == []

    def test_starved_row_raises_tolerance_not_met(self, monkeypatch):
        # at the default rel_tol the halves of these two moments settle at
        # levels (3, 2) and (2, 3): a cap of two levels starves one half of
        # each, and the message names those two alone
        rel_tol = DEFAULT_REL_TOL
        halves = _halves(MIXED_MOMENTS[4:6])
        monkeypatch.setattr(quadrature, "_TS_MAX_LEVEL", 2)
        starved = [halves[0], halves[3]]
        assert _unsettled(halves, rel_tol) == starved
        for half in halves:
            assert _unsettled([half], rel_tol) == ([half] if half in starved else [])
        monkeypatch.undo()
        # a rel_tol below rounding settles a half only where two of its level
        # sums happen to be equal: the stack names exactly the halves that
        # stay unsettled alone, and its other rows still settle
        rel_tol = 1e-17
        halves = _halves(MIXED_MOMENTS)
        alone = [half for half in halves if _unsettled([half], rel_tol)]
        assert _unsettled(halves, rel_tol) == alone
        assert len(alone) < len(halves)

    @pytest.mark.parametrize("n, s", [(5, 1.995), (3, 1.9981)])
    def test_underflowing_member_is_named(self, n, s):
        # the gradient moment of the bubble rounds to 0 at N = 5, s = 1.995;
        # at N = 3, s = 1.9981 its halves are subnormal and, moving by their
        # rounding grain, never settle.  At s = 1.99 it is 1.2e-180 at N = 5
        # and keeps its relative accuracy
        tiny = RadialPowerIntegrand(n + 1.0 - 2.0 * s, 2.0 * (n - s) / (2.0 - s), s)
        fine = RadialPowerIntegrand(2.02, 602.0, 1.99)
        assert integrate_radial_power(fine) == pytest.approx(
            beta_closed_form(fine.a, fine.b, fine.s), rel=1e-12, abs=0.0)
        with pytest.raises(quadrature.Underflow) as err:
            integrate_radial_powers([fine, tiny])
        assert str(err.value) == ("radial moments below the smallest normal float: "
                                  f"(a={tiny.a!r}, b={tiny.b!r}, s={s!r})")


# Beta exponents from x = 1e-3, where the head map takes m = 2000, to 200
EXTREME_EXPONENTS = [1e-3, 0.01, 0.11, 0.26, 1.0, 10.0, 200.0]


def beta_function(x: float, y: float) -> float:
    """Oracle: B(x, y) by log-gamma.  An argument above 20 is first lowered by
    B(x, y) = B(x, y - 1) * (y - 1) / (x + y - 1), since lgamma(y) - lgamma(x + y)
    alone loses 2.2e-13 to cancellation at x = 0.01, y = 200."""
    scale = 1.0
    while y > 20.0:
        y -= 1.0
        scale *= y / (x + y)
    while x > 20.0:
        x -= 1.0
        scale *= x / (x + y)
    return scale * math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


class TestExtremeExponents:
    def test_symmetric_half_is_half_the_beta_function(self):
        for x in EXTREME_EXPONENTS:
            (half,) = quadrature._beta_halves([(x, x)], DEFAULT_REL_TOL)
            assert half == pytest.approx(beta_function(x, x) / 2.0, rel=1e-13, abs=0.0)

    def test_lower_and_upper_halves_sum_to_the_beta_function(self):
        for x in EXTREME_EXPONENTS:
            for y in EXTREME_EXPONENTS:
                lower, upper = quadrature._beta_halves([(x, y), (y, x)], DEFAULT_REL_TOL)
                assert lower + upper == pytest.approx(beta_function(x, y), rel=1e-13, abs=0.0)

    def test_stacked_rows_equal_their_one_row_runs(self):
        pairs = [(x, y) for x in EXTREME_EXPONENTS for y in EXTREME_EXPONENTS]
        alone = [quadrature._beta_halves([pair], DEFAULT_REL_TOL)[0] for pair in pairs]
        for order in (1, -1):
            stacked = quadrature._beta_halves(pairs[::order], DEFAULT_REL_TOL)
            assert stacked.tolist() == alone[::order]


class TestImproper:
    def test_exponential(self):
        value = integrate_improper(lambda r: np.exp(-r))
        assert value == pytest.approx(1.0, rel=1e-11)

    def test_lorentzian(self):
        value = integrate_improper(lambda r: 1.0 / (1.0 + r * r))
        assert value == pytest.approx(math.pi / 2.0, rel=1e-11)

    def test_split_point_invariance(self):
        f = lambda r: np.exp(-r) * r
        a = integrate_improper(f, split=0.5)
        b = integrate_improper(f, split=4.0)
        assert a == pytest.approx(b, rel=2e-10)


class TestRadialPower:
    def test_closed_form_one_third(self):
        # int r^2 (1+r)^-4 = 1/3  (dimension-3, s=1 gradient-moment anchor)
        value = integrate_radial_power(RadialPowerIntegrand(a=2.0, b=4.0, s=1.0))
        assert value == pytest.approx(1.0 / 3.0, rel=1e-11)

    def test_closed_form_one_sixth(self):
        # int r (1+r)^-4 = 1/6  (dimension-3, s=1 mass-moment anchor)
        value = integrate_radial_power(RadialPowerIntegrand(a=1.0, b=4.0, s=1.0))
        assert value == pytest.approx(1.0 / 6.0, rel=1e-11)

    def test_negative_head_exponent(self):
        # a in (-1, 0): integrable head singularity, Beta oracle
        f = RadialPowerIntegrand(a=-0.5, b=3.0, s=1.0)
        assert integrate_radial_power(f) == pytest.approx(
            beta_closed_form(-0.5, 3.0, 1.0), rel=1e-12
        )

    def test_divergent_tail_raises(self):
        f = RadialPowerIntegrand(a=1.0, b=1.0, s=0.0)
        assert not f.is_convergent
        with pytest.raises(Divergent):
            integrate_radial_power(f)

    def test_divergent_head_raises(self):
        with pytest.raises(Divergent):
            integrate_radial_power(RadialPowerIntegrand(a=-1.0, b=4.0, s=1.0))

    def test_monotone_in_b(self):
        values = [
            integrate_radial_power(RadialPowerIntegrand(a=2.0, b=b, s=1.0))
            for b in (4.0, 5.0, 6.0, 8.0)
        ]
        assert all(x > y > 0.0 for x, y in zip(values, values[1:]))

    def test_bubble_moment_scan(self):
        # both recurrence moments r^(beta-s) and r^(beta-2) for N = 3..5,
        # 39 values of s in [0.05, 1.95] and 9 beta across [2, 2(N-s)-1]
        worst = 0.0
        for n in (3, 4, 5):
            for i in range(39):
                s = 0.05 + 0.05 * i
                b = 2.0 * (n - s) / (2.0 - s)
                hi = 2.0 * (n - s) - 1.0
                for j in range(9):
                    beta = 2.0 + (hi - 2.0) * j / 8.0
                    for a in (beta - s, beta - 2.0):
                        value = integrate_radial_power(RadialPowerIntegrand(a, b, s))
                        worst = max(worst, abs(value / beta_closed_form(a, b, s) - 1.0))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "n, s, a",
        [
            # recurrence moment of order 1e-2 (beta = 2.4424951848373864),
            # once 1.6e-8 off from a head piece split at r = 1
            (4, 1.3937620379065336, 2.4424951848373864 - 1.3937620379065336),
            # gradient moment of order 1e-9, once 1e-7 off where an absolute
            # tolerance of 1e-14 ended subdivision
            (5, 1.7984414117183, 6.0 - 2.0 * 1.7984414117183),
        ],
    )
    def test_pinned_bubble_moments(self, n, s, a):
        b = 2.0 * (n - s) / (2.0 - s)
        value = integrate_radial_power(RadialPowerIntegrand(a, b, s))
        assert value == pytest.approx(beta_closed_form(a, b, s), rel=1e-12, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @example(a=0.0, extra=5.0, s=1.8999999999999997)  # head mass at r ~ 1e-20..1e-10
    @given(
        a=st.floats(min_value=-0.5, max_value=4.0),
        extra=st.floats(min_value=1.5, max_value=6.0),
        s=st.floats(min_value=0.1, max_value=1.9),
    )
    def test_beta_function_property(self, a, extra, s):
        # keep the tail convergent with margin: (2-s)b - a > 1 + 0.5
        b = (a + 1.5 + extra) / (2.0 - s)
        value = integrate_radial_power(RadialPowerIntegrand(a=a, b=b, s=s))
        assert value == pytest.approx(beta_closed_form(a, b, s), rel=1e-11, abs=0.0)


class TestSphereSurface:
    def test_known_areas(self):
        assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_surface_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sphere_surface_area(1)


class TestIntegrateBox:
    def test_linear_field(self):
        value = integrate_box(
            lambda pts: pts[:, 0] + pts[:, 1], ((0.0, 1.0), (0.0, 1.0)), 64
        )
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_gaussian(self):
        value = integrate_box(
            lambda pts: np.exp(-np.sum(pts * pts, axis=1)),
            ((-6.0, 6.0),) * 2,
            256,
        )
        assert value == pytest.approx(math.pi, rel=1e-6)

    def test_integrable_singularity_tolerated(self):
        # midpoints avoid the origin, so |x|^-1 in 3-D stays finite
        value = integrate_box(
            lambda pts: np.sum(pts * pts, axis=1) ** -0.5,
            ((-0.5, 0.5),) * 3,
            32,
        )
        assert math.isfinite(value) and value > 0.0

    def test_non_finite_raises(self):
        with pytest.raises(NonFinite):
            integrate_box(
                lambda pts: np.full(pts.shape[0], np.nan), ((0.0, 1.0),), 8
            )
