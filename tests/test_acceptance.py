"""Acceptance gate: ten end-to-end checks of the toolkit's core claims.

Each test prints one `[criterion k] PASS` line (visible with `pytest -s`)
after its assertions hold, so a full run doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

from hslab.boundary_energy import (
    BoundaryGeometry,
    CutoffSpec,
    bubble_energies,
    fit_log_slope,
)
from hslab.extremals import HSParams, whole_space_constants
from hslab.identities import (
    SingularitySite,
    beta_recurrence_check,
    lambda_existence_bound,
    ps_threshold,
    ray_peak,
)
from hslab.quadrature import QuadratureSettings
from hslab.variational import (
    DomainGrid,
    ProblemConfig,
    Singularity,
    SolveOptions,
    energy,
    gradient,
    mountain_pass_solve,
    node_volumes,
    singular_weight,
)

from oracles import (
    negative_lambda_sanity,
    sliver_energy_integral,
    sliver_mass_integral,
    threshold_inequality_check,
)

P31 = HSParams(N=3, s=1.0)
P41 = HSParams(N=4, s=1.0)
P55 = HSParams(N=5, s=0.5)


def test_criterion_01_best_constant():
    # fresh, uncached tolerance so the timing covers the real computation
    cfg = QuadratureSettings(rel_tol=3e-11)
    start = time.perf_counter()
    consts = whole_space_constants(P31, cfg)
    elapsed = time.perf_counter() - start
    target = math.sqrt(8.0 * math.pi / 3.0)
    assert consts.best_constant == pytest.approx(target, rel=1e-6)
    assert elapsed < 1.0
    print(
        f"\n[criterion 1] PASS: best constant {consts.best_constant:.12f} "
        f"matches sqrt(8*pi/3) to {abs(consts.best_constant / target - 1.0):.2e} "
        f"in {elapsed:.3f}s"
    )


def test_criterion_02_moment_recurrence():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (3, 4, 5):
        for s in (0.5, 1.0, 1.5):
            p = HSParams(N=n, s=s)
            top = 2.0 * (n - s) - 1.0
            for k in range(5):
                beta = 2.0 + (top - 2.0) * (k + 0.5) / 5.0
                chk = beta_recurrence_check(beta, p)
                worst = max(worst, chk.rel_diff)
                count += 1
                assert chk.rel_diff < 1e-8, (n, s, beta, chk.rel_diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\n[criterion 2] PASS: {count} moment-recurrence identities agree, "
        f"worst relative difference {worst:.2e}, in {elapsed:.2f}s"
    )


def test_criterion_03_sliver_ratio_limits():
    start = time.perf_counter()
    eps = 1e-6
    cases = [
        (P41, BoundaryGeometry((1.0,) * 3, 0.1), 1.0 / 16.0),
        (P55, BoundaryGeometry((1.0,) * 4, 0.1), 2.0 / 49.5),
    ]
    details = []
    for p, geom, limit in cases:
        i_val = sliver_energy_integral(eps, geom, p)
        ii_val = sliver_mass_integral(eps, geom, p)
        ratio = ii_val / i_val
        assert ratio == pytest.approx(limit, rel=0.02), (p.N, p.s, ratio)
        assert ratio < (p.N - 2.0) ** -2
        details.append(f"N={p.N} s={p.s}: {ratio:.6f} vs {limit:.6f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\n[criterion 3] PASS: sliver mass/energy ratios within 2% of their "
        f"limits and strictly below 1/(N-2)^2 ({'; '.join(details)}) "
        f"in {elapsed:.2f}s"
    )


def test_criterion_04_flat_patch_ratio():
    geom = BoundaryGeometry((0.0, 0.0), 0.1)
    b = bubble_energies(1e-5, geom, CutoffSpec(0.1), [], P31)
    ratio = b.grad_energy / b.near_mass**0.5
    target = 2.0**-0.5 * math.sqrt(8.0 * math.pi / 3.0)
    assert ratio == pytest.approx(target, rel=0.01)
    print(
        f"\n[criterion 4] PASS: half-space energy ratio {ratio:.6f} within 1% "
        f"of 2**(-1/2) * best constant = {target:.6f}"
    )


def test_criterion_05_scaling_slopes():
    eps_list = [1e-3 * 0.5**k for k in range(6)]
    flat3 = BoundaryGeometry((0.0, 0.0), 0.1)
    cut = CutoffSpec(0.1)

    far, l2_3 = [], []
    for e in eps_list:
        b = bubble_energies(e, flat3, cut, [(0.5, 1.0)], P31)
        far.append(b.far_masses[0])
        l2_3.append(b.l2_mass)

    # s=1/2 concentrates at tau = eps**(2/3), so stay an octave lower to
    # keep the concentration scale separated from the patch scale
    flat5 = BoundaryGeometry((0.0,) * 4, 0.1)
    eps_list_5 = [0.5 * e for e in eps_list]
    l2_5 = [
        bubble_energies(e, flat5, CutoffSpec(0.1), [], P55).l2_mass
        for e in eps_list_5
    ]

    geom4 = BoundaryGeometry((1.0,) * 3, 0.1)
    sliver_e = [sliver_energy_integral(e, geom4, P41) for e in eps_list]
    sliver_m = [sliver_mass_integral(e, geom4, P41) for e in eps_list]

    slopes = {
        "far mass (N=3, s_i=1)": (fit_log_slope(eps_list, far), 1.0),
        "squared mass (N=3)": (fit_log_slope(eps_list, l2_3), 1.0),
        "squared mass (N=5, s=1/2)": (fit_log_slope(eps_list_5, l2_5), 4.0 / 3.0),
        "sliver energy (N=4)": (fit_log_slope(eps_list, sliver_e), 1.0),
        "sliver mass (N=4)": (fit_log_slope(eps_list, sliver_m), 1.0),
    }
    for name, (got, want) in slopes.items():
        assert got == pytest.approx(want, rel=0.05), (name, got, want)
    detail = "; ".join(
        f"{name}: {got:.4f} (expect {want:.4f})"
        for name, (got, want) in slopes.items()
    )
    print(f"\n[criterion 5] PASS: scaling slopes within 5% ({detail})")


def test_criterion_06_threshold_margin():
    eps_list = [1e-4, 5e-5, 2e-5, 1e-5, 5e-6, 2e-6]
    geom = BoundaryGeometry((1.0, 1.0, 1.0), 0.1)
    report = threshold_inequality_check(
        eps_list, geom, CutoffSpec(0.1), [], 1.0, P41
    )
    assert report.strict_margin is True
    assert report.scaled_margin_increasing is True
    for row in report.rows:
        assert row.margin > 0.0
        assert row.peak < report.threshold
    scaled = [row.scaled_margin for row in report.rows]
    print(
        f"\n[criterion 6] PASS: curved-patch peaks stay below the "
        f"concentration threshold {report.threshold:.6f} for all eps in "
        f"{eps_list}; scaled margins increase as eps decreases "
        f"({scaled[0]:.4f} -> {scaled[-1]:.4f})"
    )


def test_criterion_07_gradient_consistency():
    grid = DomainGrid(((0.0, 1.0),) * 3, (8, 8, 8))
    cfg = ProblemConfig(grid, 0.5, (Singularity((0.5, 0.5, 0.5), 1.0),))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        u = 0.6 + 0.3 * rng.standard_normal(grid.shape)
        phi = rng.standard_normal(grid.shape)
        analytic = float(np.sum(gradient(u, cfg) * phi))
        h = 1e-6
        fd = (energy(u + h * phi, cfg) - energy(u - h * phi, cfg)) / (2.0 * h)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-5
    print(
        f"\n[criterion 7] PASS: 50 random directional derivatives match the "
        f"assembled gradient, worst relative error {worst:.2e}"
    )


def test_criterion_08_ground_state_solve():
    start = time.perf_counter()
    grid = DomainGrid(((0.0, 1.0),) * 3, (32, 32, 32))
    sites = (
        Singularity((0.3, 0.5, 0.5), 1.0),
        Singularity((0.7, 0.5, 0.5), 1.0),
    )
    lam = 0.01
    cfg = ProblemConfig(grid, lam, sites)

    # the chosen lambda must sit below the existence bound for this mesh
    vol = node_volumes(grid)
    masses = [float(np.sum(singular_weight(grid, s) * vol)) for s in sites]
    threshold = ps_threshold(
        3, [SingularitySite(1.0, 1.0)] * 2
    ).overall
    lam_bound = lambda_existence_bound(grid.volume, masses, cfg.exponents(), threshold)
    assert lam < lam_bound

    report, u = mountain_pass_solve(cfg, None, SolveOptions(grad_tol=1e-6))
    elapsed = time.perf_counter() - start
    assert report.converged is True
    assert report.residual_sup < 1e-6
    assert report.min_value > 0.0
    assert report.threshold == pytest.approx(2.0 * math.pi / 3.0, rel=1e-9)
    assert report.energy < report.threshold
    assert report.below_threshold is True
    assert float(u.min()) == pytest.approx(report.min_value, rel=1e-12)
    assert elapsed < 300.0
    print(
        f"\n[criterion 8] PASS: two-singularity solve on a 32^3 grid "
        f"(lambda={lam} < bound {lam_bound:.4f}) converged in "
        f"{report.iterations} iterations: energy {report.energy:.6e} < "
        f"threshold {report.threshold:.6f}, residual {report.residual_sup:.2e}, "
        f"positive minimum {report.min_value:.4e}, in {elapsed:.2f}s"
    )


def test_criterion_09_nonpositive_lambda_sanity():
    grid = DomainGrid(((0.0, 1.0),) * 3, (9, 9, 9))
    samples = (0.1, 1.0, 10.0)
    for lam in (0.0, -1.0):
        cfg = ProblemConfig(grid, lam, (Singularity((0.5, 0.5, 0.5), 1.0),))
        assert negative_lambda_sanity(cfg, samples) is True
    print(
        "\n[criterion 9] PASS: for lambda in {0, -1} every positive constant "
        "has strictly negative energy (samples 0.1, 1, 10)"
    )


def test_criterion_10_constant_path_and_lambda_bound():
    volume, c1, q = 1.0, 2.1, 4.0

    # scanned maximiser of the constant-path energy agrees with the closed form
    for lam in (0.05, 0.2, 1.0, 5.0):
        c_star, value = ray_peak(lam * volume, [c1], [q])
        step = c_star / 2000.0
        cs = np.arange(step, 4.0 * c_star, step)
        vals = 0.5 * lam * volume * cs**2 - (c1 / q) * cs**q
        k = int(np.argmax(vals))
        assert abs(cs[k] - c_star) <= 1.5 * step
        assert vals[k] <= value + 1e-15

    # existence bound vs an independent bisection on lambda
    sites = [SingularitySite(1.0, 1.0)]
    threshold = ps_threshold(3, sites).overall
    closed = lambda_existence_bound(volume, [c1], [P31.two_star], threshold)

    def peak_of(lam):
        lo, hi = 1e-14, 1e14
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if lam * volume - c1 * mid ** (q - 2.0) > 0.0:
                lo = mid
            else:
                hi = mid
        c = math.sqrt(lo * hi)
        return 0.5 * lam * volume * c * c - (c1 / q) * c**q

    lo, hi = 1e-8, 1e8
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if peak_of(mid) < threshold:
            lo = mid
        else:
            hi = mid
    independent = math.sqrt(lo * hi)
    assert closed == pytest.approx(independent, rel=1e-6)
    print(
        f"\n[criterion 10] PASS: constant-path maximisers match dense scans "
        f"for four lambdas; existence bound {closed:.8f} agrees with an "
        f"independent bisection ({independent:.8f}) to "
        f"{abs(closed / independent - 1.0):.2e}"
    )
