"""One-dimensional improper quadrature.

Every closed-form constant computed elsewhere in this package reduces to
members of a single family of improper radial integrals,

    integral over (0, inf) of   r**a / (1 + r**(2-s))**b   dr,

together with unit-sphere surface areas.  The substitution
u = r**(2-s) / (1 + r**(2-s)) turns each member into a Beta integral
(DLMF 5.12.3), split at u = 1/2 into two halves.  Each half is mapped onto
tau in [0, 1], whose only difficulty is an algebraic singularity at one
end, so :func:`integrate_radial_powers` integrates both halves of every
moment a call needs as the rows of one tanh-sinh (double-exponential) run
(Takahasi & Mori, Publ. RIMS 9, 1974): one vectorised pass over the rows per
level, each level halving the step.  The Beta function itself is never
evaluated in closed form: the quadrature is what the package's identity
checks test.

:func:`adaptive_gauss_kronrod` integrates every other integrand of the
package.  Its panel rule is open (no endpoint is ever sampled), so
integrable endpoint singularities are admissible.  Each integrand, or each
row of a stacked one, bisects its panel of largest error estimate (ties by
left endpoint) and sums its panels with ``math.fsum``, which rounds
correctly in any order, so results are bit-stable across runs and a row's
value does not depend on the rows stacked with it.
The K15 and G7 estimates of every row and panel of an evaluation come from
one pass of matrix products.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_REL_TOL",
    "Divergent",
    "KRONROD15_NODES",
    "KRONROD15_WEIGHTS",
    "NonFinite",
    "RadialPowerIntegrand",
    "ToleranceNotMet",
    "Underflow",
    "adaptive_gauss_kronrod",
    "check_rel_tol",
    "integrate_radial_power",
    "integrate_radial_powers",
    "sphere_surface_area",
]


class Divergent(ValueError):
    """The requested improper integral does not converge."""


class ToleranceNotMet(RuntimeError):
    """A quadrature ran out of subdivisions or levels before reaching the tolerance."""


class NonFinite(ValueError):
    """An integrand returned NaN or infinity at a quadrature node."""


class Underflow(ArithmeticError):
    """A radial moment fell below the smallest normal float."""


# ---------------------------------------------------------------------------
# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (standard QUADPACK table).
# ---------------------------------------------------------------------------

_ABSCISSAE = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_GAUSS_W = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _build_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # ascending: seven negatives, zero, seven positives
    nodes = np.concatenate([-_ABSCISSAE[:7], _ABSCISSAE[7:8], _ABSCISSAE[:7][::-1]])
    wk = np.concatenate([_KRONROD_W[:7], _KRONROD_W[7:8], _KRONROD_W[:7][::-1]])
    rules = np.zeros((15, 2))  # K15 weights, and G7 weights on the odd nodes
    rules[:, 0] = wk
    rules[1::2, 1] = np.concatenate([_GAUSS_W, _GAUSS_W[2::-1]])
    for rule in (nodes, wk, rules):
        rule.flags.writeable = False
    return nodes, wk, rules


# The ascending 15-point Kronrod nodes and weights on [-1, 1] (read-only),
# shared by every fixed-panel integral in the package.
KRONROD15_NODES, KRONROD15_WEIGHTS, _RULES = _build_rule()

# Floor of a panel's error estimate relative to its value (QUADPACK's
# 50 * epmach).
_ERROR_FLOOR = 50.0 * np.finfo(float).eps


# The relative tolerance every quadrature of the package runs at unless its
# caller passes another.
DEFAULT_REL_TOL = 1e-10

# Bisections one row of an adaptive Gauss-Kronrod run may make.
MAX_SUBDIVISIONS = 4000


def check_rel_tol(rel_tol: float) -> float:
    """``rel_tol`` itself; ValueError unless it lies in (0, 1), which NaN does not."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    return rel_tol


@dataclass(frozen=True)
class RadialPowerIntegrand:
    """The profile r**a / (1 + r**(2-s))**b on (0, inf).

    Convergent iff a > -1 (integrable head) and (2-s)*b - a > 1 (decaying
    tail).  Divergent combinations may be *represented*; attempting to
    integrate them raises :class:`Divergent`.
    """

    a: float
    b: float
    s: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def is_convergent(self) -> bool:
        return self.s < 2.0 and self.a > -1.0 and (2.0 - self.s) * self.b - self.a > 1.0


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    breakpoints: Sequence[float] = (),
) -> float | np.ndarray:
    """Adaptive G7/K15 integration on [lo, hi] of one integrand or a stack of them.

    ``f`` maps a 1-D array of nodes to one value per node (giving a float) or
    to shape (rows, nodes) (giving one integral per row).  ``breakpoints``
    seeds extra initial panel edges.  Each row bisects its own worst panel
    (largest error estimate, ties by left endpoint) until its summed error
    is at most ``rel_tol * |integral|``, within its own
    ``MAX_SUBDIVISIONS`` bisections, then fsums its panels.
    Rows share only the evaluation: each step calls ``f`` once, on the
    children of the panels unfinished rows bisect, and takes the estimates
    of every row and panel from that call in one pass.  A panel evaluated
    once serves every row, so each row's result is bit-identical to
    integrating it alone.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError("need finite bounds with hi > lo")
    edges = sorted({lo, hi, *(float(b) for b in breakpoints if lo < b < hi)})
    first = list(zip(edges[:-1], edges[1:]))
    # panel: per row, its [K15, G7, resasc], or None where the row was not finite
    cache: dict[tuple[float, float], list[list[float] | None]] = {}

    def evaluate(panels: list[tuple[float, float]]) -> np.ndarray:
        a, b = np.array(panels).T[:, :, None]
        width = b - a
        half = 0.5 * width
        x = 0.5 * (a + b) + half * KRONROD15_NODES
        y = np.asarray(f(x.ravel()), dtype=float)
        if y.shape[-1:] != (x.size,) or y.ndim > 2:
            raise NonFinite(f"integrand returned shape {y.shape} for {x.size} nodes")
        stack = y.reshape(-1, *x.shape)
        finite = np.isfinite(stack)
        clean = np.count_nonzero(finite) == finite.size
        if not clean:
            stack = np.where(finite, stack, 0.0)  # keeps inf and nan out of the sums
        # K15, G7 and QUADPACK's resasc of every row and panel, from gemm
        # products of two lines by two columns: a line's bits there do not
        # depend on what is stacked with it on any OpenBLAS kernel checked,
        # while longer products sum some lines in another order on SSE-era
        # kernels, and numpy sends one-line or one-column products to gemv
        if stack.size // 15 % 2:
            stack = np.concatenate([stack, stack[-1:]])  # an even count of lines
        shape = (*stack.shape[:2], 2)
        sums = (stack.reshape(-1, 2, 15) @ _RULES).reshape(shape) * half
        dev = np.abs(stack - sums[..., :1] / width).reshape(-1, 2, 15)
        resasc = (dev @ _RULES).reshape(shape)[..., :1] * half
        estimates = np.concatenate([sums, resasc], axis=2).transpose(1, 0, 2).tolist()
        if not clean:
            for row, j in np.argwhere(~finite.all(axis=2)):
                estimates[j][row] = None
        cache.update(zip(panels, estimates))
        return y

    def gk15(row: int, lo: float, hi: float) -> tuple[float, float]:
        # one row's (value, error estimate) on an evaluated panel
        sums = cache[lo, hi][row]
        if sums is None:
            raise NonFinite(f"integrand not finite on panel [{lo!r}, {hi!r}]")
        ik, ig, resasc = sums
        # QUADPACK-style scale-aware error estimate
        err = diff = abs(ik - ig)
        if resasc > 0.0 and diff > 0.0:
            err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
        return ik, max(err, _ERROR_FLOOR * abs(ik))

    y = evaluate(first)
    values = [0.0] * (len(y) if y.ndim == 2 else 1)
    # per unfinished row: its heap of (-err, left, right, value), value and
    # error sums and splits; each step runs every row as far as evaluated
    # panels take it, then evaluates the children the rows stopped at
    runs = []
    for row in range(len(values)):
        heap = []
        total = total_err = 0.0
        for a, b in first:
            v, e = gk15(row, a, b)
            heap.append((-e, a, b, v))
            total += v
            total_err += e
        heapq.heapify(heap)
        runs.append((row, heap, total, total_err, 0))
    while runs:
        wanted: dict[tuple[float, float], None] = {}
        waiting = []
        for row, heap, total, total_err, splits in runs:
            while total_err > rel_tol * abs(total):
                if splits >= MAX_SUBDIVISIONS:
                    raise ToleranceNotMet(
                        f"error {total_err:.3e} above tolerance after {splits} subdivisions"
                    )
                neg_e, a, b, v = heap[0]
                mid = 0.5 * (a + b)
                if not (a < mid < b):
                    # panel no longer splittable at float resolution: freeze it
                    total_err += neg_e
                    heapq.heapreplace(heap, (0.0, a, b, v))
                    continue
                if (a, mid) not in cache or (mid, b) not in cache:
                    wanted[a, mid] = wanted[mid, b] = None
                    waiting.append((row, heap, total, total_err, splits))
                    break
                v1, e1 = gk15(row, a, mid)
                v2, e2 = gk15(row, mid, b)
                total += (v1 + v2) - v
                total_err += (e1 + e2) + neg_e
                heapq.heapreplace(heap, (-e1, a, mid, v1))
                heapq.heappush(heap, (-e2, mid, b, v2))
                splits += 1
            else:
                values[row] = math.fsum(item[3] for item in heap)
        runs = waiting
        if wanted:
            evaluate(list(wanted))
    return np.array(values) if y.ndim == 2 else values[0]


# Tanh-sinh rule for the Beta halves (Takahasi & Mori, Publ. RIMS 9, 1974):
# tau = sigma(pi sinh v), sigma the logistic function, and trapezoid sums in v
# over |v| <= _TS_REACH, whose level k has the step _TS_STEP / 2**k and adds the
# odd multiples of it.  A row settles at the first level k >= 2 whose sum moved
# by at most rel_tol relative; _TS_MAX_LEVEL caps the levels.
_TS_STEP = 0.5
_TS_REACH = 3.5
_TS_MAX_LEVEL = 8


@functools.cache
def _tanh_sinh_level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """log tau and log(step * dtau/dv) at the nodes level ``k`` adds (read-only)."""
    step = _TS_STEP / 2**k
    span = round(_TS_REACH / step)
    v = step * (np.arange(-span, span + 1.0) if k == 0 else np.arange(1.0 - span, span, 2.0))
    z = math.pi * np.sinh(v)
    # log sigma(z) and log sigma(-z), without rounding 1 - tau near tau = 1
    log_tau = -np.logaddexp(0.0, -z)
    log_weight = np.log(step * math.pi * np.cosh(v)) + log_tau - np.logaddexp(0.0, z)
    for table in (log_tau, log_weight):
        table.flags.writeable = False
    return log_tau, log_weight


def _beta_halves(pairs: Sequence[tuple[float, float]], rel_tol: float) -> np.ndarray:
    """integral over (0, 1/2] of u**(x-1) * (1-u)**(y-1) for each (x, y) of
    ``pairs`` (x, y > 0), every pair a row of one tanh-sinh run on [0, 1].

    The head is regularised by u = t**m, m = max(1, ceil(2/x)), so the mapped
    integrand m * t**(m*x-1) * (1-t**m)**(y-1) vanishes at least linearly at
    t = 0.  With h = 2**(-1/m) the upper end t = h is moved to tau = 1 by
    t = h * tau, so every row integrates h * m * t**(m*x-1) * (1-t**m)**(y-1)
    over tau in [0, 1], where t**m = tau**m / 2.  Without the head map
    (m = 1) the rule does not settle within its levels at x = 0.26 and below.

    Each term of a level's sum is the ``exp`` of its log, from the level's
    cached log tau and log weight and each row's log(h*m), log h, m*x-1, m
    and y-1 held as (rows, 1) columns.  Every level is one pass over the rows
    still unsettled; ``exp`` and ``log1p`` only see full (rows, nodes)
    arrays, and each row is summed along a C-contiguous line, so a row's
    value is bit-identical to integrating it alone.

    Raises
    ------
    ToleranceNotMet
        Naming each (x, y) still unsettled after ``_TS_MAX_LEVEL`` levels and
        the difference of its last two level sums, unless that sum is below
        the smallest normal float.
    """
    cols = []
    for x, y in pairs:
        m = max(1, math.ceil(2.0 / x))
        log_hi = -math.log(2.0) / m
        cols.append((math.log(m) + log_hi, log_hi, m * x - 1.0, m, y - 1.0))
    log_scale, log_hi, head, m, tail = np.array(cols).reshape(-1, 5).T[:, :, None]
    sums = np.zeros(len(cols))
    moved = np.zeros(len(cols))
    rows = np.arange(len(cols))
    for k in range(_TS_MAX_LEVEL + 1):
        log_tau, log_weight = _tanh_sinh_level(k)
        # log(h * tau) and log(1 - t**m), full (rows, nodes) arrays
        log_t = log_hi[rows] + log_tau
        log_rest = np.log1p(-0.5 * np.exp(m[rows] * log_tau))
        terms = np.exp(log_scale[rows] + head[rows] * log_t + tail[rows] * log_rest + log_weight)
        prev = sums[rows]
        sums[rows] = level = 0.5 * prev + terms.sum(axis=1)
        moved[rows] = np.abs(level - prev)
        if k >= 2:
            # written so that a NaN sum never settles
            rows = rows[~(moved[rows] <= rel_tol * np.abs(level))]
            if not rows.size:
                return sums
    # a sum below the smallest normal float moves by its rounding grain: it
    # ends here, and integrate_radial_powers names its moment if that underflows
    rows = rows[~(np.abs(sums[rows]) < np.finfo(float).tiny)]
    if not rows.size:
        return sums
    unsettled = ", ".join(f"(x={pairs[i][0]!r}, y={pairs[i][1]!r}) moved by {moved[i]:.3e} "
                          f"of {sums[i]:.6e}" for i in rows)
    raise ToleranceNotMet(f"tanh-sinh sums unsettled after level {_TS_MAX_LEVEL} at rel_tol "
                          f"{rel_tol:g}: {unsettled}")


def integrate_radial_powers(
    fs: Sequence[RadialPowerIntegrand], rel_tol: float = DEFAULT_REL_TOL
) -> list[float]:
    """Evaluate the improper integral of each :class:`RadialPowerIntegrand`.

    With p = 2 - s, the substitution u = r**p / (1 + r**p) maps an integral
    onto the Beta integral (1/p) * integral over (0, 1) of
    u**(x-1) * (1-u)**(y-1), where x = (a+1)/p and y = b - x.  That is
    split at u = 1/2 into two halves of the same shape (the upper one with x
    and y swapped), and the halves of every integral are the rows of one
    :func:`_beta_halves` run.  A row's value does not depend on the rows
    stacked with it, so each result is bit-identical to integrating that
    member alone.

    Each half stops at the first level k >= 2 of its tanh-sinh sums whose
    sum moved by at most ``rel_tol`` times its size, so a moment is held to
    a relative tolerance however small it is.  That last level difference
    is the half's error estimate: it estimates the error of the level before,
    and the rule's error falls about quadratically per level, so the
    returned sum lies well inside it.  Measured against mpmath's incomplete
    Beta function on a 15 x 15 grid of x, y in [1e-3, 200], every half is
    within 1.1e-14 at the default ``rel_tol`` of 1e-10 (2.5e-10 at 1e-8,
    2.9e-9 at 1e-6).

    Raises
    ------
    ValueError, Divergent
        Before any integrand is evaluated: ValueError for ``rel_tol`` outside
        (0, 1), Divergent for a member that fails the convergence test
        a > -1 and (2-s)*b - a > 1.
    ToleranceNotMet
        If a half is still unsettled after the rule's last level; the
        message names each such (x, y) and its last level difference.
    Underflow
        Naming each member (a, b, s) whose value is below the smallest normal
        float, where it has lost its relative accuracy (the bubble's moments
        from s = 1.9981, 1.9961 and 1.99415 on at N = 3, 4 and 5).
    """
    check_rel_tol(rel_tol)
    pairs = []
    for f in fs:
        if not f.is_convergent:
            raise Divergent(
                f"integral of r**{f.a}/(1+r**(2-{f.s}))**{f.b} diverges "
                "(need a > -1 and (2-s)*b - a > 1)"
            )
        x = (f.a + 1.0) / (2.0 - f.s)
        pairs += [(x, f.b - x), (f.b - x, x)]
    halves = _beta_halves(pairs, rel_tol).tolist()
    values = [(lo + hi) / (2.0 - f.s) for lo, hi, f in zip(halves[::2], halves[1::2], fs)]
    tiny = ["(a={!r}, b={!r}, s={!r})".format(*map(float, (f.a, f.b, f.s)))
            for f, value in zip(fs, values) if value < np.finfo(float).tiny]
    if tiny:
        raise Underflow("radial moments below the smallest normal float: " + ", ".join(tiny))
    return values


def integrate_radial_power(f: RadialPowerIntegrand, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """The one-member case of :func:`integrate_radial_powers`: one run of two rows."""
    return integrate_radial_powers([f], rel_tol)[0]


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("dimension must be an integer >= 2")
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
