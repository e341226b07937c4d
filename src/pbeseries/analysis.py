"""Error norms, series moments, convergence-bound calculators and tables.

The error tables and bounds are computed here and returned as data
(``ErrorTable``, floats); ``cli`` formats and writes them.

The density error norm is the L1 distance on [0, XMAX] computed with a
composite Simpson rule (XMAX = 50, STEP = 1e-2).  Truncating
the half line at 50 is harmless for every supported problem: all
densities decay at least like e^{-x} there, so the discarded tail is
below 1e-20.  Error tables sample the exact solution with one vectorised
``evaluate_grid`` call per time, bit-identical to the scalar reference,
and reuse that grid for every truncation order.

The convergence bounds follow the paper's two steps: Theorem 3's
contraction of Q~ (``coag_contraction`` from ||u0||, ``frag_contraction``
from k, lambda and t0), then Theorem 4's one ``geometric_bound`` from that
contraction and ||v_1||.  The sup-norm behind them takes what they pass,
u0 and v_1 = t g(x): one positive rate and one power of t, so the sup over
[0, t0] is the exact value at t0; anything else is refused.  The half
line is split at the sign changes of the x-polynomial, which Descartes' rule
on each bracket isolates and exact-sign bisection refines, and the exact tail
antiderivative is differenced between them.  The 2-D bounds read |mu_00|
at t0 (``sup_abs_moment00``), not the L1 norm of a sign-changing value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polyexp import (MixedRatesError, PolyExp1D, PolyExp2D, TPoly, ZeroRateError,
                       ratio_times_exp, tpoly_function)
from .series import SeriesSolution


class InvalidSpecError(ValueError):
    """A table or bound request was structurally invalid."""


class _LazyIntegrate:
    """``scipy.integrate``, imported on first use; nothing in the package calls it.

    It stays while the benchmark's span tracer proxies its ``quad`` (ROADMAP item 9).
    """

    def __getattr__(self, name):
        from scipy import integrate

        return getattr(integrate, name)


integrate = _LazyIntegrate()


# ---------------------------------------------------------------------------
# density errors


# the L1 error's domain [0, XMAX] and Simpson step (XMAX / STEP is even)
XMAX, STEP = 50.0, 1e-2


def _simpson_grid():
    n = int(round(XMAX / STEP))
    xs = np.linspace(0.0, XMAX, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * (XMAX / n) / 3.0


def l1_error(f: PolyExp1D, sol, t: float) -> float:
    """Simpson approximation of int_0^XMAX |f(x, t) - exact(x, t)| dx."""
    xs, w = _simpson_grid()
    return _l1_distance(f, sol.evaluate_grid(xs, t), xs, w, t)


def _l1_distance(f: PolyExp1D, ex: np.ndarray, xs: np.ndarray, w: np.ndarray, t: float) -> float:
    return float(np.sum(w * np.abs(f.eval_grid(xs, t) - ex)))


def series_moment(series: SeriesSolution, k: int, *j: int) -> TPoly:
    """Exact moment polynomial of the partial sum Psi_k.

    ``j`` is one order per size axis: ``j`` in 1-D, ``jx, jy`` in 2-D.
    """
    return series.truncated(k).moment(*j)


# ---------------------------------------------------------------------------
# norms and convergence bounds


def _value(p: list[int], x: Fraction) -> tuple[int, int]:
    """(num, den) with p(x) = num / den and den > 0, for a dyadic x such as a float.

    Every point the sup-norm evaluates is dyadic, so the powers of the
    denominator are shifts, several times cheaper than products.
    """
    n, e = x.numerator, x.denominator.bit_length() - 1
    if x.denominator != 1 << e:
        raise ValueError(f"{x} is not a dyadic rational")
    acc, shift = p[-1], 0
    for c in reversed(p[:-1]):
        shift += e
        acc = acc * n + (c << shift)
    return acc, 1 << shift


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _taylor_shift(p: list[int], a: int) -> list[int]:
    """The coefficients of p(x + a), shifted in place."""
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += a * p[j + 1]
    return p


def _descartes(p: list[int], lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1 + y)^d p((lo + hi y) / (1 + y)), for dyadic lo < hi.

    0 means no root of p in (lo, hi) and 1 one simple root.  With n = den lo and
    w = den (hi - lo) it is P(n + w z), P(z) = den^d p(z / den), reversed and shifted by 1.
    """
    den, d = max(lo.denominator, hi.denominator), len(p) - 1
    n, w = int(lo * den), int((hi - lo) * den)
    shifted = _taylor_shift([c * den ** (d - k) for k, c in enumerate(p)], n)
    return _sign_variations(_taylor_shift([c * w**k for k, c in enumerate(shifted)][::-1], 1))


def _root_bound(p: list[int]) -> Fraction:
    """A power of two strictly above |z| for every root z of p.

    Fujiwara's |z| <= 2 max_k |p_{n-k} / p_n|^{1/k} on bit lengths b, as
    |p_{n-k} / p_n| < 2^{b(p_{n-k}) - b(p_n) + 1}.  Cauchy's 1 + max |p_i / p_n|
    can lie hundreds of halvings above the roots, which bisection then pays.
    """
    lead = abs(p[-1]).bit_length()
    return Fraction(2) ** (1 + max(-((lead - 1 - abs(c).bit_length()) // k)
                                   for k, c in enumerate(reversed(p[:-1]), 1) if c))


def _refine_root(p: list[int], lo: Fraction, hi: Fraction) -> float:
    """The root of p in (lo, hi), across which p changes sign once, as a float.

    Bisection on exact signs, splitting at the float nearest the middle,
    ends at the root itself or, once no float lies strictly inside, at the
    middle: for float ends, the even one of the root's neighbouring floats.
    """
    lo_positive = _value(p, lo)[0] > 0
    while True:
        x = float((lo + hi) / 2)
        xf = Fraction(x)
        if not lo < xf < hi or (v := _value(p, xf)[0]) == 0:
            return x
        lo, hi = (xf, hi) if (v > 0) == lo_positive else (lo, xf)


def _stripped(p: list[int]) -> list[int]:
    """p without trailing zeros or x^m (no root in (0, inf))."""
    nonzero = [i for i, c in enumerate(p) if c]
    return p[nonzero[0]:nonzero[-1] + 1] if nonzero else []


def _sign_changes(p: list[int]) -> list[float]:
    """The points in (0, inf) where the integer polynomial p changes sign, ascending.

    Coefficients without a sign variation have no positive root (Descartes'
    rule of signs).  Otherwise bisection of (0, ``_root_bound``) that never
    splits at a root isolates them by ``_descartes`` counts; ``_refine_root``
    refines each bracket with one simple root.  A bracket that keeps 2 or more
    (a multiple root, or roots within one float gap) is bisected until the
    float neighbours of its middle's float enclose it; it holds a sign change,
    refined between those neighbours, when p's signs at its ends differ.
    """
    p = _stripped(p)
    if not _sign_variations(p):
        return []
    roots, stack = [], [(Fraction(0), _root_bound(p))]
    while stack:  # the lower half is popped first, so roots come in order
        lo, hi = stack.pop()
        count, near = _descartes(p, lo, hi), None
        if count > 1 and (hi - lo) * 2**52 <= hi:  # narrow: a wide one may pass the float range
            near = [Fraction(math.nextafter(float((lo + hi) / 2), end)) for end in (0.0, math.inf)]
        if count == 1:
            roots.append(_refine_root(p, lo, hi))
        elif near and near[0] <= lo and hi <= near[1]:
            if (_value(p, lo)[0] > 0) != (_value(p, hi)[0] > 0):
                roots.append(_refine_root(p, *near))
        elif count:
            mid = (lo + hi) / 2
            while not _value(p, mid)[0]:  # p(lo) != 0, so this ends within deg p steps
                mid = (lo + mid) / 2
            stack += [(mid, hi), (lo, mid)]
    return roots


def _exact_abs_integral(a: Fraction, q: list[int], qden: int, roots: list[float]) -> float:
    """int_0^inf |P(x)| e^{-ax} dx from the tail antiderivative e^{-ax} q(x) / qden of P e^{-ax}.

    Between consecutive sign changes of P it is the antiderivative's difference at
    the ends, each rounded once (``ratio_times_exp``); an inf sum raises OverflowError.
    """
    ends = []
    for r in [0.0, *roots]:
        num, den = _value(q, Fraction(r))
        ends.append(ratio_times_exp(num, den * qden, float(a) * r))
    total = sum(abs(u - v) for u, v in zip(ends, [*ends[1:], 0.0]))
    if not math.isfinite(total):
        raise OverflowError("the L1 norm sums to inf")
    return total


def _l1_at_time(f: PolyExp1D, s: float) -> float:
    """int_0^inf |f(x, s)| dx, exact for f with one rate a > 0."""
    if f.has_zero_rate():
        raise ZeroRateError("L1 norm of a rate-0 term diverges")
    collapsed = f.collapse_t(Fraction(s))
    if len(collapsed) > 1:
        raise MixedRatesError("L1 norm of a value with several rates is outside the exact norm")
    if not collapsed:
        return 0.0
    (a, (_, p)), = collapsed.items()
    (_, (qden, q)), = f.tail_integral(0).collapse_t(Fraction(s)).items()
    return _exact_abs_integral(a, q, qden, _sign_changes(p))


def _sup_time(f, t0: float) -> float:
    """t0, where the norm of an f = t^k g(x) with one power of t peaks on [0, t0]."""
    if t0 < 0:
        raise InvalidSpecError("sup norm needs t0 >= 0")
    if len({e[-1] for _, e, _ in f.terms()}) > 1:
        raise InvalidSpecError("sup norm takes a value with one power of t, such as u0 or v_1")
    return float(t0)


def sup_l1_norm(f: PolyExp1D, t0: float) -> float:
    """sup over s in [0, t0] of int_0^inf |f(x, s)| dx, for f = t^k g(x) with one rate a > 0.

    The norm s^k ||g|| peaks at t0, where it is exact: the half line is split
    at the sign changes of the x-polynomial (``_sign_changes``) and the tail
    antiderivative is differenced between them (``_exact_abs_integral``).
    """
    return _l1_at_time(f, _sup_time(f, t0))


def sup_abs_moment00(f: PolyExp2D, t0: float) -> float:
    """sup over s in [0, t0] of |mu_00(f)(s)| = |int int f(x, y, s) dx dy|, read at t0.

    The 2-D bounds use it for u0 and v_1; it is the L1 norm only for a
    single-signed f.  v_1 changes sign, so the 2-D bound is not Theorem 4's:
    for ``monoexp2:6250000,1,1,50,50`` at t0 = 0.01 this gives t0 / 2 = 0.005,
    while int int |v_1| dx dy at t0 is 0.0097694.
    """
    return abs(tpoly_function(f.moment(0, 0))(_sup_time(f, t0)))


def coag_contraction(u0_norm: float, T: float, t0: float) -> tuple[float, float]:
    """L = ||u0|| (T+1) and the contraction t0^2 e^{2 t0 L} (||u0|| + 2 t0 L^2 + 2 t0 L)."""
    if min(u0_norm, T, t0) <= 0:
        raise InvalidSpecError("bound inputs out of range")
    L = u0_norm * (T + 1.0)
    return L, t0**2 * math.exp(2.0 * t0 * L) * (u0_norm + 2.0 * t0 * L**2 + 2.0 * t0 * L)


def frag_contraction(k: int, lam: float, t0: float) -> float:
    """The fragmentation contraction factor k! t0^2 / lambda^{k+1}."""
    if k < 1 or lam <= 0 or t0 <= 0:
        raise InvalidSpecError("bound inputs out of range")
    if not lam ** (k + 1):  # so k! t0^2 / lambda^{k+1} is past the float range
        raise OverflowError(f"lambda^{k + 1} underflows to 0")
    return math.factorial(k) * t0**2 / lam ** (k + 1)


# The 2-D contraction's factor in both published variants: the statement carries
# an extra 2 relative to what the derivation chain yields.  Both are exposed,
# labeled, so callers see the discrepancy instead of having it silently resolved.
COAG2D_FACTORS = {"statement": 2.0, "derived": 1.0}


def geometric_bound(contraction: float, m: int, v1_norm: float) -> float:
    """Theorem 4's contraction^m / (1 - contraction) ||v_1||; inf for a contraction >= 1."""
    if m < 0 or v1_norm < 0:
        raise InvalidSpecError("bound inputs out of range")
    return math.inf if contraction >= 1.0 else contraction**m / (1.0 - contraction) * v1_norm


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class ErrorTable:
    """Rectangular table of error values with labeled axes."""

    row_axis: str
    col_axis: str
    row_labels: tuple
    col_labels: tuple
    cells: tuple  # tuple of row tuples
    norm: str

    def __post_init__(self):
        if len(self.cells) != len(self.row_labels):
            raise InvalidSpecError("cell row count does not match row labels")
        for row in self.cells:
            if len(row) != len(self.col_labels):
                raise InvalidSpecError("cell column count does not match col labels")
            if not all(math.isfinite(v) for v in row):
                raise InvalidSpecError("table cells must be finite")


def error_table_l1(
    series: SeriesSolution,
    sol,
    orders: Sequence[int],
    times: Sequence[float],
) -> ErrorTable:
    """L1-error grid over truncation orders (rows) and times (columns).

    The exact solution is sampled once per time and shared by every order.
    """
    if not len(orders) or not len(times):
        raise InvalidSpecError("error table needs nonempty order and time lists")
    xs, w = _simpson_grid()
    exact = [sol.evaluate_grid(xs, t) for t in times]
    cells = []
    for n in orders:
        psi = series.truncated(n)
        cells.append(tuple(_l1_distance(psi, ex, xs, w, t) for t, ex in zip(times, exact)))
    return ErrorTable(
        row_axis="n",
        col_axis="t",
        row_labels=tuple(orders),
        col_labels=tuple(times),
        cells=tuple(cells),
        norm=f"L1[0,{XMAX:g}] Simpson step {STEP:g}",
    )


def error_table_pointwise(
    series: SeriesSolution,
    sol,
    x: float,
    times: Sequence[float],
) -> ErrorTable:
    """Pointwise table at fixed x: rows are times, columns exact/approx/error."""
    if not len(times):
        raise InvalidSpecError("error table needs a nonempty time list")
    psi = series.truncated(series.n)
    cells = []
    for t in times:
        approx = psi.evaluate(x, t)  # the series first: its errors come first
        ex = sol.evaluate(x, t)
        cells.append((ex, approx, abs(approx - ex)))
    return ErrorTable(
        row_axis="t",
        col_axis="column",
        row_labels=tuple(times),
        col_labels=("exact", "approx", "abs_error"),
        cells=tuple(cells),
        norm=f"pointwise at x={x:g}",
    )
