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
line is split at the sign changes of the x-polynomial, which Sturm counts
isolate and exact-sign bisection refines, and the exact tail
antiderivative is differenced between them.  The 2-D bounds read |mu_00|
at t0 (``sup_abs_moment00``), not the L1 norm of a sign-changing value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polyexp import MixedRatesError, PolyExp1D, PolyExp2D, TPoly, ZeroRateError, tpoly_eval
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


def pointwise(f: PolyExp1D, sol, x: float, t: float) -> tuple[float, float, float]:
    """(approximate, exact, absolute error) at a single point."""
    approx = f.evaluate(x, t)
    ex = sol.evaluate(x, t)
    return approx, ex, abs(approx - ex)


def series_moment(series: SeriesSolution, k: int, *j: int) -> TPoly:
    """Exact moment polynomial of the partial sum Psi_k.

    ``j`` is one order per size axis: ``j`` in 1-D, ``jx, jy`` in 2-D.
    """
    return series.truncated(k).moment(*j)


# ---------------------------------------------------------------------------
# norms and convergence bounds


def _as_integers(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """Integer coefficients and common denominator: coeffs = ints / den."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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


def _sturm_sequence(p: list[int]) -> list[list[int]]:
    """The Sturm sequence p, p', -rem(p, p'), ... of p, in integers.

    Remainders are taken as positive multiples (pseudo-division by the
    absolute leading coefficient) and reduced to primitive parts, which
    keeps every sign of the sequence and all arithmetic in integers.
    """
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        num, den = seq[-2], seq[-1]
        lead, sign = abs(den[-1]), (1 if den[-1] > 0 else -1)
        while len(num) >= len(den):
            k, shift = sign * num[-1], len(num) - len(den)
            num = [lead * c for c in num]
            for i, c in enumerate(den):
                num[shift + i] -= k * c
            while num and num[-1] == 0:
                num.pop()
        if not num:
            break
        g = math.gcd(*num)
        seq.append([-c // g for c in num])
    return seq


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


def _stripped(coeffs: list[Fraction]) -> list[int]:
    """An integer multiple of coeffs without trailing zeros or x^m (no root in (0, inf))."""
    p, _ = _as_integers(coeffs)
    nonzero = [i for i, c in enumerate(p) if c]
    return p[nonzero[0]:nonzero[-1] + 1] if nonzero else []


def _sign_changes(coeffs: list[Fraction]) -> list[float]:
    """The points in (0, inf) where the polynomial changes sign, ascending.

    Coefficients without a sign variation have no positive root (Descartes'
    rule of signs).  Otherwise Sturm counts of distinct roots isolate the
    positive roots on (0, ``_root_bound``) by bisection that never splits at
    a root.  A bracket with one distinct root holds a sign change only when
    p changes sign across it (an odd multiplicity), and each is refined by
    ``_refine_root``.
    """
    p = _stripped(coeffs)
    if not _sign_variations(p):
        return []
    seq = _sturm_sequence(p)

    def point(x: Fraction) -> tuple[Fraction, int, int]:
        """x, the sign variations of the Sturm sequence at x and the sign of p(x)."""
        values = [_value(q, x)[0] for q in seq]
        return x, _sign_variations(values), (values[0] > 0) - (values[0] < 0)

    roots, stack = [], [(point(Fraction(0)), point(_root_bound(p)))]
    while stack:  # the lower half is popped first, so roots come in order
        (lo, vlo, slo), (hi, vhi, shi) = ends = stack.pop()
        if vlo - vhi == 1 and slo != shi:
            roots.append(_refine_root(p, lo, hi))
        elif vlo - vhi > 1:
            mid = point((lo + hi) / 2)
            while mid[2] == 0:  # p(lo) != 0, so this ends within deg p steps
                mid = point((lo + mid[0]) / 2)
            stack += [(mid, ends[1]), (ends[0], mid)]
    return roots


def _exact_abs_integral(a: Fraction, q: list[Fraction], roots: list[float]) -> float:
    """int_0^inf |P(x)| e^{-ax} dx from the tail antiderivative e^{-ax} Q(x) of P e^{-ax}.

    Between consecutive sign changes of P the integral is the difference of
    the antiderivative at the ends; each end is rounded once.
    """
    q, qden = _as_integers(q)
    ends = []
    for r in [0.0, *roots]:
        num, den = _value(q, Fraction(r))
        ends.append(num / (den * qden) * math.exp(-float(a) * r))
    ends.append(0.0)
    return sum(abs(u - v) for u, v in zip(ends, ends[1:]))


def _l1_at_time(f: PolyExp1D, s: float) -> float:
    """int_0^inf |f(x, s)| dx, exact for f with one rate a > 0."""
    if f.has_zero_rate():
        raise ZeroRateError("L1 norm of a rate-0 term diverges")
    collapsed = f.collapse_t(Fraction(s))
    if len(collapsed) > 1:
        raise MixedRatesError("L1 norm of a value with several rates is outside the exact norm")
    if not collapsed:
        return 0.0
    (a, poly), = collapsed.items()
    (_, q), = f.tail_integral(0).collapse_t(Fraction(s)).items()
    return _exact_abs_integral(a, q, _sign_changes(poly))


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
    return abs(tpoly_eval(f.moment(0, 0), _sup_time(f, t0)))


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
    if not orders or not times:
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
    if not times:
        raise InvalidSpecError("error table needs a nonempty time list")
    psi = series.truncated(series.n)
    cells = []
    for t in times:
        approx, ex, err = pointwise(psi, sol, x, t)
        cells.append((ex, approx, err))
    return ErrorTable(
        row_axis="t",
        col_axis="column",
        row_labels=tuple(times),
        col_labels=("exact", "approx", "abs_error"),
        cells=tuple(cells),
        norm=f"pointwise at x={x:g}",
    )
