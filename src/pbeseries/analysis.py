"""Error norms, series moments, convergence-bound calculators and tables.

The density error norm is the L1 distance on [0, xmax] computed with a
composite Simpson rule (defaults: xmax = 50, step = 1e-2).  Truncating
the half line at 50 is harmless for every supported problem: all
densities decay at least like e^{-x} there, so the discarded tail is
below 1e-20.  Error tables sample the exact solution once per time and
reuse that grid for every truncation order.

The sup-norm behind the convergence bounds is exact on [0, inf) for
single-rate values: time is substituted exactly, the half line is split
at the certified sign changes of the x-polynomial, and the exact tail
antiderivative is differenced between them.  Adaptive quadrature on
[0, 50] is used only for values with several rates or with roots that
cannot be certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import integrate

from .polyexp import PolyExp1D, TPoly, tpoly_eval
from .series import SeriesSolution


class InvalidSpecError(ValueError):
    """A table or bound request was structurally invalid."""


# ---------------------------------------------------------------------------
# density errors


def _simpson_grid(xmax: float, step: float):
    n = int(round(xmax / step))
    if n < 2:
        raise InvalidSpecError("Simpson grid needs at least two intervals")
    if n % 2:
        n += 1
    xs = np.linspace(0.0, xmax, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * (xmax / n) / 3.0


def l1_error(
    f: PolyExp1D,
    sol,
    t: float,
    xmax: float = 50.0,
    step: float = 1e-2,
) -> float:
    """Simpson approximation of int_0^xmax |f(x, t) - exact(x, t)| dx."""
    xs, w = _simpson_grid(xmax, step)
    return _l1_distance(f, _exact_grid(sol, xs, t), xs, w, t)


def _exact_grid(sol, xs: np.ndarray, t: float) -> np.ndarray:
    return np.array([sol.evaluate(float(x), t) for x in xs])


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
    """(num, den) with p(x) = num / den and den > 0, in integer arithmetic."""
    n, d = x.numerator, x.denominator
    acc, dk = p[-1], 1
    for c in reversed(p[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return acc, dk


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_root_count(p: list[int]) -> int:
    """Distinct roots in (0, inf) of p, which must not vanish at 0 (Sturm).

    Remainders are taken as positive multiples (pseudo-division by the
    absolute leading coefficient) and reduced to primitive parts, which
    keeps every sign of the Sturm sequence and all arithmetic in integers.
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
    return _sign_variations(q[0] for q in seq) - _sign_variations(q[-1] for q in seq)


def _refine_root(p: list[int], lo: Fraction, hi: Fraction, x: float):
    """A float within one ulp of the only root of p in (lo, hi), or None.

    p must change sign across the bracket.  Newton steps from the guess x
    are computed from exact values, and every step shrinks the bracket by
    an exact sign test, falling back to bisection when a step leaves it.
    """
    dp = [i * c for i, c in enumerate(p)][1:]
    lo_positive = _value(p, lo)[0] > 0
    for _ in range(100):
        xf = Fraction(x)
        if not lo < xf < hi:
            x = float((lo + hi) / 2)
            xf = Fraction(x)
            if not lo < xf < hi:
                return x  # no float lies strictly inside the bracket
        v, vden = _value(p, xf)
        if v == 0:
            return x
        if (v > 0) == lo_positive:
            lo, toward = xf, float(hi)
        else:
            hi, toward = xf, float(lo)
        dv, dvden = _value(dp, xf)
        try:
            newton = x - (v * dvden) / (dv * vden)
        except (ZeroDivisionError, OverflowError):
            newton = math.inf  # leaves the bracket, so the next step bisects
        x = newton if newton != x else math.nextafter(x, toward)
    return None


def _sign_changes(coeffs: list[Fraction]):
    """Points in (0, inf) where the polynomial changes sign, or None.

    Candidates come from ``numpy.roots``; they are accepted only when the
    Sturm count of distinct positive roots equals their number and exact
    signs alternate across the brackets between them, so each bracket holds
    exactly one root.  None means the roots could not be certified.
    """
    p, _ = _as_integers(coeffs)
    while p and p[-1] == 0:
        p.pop()
    while p and p[0] == 0:  # a factor x^m has no root in (0, inf)
        p.pop(0)
    if len(p) <= 1:
        return []
    count = _positive_root_count(p)
    if count == 0:
        return []
    try:
        monic = [c / p[-1] for c in reversed(p)]
    except OverflowError:
        return None
    guesses = sorted(
        r.real for r in np.roots(monic)
        if r.real > 0 and abs(r.imag) <= 1e-9 * abs(r)
    )
    if len(guesses) != count:
        return None
    # Cauchy's bound: every root lies below it
    edges = ([Fraction(0)]
             + [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(guesses, guesses[1:])]
             + [1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))])
    values = [_value(p, e)[0] for e in edges]
    if 0 in values or any(a >= b for a, b in zip(edges, edges[1:])) or \
            any((a > 0) == (b > 0) for a, b in zip(values, values[1:])):
        return None
    roots = [_refine_root(p, lo, hi, g) for lo, hi, g in zip(edges, edges[1:], guesses)]
    return None if None in roots else roots


def _exact_abs_integral(a: Fraction, coeffs: list[Fraction], roots: list[float]) -> float:
    """int_0^inf |P(x)| e^{-ax} dx from the tail antiderivative e^{-ax} Q(x).

    Q is what ``PolyExp1D.tail_integral(0)`` gives for P e^{-ax}, built by
    its recurrence a Q_k = c_k + (k+1) Q_{k+1} in time linear in the degree
    rather than quadratic.  Between consecutive sign
    changes the integral is the difference of the antiderivative at the
    ends; each end is rounded once.
    """
    q = [Fraction(0)] * (len(coeffs) + 1)
    for k in range(len(coeffs) - 1, -1, -1):
        q[k] = (coeffs[k] + (k + 1) * q[k + 1]) / a
    q, qden = _as_integers(q[:-1])
    ends = []
    for r in [0.0, *roots]:
        num, den = _value(q, Fraction(r))
        ends.append(num / (den * qden) * math.exp(-float(a) * r))
    ends.append(0.0)
    return sum(abs(u - v) for u, v in zip(ends, ends[1:]))


def _l1_at_time(f: PolyExp1D, s: float) -> float:
    collapsed = f.collapse_t(Fraction(s))
    coeffs = [c for poly in collapsed.values() for c in poly]
    if all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs):
        # Single-signed coefficients make f single-signed on x > 0, so the
        # absolute integral is the absolute value of the exact moment.
        return abs(tpoly_eval(f.moment(0), s))
    if len(collapsed) == 1:
        (a, poly), = collapsed.items()
        roots = _sign_changes(poly) if a > 0 else None
        if roots is not None:
            return _exact_abs_integral(a, poly, roots)
    groups = [(float(a), [float(c) for c in reversed(poly)]) for a, poly in collapsed.items()]

    def integrand(x: float) -> float:
        total = 0.0
        for a, cs in groups:
            acc = 0.0
            for c in cs:
                acc = acc * x + c
            total += acc * math.exp(-a * x)
        return abs(total)

    val, _ = integrate.quad(integrand, 0.0, 50.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


def sup_l1_norm(f: PolyExp1D, t0: float, samples: int = 101) -> float:
    """sup over s in [0, t0] of int_0^inf |f(x, s)| dx.

    The sup is sampled on an equispaced time grid.  Each inner integral
    collapses t exactly and is exact on [0, inf) whenever the x-polynomial
    has one coefficient sign (the absolute moment), or when f has a single
    rate a > 0: the half line is split at the certified sign changes of P
    and the tail antiderivative e^{-ax} Q(x) is differenced between them,
    rounding once per root.  Adaptive quadrature on [0, 50], over a float
    Horner evaluation, is used only for several rates or roots that cannot
    be certified (repeated or clustered roots).
    """
    if t0 < 0 or samples < 2:
        raise InvalidSpecError("sup norm needs t0 >= 0 and at least two samples")
    if t0 == 0:
        return _l1_at_time(f, 0.0)
    return max(_l1_at_time(f, float(s)) for s in np.linspace(0.0, t0, samples))


@dataclass(frozen=True)
class ConvergenceBound:
    """Geometric error bound (contraction)^m / (1 - contraction) * ||v1||."""

    lipschitz: float
    contraction: float
    bound: float

    @property
    def contractive(self) -> bool:
        return self.contraction < 1.0


def _geometric_bound(lipschitz: float, contraction: float, m: int,
                     v1_norm: float) -> ConvergenceBound:
    bound = math.inf if contraction >= 1.0 else contraction**m / (1.0 - contraction) * v1_norm
    return ConvergenceBound(lipschitz, contraction, bound)


def coag_bound(
    u0_norm: float, T: float, t0: float, m: int, v1_norm: float
) -> ConvergenceBound:
    """Coagulation contraction constant and error bound.

    L = ||u0|| (T+1) and the contraction factor is
    t0^2 e^{2 t0 L} (||u0|| + 2 t0 L^2 + 2 t0 L).
    """
    if min(u0_norm, T, t0) <= 0 or m < 0 or v1_norm < 0:
        raise InvalidSpecError("bound inputs must be positive (m, v1_norm >= 0)")
    L = u0_norm * (T + 1.0)
    delta = t0**2 * math.exp(2.0 * t0 * L) * (u0_norm + 2.0 * t0 * L**2 + 2.0 * t0 * L)
    return _geometric_bound(L, delta, m, v1_norm)


def frag_bound(
    k: int, lam: float, t0: float, m: int, v1_norm: float
) -> ConvergenceBound:
    """Fragmentation contraction factor k! t0^2 / lambda^{k+1} and bound."""
    if k < 1 or lam <= 0 or t0 <= 0 or m < 0 or v1_norm < 0:
        raise InvalidSpecError("bound inputs out of range")
    theta = math.factorial(k) * t0**2 / lam ** (k + 1)
    return _geometric_bound(lam, theta, m, v1_norm)


def coag2d_bounds(
    u0_norm: float, T: float, t0: float, m: int, v1_norm: float
) -> dict[str, ConvergenceBound]:
    """Bivariate constants, in both published variants.

    The statement-level factor carries an extra 2 relative to what the
    derivation chain yields; both are exposed, labeled, so callers can
    see the discrepancy instead of having it silently resolved.
    """
    base = coag_bound(u0_norm, T, t0, m, v1_norm)
    return {label: _geometric_bound(base.lipschitz, factor * base.contraction, m, v1_norm)
            for label, factor in (("statement", 2.0), ("derived", 1.0))}


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

    def to_csv(self) -> str:
        lines = [f"# norm = {self.norm}"]
        header = [self.row_axis] + [f"{self.col_axis}={c:g}" if isinstance(c, (int, float)) else str(c) for c in self.col_labels]
        lines.append(",".join(header))
        for label, row in zip(self.row_labels, self.cells):
            lines.append(",".join([f"{label:g}" if isinstance(label, (int, float)) else str(label)]
                                  + [f"{v:.17g}" for v in row]))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "norm": self.norm,
            "row_axis": self.row_axis,
            "col_axis": self.col_axis,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "cells": [list(r) for r in self.cells],
        }


def error_table_l1(
    series: SeriesSolution,
    sol,
    orders: Sequence[int],
    times: Sequence[float],
    xmax: float = 50.0,
    step: float = 1e-2,
) -> ErrorTable:
    """L1-error grid over truncation orders (rows) and times (columns).

    The exact solution is sampled once per time and shared by every order.
    """
    if not orders or not times:
        raise InvalidSpecError("error table needs nonempty order and time lists")
    xs, w = _simpson_grid(xmax, step)
    exact = [_exact_grid(sol, xs, t) for t in times]
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
        norm=f"L1[0,{xmax:g}] Simpson step {step:g}",
    )


def error_table_pointwise(
    series: SeriesSolution,
    sol,
    x: float,
    times: Sequence[float],
    order: int | None = None,
) -> ErrorTable:
    """Pointwise table at fixed x: rows are times, columns exact/approx/error."""
    if not times:
        raise InvalidSpecError("error table needs a nonempty time list")
    n = series.n if order is None else order
    psi = series.truncated(n)
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
