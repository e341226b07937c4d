"""Per-term Fraction reference for the polynomial-exponential algebra.

These are the straightforward loops the fraction-free code in
``pbeseries.polyexp`` replaced: every term pair costs a Fraction multiply,
a Fraction add and, for convolutions, a beta-function weight, and moments
and point values take one Fraction product per term.  They are slow and
obviously right, which is what a differential oracle needs.  Each returns
a value built in the same order as the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

from pbeseries.polyexp import MixedRatesError


def _add_to(tgt: dict, e: tuple, c: Fraction) -> None:
    s = tgt.get(e, Fraction(0)) + c
    if s == 0:
        tgt.pop(e, None)
    else:
        tgt[e] = s


def _beta(i: int, j: int) -> Fraction:
    return Fraction(math.factorial(i) * math.factorial(j), math.factorial(i + j + 1))


def convolve(f, g):
    """Size convolution on every size axis (1-D or 2-D), pair by pair."""
    nsize = f.dim
    out: dict = {}
    for ra, pa in f._terms.items():
        for rb, pb in g._terms.items():
            if ra != rb:
                raise MixedRatesError(f"convolution of distinct rates {ra} and {rb}")
            tgt = out.setdefault(ra, {})
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    w = Fraction(1)
                    for axis in range(nsize):
                        w *= _beta(ea[axis], eb[axis])
                    e = tuple(
                        i + j + (axis < nsize) for axis, (i, j) in enumerate(zip(ea, eb))
                    )
                    _add_to(tgt, e, ca * cb * w)
            if not tgt:
                out.pop(ra, None)
    return type(f)(out)


def mul(f, g):
    """Pointwise product: rates add, exponents add."""
    out: dict = {}
    for ra, pa in f._terms.items():
        for rb, pb in g._terms.items():
            rate = f._rate_sum(ra, rb)
            tgt = out.setdefault(rate, {})
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    _add_to(tgt, tuple(i + j for i, j in zip(ea, eb)), ca * cb)
            if not tgt:
                out.pop(rate, None)
    return type(f)(out)


def mul_tpoly(f, tp: dict):
    """Product with a polynomial in t alone."""
    out: dict = {}
    for r, p in f._terms.items():
        tgt = out.setdefault(r, {})
        for e, c in p.items():
            for j, k in tp.items():
                _add_to(tgt, e[:-1] + (e[-1] + j,), c * k)
        if not tgt:
            out.pop(r, None)
    return type(f)(out)


def moment(f, *orders) -> dict:
    """Moment over the size axes, n!/a^{n+1} per axis, summed term by term."""
    out: dict = {}
    for rate, e, c in f.terms():
        for i, j, a in zip(e, orders, f._axis_rates(rate)):
            c = c * Fraction(math.factorial(i + j)) / a ** (i + j + 1)
        _add_to(out, e[-1], c)
    return out


def evaluate(f, *coords) -> float:
    """Float value: exact Fraction sum per rate group, then one float and one exp."""
    exact = [Fraction(v) for v in coords]
    total = 0.0
    for rate, poly in f._terms.items():
        acc = Fraction(0)
        for e, c in poly.items():
            for v, i in zip(exact, e):
                c = c * v**i
            acc += c
        rates = f._axis_rates(rate)
        arg = -float(rates[0]) * coords[0]
        for a, v in zip(rates[1:], coords[1:]):
            arg -= float(a) * v
        total += float(acc) * math.exp(arg)
    return total
