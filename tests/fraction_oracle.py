"""Per-term Fraction reference for the polynomial-exponential algebra.

These are the straightforward loops the integer code in
``pbeseries.polyexp`` replaced: every term pair costs a Fraction multiply,
a Fraction add and, for convolutions, a beta-function weight; sums,
scalings and integrals take one Fraction operation per term, moments and
point values one Fraction product per term, and time substitution one
Fraction power per term.  They read each stored rate group back as
Fractions, its rate in the API form (``groups``), add rates as Fractions
(``axes``) and are slow and obviously right, which is what a differential
oracle needs.  Each returns a value built in the same order
as the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

from pbeseries.polyexp import MixedRatesError


def groups(f):
    """(API rate, {exponents: Fraction}) of each stored rate group, in stored order.

    Stored keys are unpacked into exponent tuples by ``_unpack``, the one
    helper that reads the packed layout, and stored numerators, which are
    in divided powers along the size axes, are read by ``_powers``, the one
    helper that converts them.
    """
    for rate, group in f._terms.items():
        yield f._api_rate(rate), {f._unpack(key): c for key, c in f._powers(*group).items()}


def axes(f, rate) -> tuple:
    """The per-axis Fractions of a rate in its API form."""
    return tuple(rate) if f.dim > 1 else (rate,)


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
    for ra, pa in groups(f):
        for rb, pb in groups(g):
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
    for ra, pa in groups(f):
        for rb, pb in groups(g):
            rate = tuple(a + b for a, b in zip(axes(f, ra), axes(f, rb)))
            rate = rate if f.dim > 1 else rate[0]
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
    for r, p in groups(f):
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
        for i, j, a in zip(e, orders, axes(f, rate)):
            c = c * Fraction(math.factorial(i + j)) / a ** (i + j + 1)
        _add_to(out, e[-1], c)
    return out


def evaluate(f, *coords) -> float:
    """Float value: exact Fraction sum per rate group, then one float and one exp."""
    exact = [Fraction(v) for v in coords]
    total = 0.0
    for rate, poly in groups(f):
        acc = Fraction(0)
        for e, c in poly.items():
            for v, i in zip(exact, e):
                c = c * v**i
            acc += c
        rates = axes(f, rate)
        arg = -float(rates[0]) * coords[0]
        for a, v in zip(rates[1:], coords[1:]):
            arg -= float(a) * v
        total += float(acc) * math.exp(arg)
    return total


def collapse_t(f, t) -> dict:
    """Exact time substitution: rate -> x-coefficients, one Fraction power per term."""
    tf = Fraction(t)
    out = {}
    for a, p in groups(f):
        coeffs = [Fraction(0)] * (max(i for i, _ in p) + 1)
        for (i, j), c in p.items():
            coeffs[i] += c * tf**j
        out[a] = coeffs
    return out


def tpoly_eval(tp: dict, t: float) -> float:
    """A time polynomial at a float time: an exact Fraction sum, rounded once."""
    tf = Fraction(t)
    acc = Fraction(0)
    for j, c in tp.items():
        acc += c * tf**j
    return float(acc)


def add(f, g, sign: int = 1):
    """f + sign * g, term by term into f's rate groups."""
    out = {r: dict(p) for r, p in groups(f)}
    for r, p in groups(g):
        tgt = out.setdefault(r, {})
        for e, c in p.items():
            _add_to(tgt, e, sign * c)
        if not tgt:
            del out[r]
    return type(f)(out)


def sub(f, g):
    return add(f, g, -1)


def neg(f):
    return type(f)({r: {e: -c for e, c in p.items()} for r, p in groups(f)})


def scale(f, k):
    k = Fraction(k)
    return type(f)({r: {e: c * k for e, c in p.items()} for r, p in groups(f)} if k else {})


def mul_x(f, k: int = 1):
    return type(f)({r: {(i + k, j): c for (i, j), c in p.items()} for r, p in groups(f)})


def time_antiderivative(f):
    return type(f)({r: {e[:-1] + (e[-1] + 1,): c / (e[-1] + 1) for e, c in p.items()}
                    for r, p in groups(f)})


def tail_integral(f, p: int = 0):
    """int_x^inf y^p f dy: e^{-ax} sum_k (n!/k!) x^k / a^{n-k+1} per term, n = m + p."""
    out: dict = {}
    for a, (m, jt), c in f.terms():
        n = m + p
        tgt = out.setdefault(a, {})
        for k in range(n + 1):
            w = Fraction(math.factorial(n), math.factorial(k)) / a ** (n - k + 1)
            _add_to(tgt, (k, jt), c * w)
        if not tgt:
            del out[a]
    return type(f)(out)
