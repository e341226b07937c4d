"""Exact arithmetic over polynomial-exponential functions.

The whole symbolic layer works inside one function class:

    1-D:  f(x, t) = sum over rates a >= 0 of  e^{-a x} * P_a(x, t)
    2-D:  f(x, y, t) = sum over rate pairs (a, b) of  e^{-a x - b y} * P_ab(x, y, t)

where every P is a sparse polynomial with Fraction coefficients and
nonnegative integer exponents.  This class is closed under addition,
multiplication, the size convolution on [0, x], the tail integral on
[x, inf), full-line moments, and time integration from 0 -- which is all
the iteration engines ever apply.

Representation: a PolyExp stores ``{rate: {exponent_tuple: Fraction}}``,
with exponents ``(xpow, tpow)`` and one rate in 1-D, ``(xpow, ypow, tpow)``
and a rate pair in 2-D.  Zero coefficients and empty rate groups are pruned
on construction, so two values are mathematically equal exactly when their
term maps are equal; the zero function is the empty map.  Every operation
is written once, in ``_PolyExpBase``, over the size axes: a class declares
only its axis count, its exponent and rate names, and how a stored rate
maps to its tuple of per-axis rates.

Products and convolutions run fraction-free.  Coefficients are exact
Fractions at the API, but ``_group_product`` takes each operand's rate
group over one common denominator as integer numerators, pre-scales them
by i! on every size axis that is convolved (the Borel/Laplace trick, which
turns the weight i! j!/(i+j+1)! into a plain product), accumulates the
integer pair products keyed by packed exponents, and normalises once per
output term.  A self-product (both operands the same rate group, as in
every coagulation gain Q(u, u)) loops over i <= j only and counts each
off-diagonal pair twice.  Degree caps are checked on every axis before
the pair loop.  Moments and point values likewise sum each rate group as
integers.

Time substitution is fraction-free too: for t = p/q one integer table
p^j q^(top-j) serves a whole rate group (``collapse_t``) or time
polynomial (``tpoly_eval``), so each x-coefficient or value is one
integer sum over den * q^top instead of a Fraction power per monomial.

Everything is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Iterator, Mapping, Union

import numpy as np

RationalLike = Union[int, str, Fraction]

# Hard cap on any stored exponent.  Product-kernel iterations grow the
# x-degree roughly geometrically, so runaway inputs must fail loudly
# instead of allocating without bound.
MAX_EXPONENT = 512

# Polynomial in t alone: t-exponent -> coefficient.  Moments of PolyExp
# values live here (the x dependence integrates out exactly).
TPoly = dict[int, Fraction]

# n! for every exponent the cap admits.
_FACTORIAL = list(accumulate(range(1, MAX_EXPONENT + 1), mul, initial=1))


class PolyExpError(Exception):
    """Base class for errors raised by the symbolic layer."""


class MixedRatesError(PolyExpError):
    """Convolution met a term pair with two different exponential rates."""


class ZeroRateError(PolyExpError):
    """A full-line integral was requested for a term with rate 0."""


class OutOfClassError(PolyExpError):
    """An operation would leave the polynomial-exponential class."""


class DegreeOverflowError(PolyExpError):
    """An exponent exceeded MAX_EXPONENT."""


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _check_exponent(power: int) -> int:
    if not isinstance(power, int) or power < 0:
        raise OutOfClassError(f"exponents must be nonnegative integers, got {power!r}")
    if power > MAX_EXPONENT:
        raise DegreeOverflowError(f"exponent {power} exceeds cap {MAX_EXPONENT}")
    return power


def _power_table(p: int, q: int, top: int) -> list[int]:
    """``[p^j q^(top-j) for j in 0..top]``: (p/q)^j over the common q^top."""
    ps = accumulate([p] * top, mul, initial=1)
    qs = list(accumulate([q] * top, mul, initial=1))
    return [a * b for a, b in zip(ps, reversed(qs))]


def tpoly_eval(tp: TPoly, t: float) -> float:
    """Evaluate a time polynomial at a float time.

    With t = p/q exactly, the sum is one integer numerator over
    den * q^top, and the one int division rounds correctly, as
    ``float(Fraction)`` does.
    """
    if not tp:
        return 0.0
    p, q = as_fraction(t).as_integer_ratio()
    top = max(tp)
    rows, den = _numerators({(j,): c for j, c in tp.items()}, [_power_table(p, q, top)])
    return sum(num for _, num in rows) / (den * q**top)


def _merge(out: dict, rate, poly: Mapping) -> None:
    """Add ``poly`` into the rate group ``out[rate]``, pruning zeros."""
    tgt = out.setdefault(rate, {})
    for e, c in poly.items():
        s = tgt.get(e, 0) + c
        if s:
            tgt[e] = s
        else:
            tgt.pop(e, None)
    if not tgt:
        del out[rate]


def _numerators(poly: Mapping, tables: list) -> tuple[list, int]:
    """(exponents, numerator) rows of a rate group over one common denominator.

    Each numerator is also multiplied by ``tables[axis][e[axis]]`` on every
    leading axis that has a table.
    """
    den = math.lcm(*(c.denominator for c in poly.values()))
    rows = []
    for e, c in poly.items():
        num = c.numerator * (den // c.denominator)
        for table, i in zip(tables, e):
            num *= table[i]
        rows.append((e, num))
    return rows, den


def _group_product(pa: Mapping, pb: Mapping, borel: int = 0) -> dict:
    """Exact product of two rate groups, computed fraction-free.

    Monomials multiply pairwise and their exponents add, except on the
    first ``borel`` axes, which are convolved on [0, x]: there x^i against
    x^j gives i! j!/(i+j+1)! x^{i+j+1}.  With numerators pre-scaled by i!
    and j! that weight is 1/(i+j+1)!, so the pair loop is one integer
    multiply-add and each output term is normalised once, as
    sum / (La Lb prod (i+j+1)!).  A self-product (``pa is pb``) loops over
    i <= j only.  Every axis is checked against MAX_EXPONENT before any
    pair is formed; checked sums fit the packed fields.
    """
    if not pa or not pb:
        return {}
    nvars = len(next(iter(pa)))
    for axis in range(nvars):
        _check_exponent(
            max(e[axis] for e in pa) + max(e[axis] for e in pb) + int(axis < borel)
        )
    width = MAX_EXPONENT.bit_length()
    shifts = [width * axis for axis in range(nvars)]

    def packed(poly):
        rows, den = _numerators(poly, [_FACTORIAL] * borel)
        return [(sum(i << s for i, s in zip(e, shifts)), n) for e, n in rows], den

    packed_a, den_a = packed(pa)
    acc: defaultdict = defaultdict(int)
    if pa is pb:
        # the pair weight and the exponent sum are symmetric, so each
        # unordered pair is formed once and the off-diagonal ones count twice
        den_b = den_a
        for i, (ka, na) in enumerate(packed_a):
            acc[ka + ka] += na * na
            twice = na + na
            for kb, nb in packed_a[i + 1:]:
                acc[ka + kb] += twice * nb
    else:
        packed_b, den_b = packed(pb)
        for ka, na in packed_a:
            for kb, nb in packed_b:
                acc[ka + kb] += na * nb
    offset = sum(1 << s for s in shifts[:borel])
    mask = (1 << width) - 1
    out = {}
    for key, total in acc.items():
        if total:
            key += offset
            exps = tuple((key >> s) & mask for s in shifts)
            den = den_a * den_b
            for i in exps[:borel]:
                den *= _FACTORIAL[i]
            out[exps] = Fraction(total, den)
    return out


class _PolyExpBase:
    """The algebra, written once over the size axes a subclass declares.

    A subclass sets ``dim``, its exponent names (size axes, then t) and its
    per-axis rate names; a stored rate is the tuple of per-axis rates unless
    ``_axis_rates``/``_stored_rate`` map it otherwise.  Names that
    ``bench/spans.py`` wraps through a class ``__dict__`` stay defined on
    their class, as one-line delegations to the bodies here.
    """

    dim = 0
    _EXPONENTS: tuple = ()
    _RATES: tuple = ()
    _axis_rates = staticmethod(tuple)
    _stored_rate = staticmethod(tuple)

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping) -> None:
        canon: dict = {}
        for rate, poly in terms.items():
            group = {self._canon_exps(e): as_fraction(c) for e, c in poly.items()}
            _merge(canon, self._canon_rate(rate), group)
        object.__setattr__(self, "_terms", canon)

    @classmethod
    def _canon_exps(cls, exps) -> tuple:
        exps = tuple(_check_exponent(p) for p in exps)
        if len(exps) != cls.dim + 1:
            raise OutOfClassError(f"expected {cls.dim + 1} exponents per monomial, got {exps}")
        return exps

    @classmethod
    def _canon_rate(cls, rate):
        axes = tuple(as_fraction(a) for a in cls._axis_rates(rate))
        if len(axes) != cls.dim or min(axes) < 0:
            got = ", ".join(map(str, axes))
            raise OutOfClassError(f"exponential rates must be >= 0, got {got}")
        return cls._stored_rate(axes)

    @classmethod
    def _rate_sum(cls, a, b):
        return cls._stored_rate(tuple(map(add, cls._axis_rates(a), cls._axis_rates(b))))

    def __setattr__(self, name, value):  # pragma: no cover - guards misuse
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- canonical structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return sum(len(p) for p in self._terms.values())

    def rates(self):
        return sorted(self._terms)

    def has_zero_rate(self) -> bool:
        """True when some rate group does not decay along some size axis."""
        return any(0 in self._axis_rates(r) for r in self._terms)

    def terms(self) -> Iterator:
        """Yield (rate, exponents, coefficient) in canonical order."""
        for rate in sorted(self._terms):
            poly = self._terms[rate]
            for exps in sorted(poly):
                yield rate, exps, poly[exps]

    def t_degree(self) -> int:
        """Highest t exponent, or -1 for the zero function."""
        return max((e[-1] for _, e, _ in self.terms()), default=-1)

    def x_degree(self) -> int:
        return max((e[0] for _, e, _ in self.terms()), default=-1)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple((r, tuple(sorted(p.items()))) for r, p in sorted(self._terms.items())))

    def __repr__(self) -> str:
        n = self.term_count()
        return f"{type(self).__name__}({n} terms, rates={self.rates()!r})"

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged: dict = {r: dict(p) for r, p in self._terms.items()}
        for r, p in other._terms.items():
            _merge(merged, r, p)
        return self._wrap(merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap({r: {e: -c for e, c in p.items()} for r, p in self._terms.items()})

    def scale(self, c: RationalLike):
        c = as_fraction(c)
        if c == 0:
            return self._wrap({})
        return self._wrap({r: {e: k * c for e, k in p.items()} for r, p in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        out: dict = {}
        for ra, pa in self._terms.items():
            for rb, pb in other._terms.items():
                _merge(out, self._rate_sum(ra, rb), _group_product(pa, pb))
        return self._wrap(out)

    __rmul__ = __mul__

    def mul_tpoly(self, tp: TPoly):
        """Multiply by a polynomial in t (rates are unchanged)."""
        tgroup = {(0,) * self.dim + (_check_exponent(j),): k for j, k in tp.items()}
        return self._wrap_groups((r, _group_product(p, tgroup)) for r, p in self._terms.items())

    def _convolve(self, other):
        """Convolution on every size axis; all rates must be one and the same."""
        for ra in self._terms:
            for rb in other._terms:
                if ra != rb:
                    raise MixedRatesError(f"convolution of distinct rates {ra} and {rb} "
                                          "is outside the supported closed form")
        return self._wrap_groups((r, _group_product(p, other._terms[r], self.dim))
                                 for r, p in self._terms.items() if r in other._terms)

    def time_antiderivative(self):
        """Integrate from 0 in time, t^j to t^{j+1}/(j+1); the result is 0 at t = 0."""
        return self._wrap({
            r: {e[:-1] + (_check_exponent(e[-1] + 1),): c / (e[-1] + 1) for e, c in p.items()}
            for r, p in self._terms.items()
        })

    # -- integrals, values and the serialised form ---------------------------

    def _moment(self, orders: tuple) -> TPoly:
        """Moment of x^jx [y^jy] f over the size axes, exact in t.

        Each axis gives int_0^inf x^n e^{-ax} dx = n! / a^{n+1}, so every rate
        must be positive.  With a = p/q and D the group's top degree on the
        axis, x^i weighs (i+j)! q^{i+j+1} p^{D-i} over p^{D+j+1}.
        """
        if min(orders) < 0:
            raise OutOfClassError("moment orders must be nonnegative")
        if self.has_zero_rate():
            raise ZeroRateError("moment of a rate-0 term diverges")
        out: dict = {}  # one group under key 0, so that _merge prunes zeros
        for rate in sorted(self._terms):
            poly, tables, den = self._terms[rate], [], 1
            for axis, (j, a) in enumerate(zip(orders, self._axis_rates(rate))):
                top, (p, q) = max(e[axis] for e in poly), a.as_integer_ratio()
                tables.append([math.factorial(i + j) * q ** (i + j + 1) * p ** (top - i)
                               for i in range(top + 1)])
                den *= p ** (top + j + 1)
            rows, cden = _numerators(poly, tables)
            sums: defaultdict = defaultdict(int)
            for e, num in sorted(rows):  # t-exponents in order of first appearance
                sums[e[-1]] += num
            _merge(out, 0, {jt: Fraction(num, cden * den) for jt, num in sums.items()})
        return out.get(0, {})

    def _evaluate(self, *coords: float) -> float:
        """Float value at (size coordinates..., t).

        The float inputs convert exactly, and each rate group's polynomial is
        summed exactly as one integer numerator over one denominator, so the
        only rounding is one division, one exp and one multiply per group:
        relative error is a few ulp per group for |x| <= 100, degree <= 60.
        """
        total, ratios = 0.0, [Fraction(v).as_integer_ratio() for v in coords]
        for rate, poly in self._terms.items():
            tables, den = [], 1
            for axis, (p, q) in enumerate(ratios):
                top = max(e[axis] for e in poly)
                tables.append(_power_table(p, q, top))
                den *= q**top
            rows, cden = _numerators(poly, tables)
            arg = sum(float(a) * v for a, v in zip(self._axis_rates(rate), coords))
            total += sum(num for _, num in rows) / (cden * den) * math.exp(-arg)
        return total

    def _to_obj(self) -> dict:
        """Stable-ordered structured form used by the CLI symbolic dump."""
        groups, keys = [], ("coeff", *self._EXPONENTS)
        for rate in sorted(self._terms):
            monos = [dict(zip(keys, (str(c), *e))) for e, c in sorted(self._terms[rate].items())]
            axes = map(str, self._axis_rates(rate))
            groups.append({**dict(zip(self._RATES, axes)), "monomials": monos})
        return {"dim": self.dim, "terms": groups}

    # -- construction and subclass hooks --------------------------------------

    @classmethod
    def _wrap(cls, canonical: dict):
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", canonical)
        return obj

    @classmethod
    def _wrap_groups(cls, groups):
        """Wrap (rate, group) pairs, dropping empty groups."""
        return cls._wrap({r: p for r, p in groups if p})

    @classmethod
    def zero(cls):
        return cls._wrap({})


class PolyExp1D(_PolyExpBase):
    """Finite sum of terms coeff * x^i * t^j * e^{-a x} with exact coefficients."""

    dim = 1
    _EXPONENTS = ("xpow", "tpow")
    _RATES = ("rate",)
    __slots__ = ()

    @staticmethod
    def _axis_rates(rate) -> tuple:
        return (rate,)

    @staticmethod
    def _stored_rate(axes: tuple) -> Fraction:
        return axes[0]

    @classmethod
    def monomial(cls, coeff: RationalLike, xpow: int = 0, tpow: int = 0,
                 rate: RationalLike = 0) -> "PolyExp1D":
        return cls({rate: {(xpow, tpow): coeff}})

    def mul_x(self, k: int = 1) -> "PolyExp1D":
        """Multiply by x^k."""
        return self._wrap({r: {(_check_exponent(i + k), j): c for (i, j), c in p.items()}
                           for r, p in self._terms.items()})

    def convolve(self, other: "PolyExp1D") -> "PolyExp1D":
        """Size convolution int_0^x f(x-y, t) g(y, t) dy.

        Both operands must carry the same exponential rate wherever term
        pairs meet; for x^i e^{-ax} against x^j e^{-ax} the closed form is
        i! j! / (i+j+1)! * x^{i+j+1} e^{-ax} and t-exponents add.
        """
        return self._convolve(other)

    def moment(self, j: int = 0) -> TPoly:
        """Full-line moment int_0^inf x^j f(x, t) dx, exact in t."""
        return self._moment((j,))

    def tail_integral(self, p: int = 0) -> "PolyExp1D":
        """Tail integral int_x^inf y^p f(y, t) dy as a function of x.

        For x^m e^{-ax} with n = m + p >= 0 the closed form is
        e^{-ax} * sum_{k=0}^{n} (n!/k!) x^k / a^{n-k+1}.
        """
        if self.has_zero_rate():
            raise ZeroRateError("tail integral of a rate-0 term diverges")
        out: dict = {}
        for a, (m, jt), c in self.terms():
            n = m + p
            if n < 0:
                raise OutOfClassError(
                    f"tail integral with power {p} drives x^{m} below degree 0"
                )
            nfac = math.factorial(n)
            _merge(out, a, {
                (k, jt): c * Fraction(nfac, math.factorial(k)) / a ** (n - k + 1)
                for k in range(n + 1)
            })
        return self._wrap(out)

    def collapse_t(self, t: RationalLike) -> dict[Fraction, list[Fraction]]:
        """Substitute an exact time, returning rate -> x-coefficient list.

        With t = p/q, each rate group is taken over one common denominator
        and every x-coefficient is one integer sum over den * q^top.
        """
        p, q = as_fraction(t).as_integer_ratio()
        out: dict[Fraction, list[Fraction]] = {}
        for a, poly in self._terms.items():
            top = max(j for _, j in poly)
            times = _power_table(p, q, top)
            rows, den = _numerators(poly, [])
            sums = [0] * (max(i for i, _ in poly) + 1)
            for (i, j), num in rows:
                sums[i] += num * times[j]
            den *= q**top
            out[a] = [Fraction(num, den) for num in sums]
        return out

    def evaluate(self, x: float, t: float) -> float:
        """Float value at (x, t); see ``_PolyExpBase._evaluate``."""
        return self._evaluate(x, t)

    def eval_grid(self, xs: np.ndarray, t: float) -> np.ndarray:
        """Vectorised float evaluation at many x for one t.

        The time substitution is exact; the x polynomial is then evaluated
        by Horner in float64, which is accurate to ~1e-13 relative of the
        largest intermediate term.
        """
        xs = np.asarray(xs, dtype=float)
        total = np.zeros_like(xs)
        for a, coeffs in self.collapse_t(Fraction(t)).items():
            acc = np.zeros_like(xs)
            for c in reversed(coeffs):
                acc = acc * xs + float(c)
            total += acc * np.exp(-float(a) * xs)
        return total

    def to_obj(self) -> dict:
        return self._to_obj()


class PolyExp2D(_PolyExpBase):
    """Finite sum of terms coeff * x^i y^k t^j * e^{-a x - b y}."""

    dim = 2
    _EXPONENTS = ("xpow", "ypow", "tpow")
    _RATES = ("rate", "yrate")
    __slots__ = ()

    @classmethod
    def monomial(cls, coeff: RationalLike, xpow: int = 0, ypow: int = 0, tpow: int = 0,
                 xrate: RationalLike = 0, yrate: RationalLike = 0) -> "PolyExp2D":
        return cls({(xrate, yrate): {(xpow, ypow, tpow): coeff}})

    def convolve(self, other: "PolyExp2D") -> "PolyExp2D":
        """Double convolution over [0, x] x [0, y].

        Separable: each coordinate contributes the 1-D closed form, so a
        term pair maps to x^{i+i'+1} y^{k+k'+1} with two beta-function
        weights.  Rate pairs must match exactly.
        """
        return self._convolve(other)

    def moment(self, jx: int = 0, jy: int = 0) -> TPoly:
        """Moment int int x^jx y^jy f dx dy, exact polynomial in t."""
        return self._moment((jx, jy))

    def evaluate(self, x: float, y: float, t: float) -> float:
        return self._evaluate(x, y, t)

    def to_obj(self) -> dict:
        return self._to_obj()


PolyExp = Union[PolyExp1D, PolyExp2D]


def from_obj(obj: Mapping) -> PolyExp:
    """Rebuild a PolyExp from the structured form emitted by ``to_obj``."""
    dim = obj.get("dim")
    cls = next((c for c in (PolyExp1D, PolyExp2D) if c.dim == dim), None)
    if cls is None:
        raise OutOfClassError(f"unsupported dim {dim!r} in serialized form")
    terms: dict = {}
    for group in obj["terms"]:
        rate = cls._stored_rate(tuple(Fraction(group[k]) for k in cls._RATES))
        poly = terms.setdefault(rate, {})
        for m in group["monomials"]:
            poly[tuple(m[k] for k in cls._EXPONENTS)] = Fraction(m["coeff"])
    return cls(terms)
