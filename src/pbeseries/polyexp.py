"""Exact arithmetic over polynomial-exponential functions.

The whole symbolic layer works inside one function class:

    1-D:  f(x, t) = sum over rates a >= 0 of  e^{-a x} * P_a(x, t)
    2-D:  f(x, y, t) = sum over rate pairs (a, b) of  e^{-a x - b y} * P_ab(x, y, t)

where every P is a sparse polynomial with Fraction coefficients and
nonnegative integer exponents.  This class is closed under addition,
multiplication, the size convolution on [0, x], the tail integral on
[x, inf), full-line moments, and time integration from 0 -- which is all
the iteration engines ever apply.

Representation: a PolyExp stores ``{rate: {exponent_tuple: Fraction}}``.
Exponent tuples are ``(xpow, tpow)`` in 1-D and ``(xpow, ypow, tpow)`` in
2-D.  Zero coefficients and empty rate groups are pruned on construction,
so two values are mathematically equal exactly when their term maps are
equal; the zero function is the empty map.

Products and convolutions run fraction-free.  Coefficients are exact
Fractions at the API, but ``_group_product`` takes each operand's rate
group over one common denominator as integer numerators, pre-scales them
by i! on every size axis that is convolved (the Borel/Laplace trick, which
turns the weight i! j!/(i+j+1)! into a plain product), accumulates the
integer pair products keyed by packed exponents, and normalises once per
output term.  Degree caps are checked on every axis before that loop.

Everything is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
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


def tpoly_eval(tp: TPoly, t: float) -> float:
    """Evaluate a time polynomial at a float time."""
    tf = Fraction(t)
    acc = Fraction(0)
    for j, c in tp.items():
        acc += c * tf**j
    return float(acc)


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


def _numerators(poly: Mapping, shifts: list, borel: int) -> tuple[list, int]:
    """Packed keys and numerators over one denominator, times i! on Borel axes."""
    den = math.lcm(*(c.denominator for c in poly.values()))
    rows = []
    for e, c in poly.items():
        num = c.numerator * (den // c.denominator)
        for i in e[:borel]:
            num *= math.factorial(i)
        rows.append((sum(i << s for i, s in zip(e, shifts)), num))
    return rows, den


def _group_product(pa: Mapping, pb: Mapping, borel: int = 0) -> dict:
    """Exact product of two rate groups, computed fraction-free.

    Monomials multiply pairwise and their exponents add, except on the
    first ``borel`` axes, which are convolved on [0, x]: there x^i against
    x^j gives i! j!/(i+j+1)! x^{i+j+1}.  With numerators pre-scaled by i!
    and j! that weight is 1/(i+j+1)!, so the pair loop is one integer
    multiply-add and each output term is normalised once, as
    sum / (La Lb prod (i+j+1)!).  Every axis is checked against MAX_EXPONENT
    before any pair is formed; checked sums fit the packed fields.
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
    rows_a, den_a = _numerators(pa, shifts, borel)
    rows_b, den_b = _numerators(pb, shifts, borel)
    acc: defaultdict = defaultdict(int)
    for ka, na in rows_a:
        for kb, nb in rows_b:
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
                den *= math.factorial(i)
            out[exps] = Fraction(total, den)
    return out


class _PolyExpBase:
    """Shared canonicalisation and linear structure of the 1-D/2-D classes."""

    _NVARS = 0  # length of the exponent tuple, set by subclasses

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
        if len(exps) != cls._NVARS:
            raise OutOfClassError(
                f"expected {cls._NVARS} exponents per monomial, got {exps}"
            )
        return exps

    def __setattr__(self, name, value):  # pragma: no cover - guards misuse
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- canonical structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return sum(len(p) for p in self._terms.values())

    def rates(self):
        return sorted(self._terms)

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
        return self.scale(-1)

    def scale(self, c: RationalLike):
        c = as_fraction(c)
        if c == 0:
            return self._wrap({})
        return self._wrap(
            {r: {e: k * c for e, k in p.items()} for r, p in self._terms.items()}
        )

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
        lead = (0,) * (self._NVARS - 1)
        tgroup = {lead + (_check_exponent(j),): k for j, k in tp.items()}
        return self._wrap_groups(
            (r, _group_product(p, tgroup)) for r, p in self._terms.items()
        )

    def _convolve(self, other):
        """Convolution on every size axis; all rates must be one and the same."""
        for ra in self._terms:
            for rb in other._terms:
                if ra != rb:
                    raise MixedRatesError(
                        f"convolution of distinct rates {ra} and {rb} is outside "
                        "the supported closed form"
                    )
        borel = self._NVARS - 1
        return self._wrap_groups(
            (r, _group_product(p, other._terms[r], borel))
            for r, p in self._terms.items()
            if r in other._terms
        )

    def time_antiderivative(self):
        """Integrate from 0 in time: each t^j becomes t^{j+1}/(j+1).

        The result vanishes identically at t = 0.
        """
        out: dict = {}
        t_axis = self._NVARS - 1
        for r, p in self._terms.items():
            tgt = {}
            for e, c in p.items():
                j = e[t_axis]
                _check_exponent(j + 1)
                ee = list(e)
                ee[t_axis] = j + 1
                tgt[tuple(ee)] = c / (j + 1)
            out[r] = tgt
        return self._wrap(out)

    # -- subclass hooks -------------------------------------------------------

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

    @staticmethod
    def _canon_rate(rate):
        raise NotImplementedError

    @staticmethod
    def _rate_sum(a, b):
        raise NotImplementedError


class PolyExp1D(_PolyExpBase):
    """Finite sum of terms coeff * x^i * t^j * e^{-a x} with exact coefficients."""

    _NVARS = 2
    __slots__ = ()

    @staticmethod
    def _canon_rate(rate) -> Fraction:
        a = as_fraction(rate)
        if a < 0:
            raise OutOfClassError(f"exponential rate must be >= 0, got {a}")
        return a

    @staticmethod
    def _rate_sum(a: Fraction, b: Fraction) -> Fraction:
        return a + b

    @classmethod
    def monomial(
        cls,
        coeff: RationalLike,
        xpow: int = 0,
        tpow: int = 0,
        rate: RationalLike = 0,
    ) -> "PolyExp1D":
        return cls({rate: {(xpow, tpow): coeff}})

    def mul_x(self, k: int = 1) -> "PolyExp1D":
        """Multiply by x^k."""
        return self._wrap(
            {
                r: {(_check_exponent(i + k), j): c for (i, j), c in p.items()}
                for r, p in self._terms.items()
            }
        )

    def convolve(self, other: "PolyExp1D") -> "PolyExp1D":
        """Size convolution int_0^x f(x-y, t) g(y, t) dy.

        Both operands must carry the same exponential rate wherever term
        pairs meet; for x^i e^{-ax} against x^j e^{-ax} the closed form is
        i! j! / (i+j+1)! * x^{i+j+1} e^{-ax} and t-exponents add.
        """
        return self._convolve(other)

    def moment(self, j: int = 0) -> TPoly:
        """Full-line moment int_0^inf x^j f(x, t) dx, exact in t.

        Uses int_0^inf x^n e^{-ax} dx = n! / a^{n+1}; every rate must be
        strictly positive or the integral diverges.
        """
        if j < 0:
            raise OutOfClassError("moment order must be nonnegative")
        out: TPoly = {}
        for a, (i, jt), c in self.terms():
            if a == 0:
                raise ZeroRateError("moment of a rate-0 term diverges")
            val = c * Fraction(math.factorial(i + j)) / a ** (i + j + 1)
            s = out.get(jt, Fraction(0)) + val
            if s == 0:
                out.pop(jt, None)
            else:
                out[jt] = s
        return out

    def tail_integral(self, p: int = 0) -> "PolyExp1D":
        """Tail integral int_x^inf y^p f(y, t) dy as a function of x.

        For x^m e^{-ax} with n = m + p >= 0 the closed form is
        e^{-ax} * sum_{k=0}^{n} (n!/k!) x^k / a^{n-k+1}.
        """
        out: dict = {}
        for a, (m, jt), c in self.terms():
            if a == 0:
                raise ZeroRateError("tail integral of a rate-0 term diverges")
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
        """Substitute an exact time, returning rate -> x-coefficient list."""
        tf = as_fraction(t)
        out: dict[Fraction, list[Fraction]] = {}
        for a, p in self._terms.items():
            deg = max(i for i, _ in p)
            coeffs = [Fraction(0)] * (deg + 1)
            for (i, j), c in p.items():
                coeffs[i] += c * tf**j
            out[a] = coeffs
        return out

    def evaluate(self, x: float, t: float) -> float:
        """Float value at (x, t).

        The polynomial part is accumulated exactly in rational arithmetic
        (the float inputs convert exactly), so the only rounding is one
        float conversion, one exp and one multiply per rate group:
        relative error is a few ulp per group for |x| <= 100, degree <= 60.
        """
        xf = Fraction(x)
        tf = Fraction(t)
        total = 0.0
        for a, p in self._terms.items():
            acc = Fraction(0)
            for (i, j), c in p.items():
                acc += c * xf**i * tf**j
            total += float(acc) * math.exp(-float(a) * x)
        return total

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
        """Stable-ordered structured form used by the CLI symbolic dump."""
        groups = []
        for a in sorted(self._terms):
            monos = [
                {"coeff": str(c), "xpow": i, "tpow": j}
                for (i, j), c in sorted(self._terms[a].items())
            ]
            groups.append({"rate": str(a), "monomials": monos})
        return {"dim": 1, "terms": groups}


class PolyExp2D(_PolyExpBase):
    """Finite sum of terms coeff * x^i y^k t^j * e^{-a x - b y}."""

    _NVARS = 3
    __slots__ = ()

    @staticmethod
    def _canon_rate(rate) -> tuple[Fraction, Fraction]:
        a, b = rate
        a = as_fraction(a)
        b = as_fraction(b)
        if a < 0 or b < 0:
            raise OutOfClassError(f"exponential rates must be >= 0, got ({a}, {b})")
        return (a, b)

    @staticmethod
    def _rate_sum(a, b):
        return (a[0] + b[0], a[1] + b[1])

    @classmethod
    def monomial(
        cls,
        coeff: RationalLike,
        xpow: int = 0,
        ypow: int = 0,
        tpow: int = 0,
        xrate: RationalLike = 0,
        yrate: RationalLike = 0,
    ) -> "PolyExp2D":
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
        if jx < 0 or jy < 0:
            raise OutOfClassError("moment orders must be nonnegative")
        out: TPoly = {}
        for (a, b), (i, k, jt), c in self.terms():
            if a == 0 or b == 0:
                raise ZeroRateError("moment of a rate-0 term diverges")
            val = (
                c
                * Fraction(math.factorial(i + jx))
                / a ** (i + jx + 1)
                * Fraction(math.factorial(k + jy))
                / b ** (k + jy + 1)
            )
            s = out.get(jt, Fraction(0)) + val
            if s == 0:
                out.pop(jt, None)
            else:
                out[jt] = s
        return out

    def evaluate(self, x: float, y: float, t: float) -> float:
        xf, yf, tf = Fraction(x), Fraction(y), Fraction(t)
        total = 0.0
        for (a, b), p in self._terms.items():
            acc = Fraction(0)
            for (i, k, j), c in p.items():
                acc += c * xf**i * yf**k * tf**j
            total += float(acc) * math.exp(-float(a) * x - float(b) * y)
        return total

    def to_obj(self) -> dict:
        groups = []
        for (a, b) in sorted(self._terms):
            monos = [
                {"coeff": str(c), "xpow": i, "ypow": k, "tpow": j}
                for (i, k, j), c in sorted(self._terms[(a, b)].items())
            ]
            groups.append({"rate": str(a), "yrate": str(b), "monomials": monos})
        return {"dim": 2, "terms": groups}


PolyExp = Union[PolyExp1D, PolyExp2D]


def from_obj(obj: Mapping) -> PolyExp:
    """Rebuild a PolyExp from the structured form emitted by ``to_obj``."""
    dim = obj.get("dim")
    if dim == 1:
        terms: dict = {}
        for group in obj["terms"]:
            rate = Fraction(group["rate"])
            poly = terms.setdefault(rate, {})
            for m in group["monomials"]:
                poly[(m["xpow"], m["tpow"])] = Fraction(m["coeff"])
        return PolyExp1D(terms)
    if dim == 2:
        terms2: dict = {}
        for group in obj["terms"]:
            rate = (Fraction(group["rate"]), Fraction(group["yrate"]))
            poly = terms2.setdefault(rate, {})
            for m in group["monomials"]:
                poly[(m["xpow"], m["ypow"], m["tpow"])] = Fraction(m["coeff"])
        return PolyExp2D(terms2)
    raise OutOfClassError(f"unsupported dim {dim!r} in serialized form")
