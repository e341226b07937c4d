"""Exact arithmetic over polynomial-exponential functions.

The whole symbolic layer works inside one function class:

    1-D:  f(x, t) = sum over rates a >= 0 of  e^{-a x} * P_a(x, t)
    2-D:  f(x, y, t) = sum over rate pairs (a, b) of  e^{-a x - b y} * P_ab(x, y, t)

where every P is a sparse polynomial with exact rational coefficients and
nonnegative integer exponents.  This class is closed under addition,
multiplication, the size convolution on [0, x], the tail integral on
[x, inf), full-line moments, and time integration from 0 -- which is all
the iteration engines ever apply.

Representation: a PolyExp stores ``{rate: (den, {exponent_tuple: int})}``,
with exponents ``(xpow, tpow)`` and rate ``((p, q),)`` in 1-D,
``(xpow, ypow, tpow)`` and ``((p, q), (p', q'))`` in 2-D: a rate is one
reduced integer pair per size axis, and each rate group is one denominator
over integer numerators, kept canonical (den > 0, gcd(den, *numerators)
== 1, no zero numerator, no empty group), so two values are mathematically
equal exactly when their term maps are equal; the zero function is the
empty map.  Fractions live only at the API edge, for rates as for
coefficients: the constructor takes them and ``rates()``, ``terms()``,
``moment``, ``collapse_t`` and ``to_obj`` give them.  Pairs do not sort by
value ((1, 2) < (1, 3)), so ordered outputs sort by the API form.  Every
operation is written once, in ``_PolyExpBase``, over the size axes.

All arithmetic is on integers with one gcd per output group: a sum takes
one lcm of the two denominators, and scaling, time integration and the
tail integral rescale numerators and denominator.  ``_group_product``
pre-scales numerators by i! on every size axis that is convolved (the
Borel/Laplace trick, which turns the weight i! j!/(i+j+1)! into a plain
product), accumulates the pair products keyed by packed exponents, and
puts the group over den_a den_b top!.  A self-product (both operands the
same rate group, as in every coagulation gain Q(u, u)) loops over i <= j
only.  Degree caps are checked on every axis before the pair loop.  One
substitution, ``_substitute``, serves time polynomials, ``collapse_t`` and
point values: for p/q one integer table p^j q^(top-j) serves a whole group.

Everything is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, product
from operator import mul
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


def _substitute(nums: Mapping, den: int, value) -> tuple[defaultdict, int]:
    """The group (den, nums) with value = p/q put into each key's last exponent.

    With top the highest last exponent, the group goes over den q^top and
    k v^j becomes k p^j q^(top-j), keyed by the rest of its key.
    """
    p, q = as_fraction(value).as_integer_ratio()
    top = max((e[-1] for e in nums), default=0)
    table, out = _power_table(p, q, top), defaultdict(int)
    for e, n in nums.items():
        out[e[:-1]] += n * table[e[-1]]
    return out, den * q**top


def tpoly_eval(tp: TPoly, t: float) -> float:
    """Evaluate a time polynomial at a float time, summed exactly and rounded once.

    The one int division rounds correctly, as ``float(Fraction)`` does.
    """
    den, nums = _over_lcm(tp)
    sums, den = _substitute({(j,): n for j, n in nums.items()}, den, t)
    return sums[()] / den


def _over_lcm(poly: Mapping) -> tuple[int, dict]:
    """Nonzero exact coefficients as (den, {key: numerator}) over their lcm denominator."""
    poly = {e: c for e, c in poly.items() if c}
    den = math.lcm(*(c.denominator for c in poly.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in poly.items()}


def _reduced(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) with their common factor divided out; den > 0, nums nonempty."""
    g = math.gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {e: n // g for e, n in nums.items()}


def _merge(out: dict, rate, group: tuple) -> None:
    """Add the canonical group (den, nums) into ``out[rate]``, pruning zeros."""
    old = out.get(rate)
    if old is None:
        out[rate] = group
        return
    (da, na), (db, nb) = old, group
    den = math.lcm(da, db)
    sa, sb = den // da, den // db
    nums = {e: n * sa for e, n in na.items()}
    for e, n in nb.items():
        s = nums.get(e, 0) + n * sb
        if s:
            nums[e] = s
        else:
            del nums[e]
    if nums:
        out[rate] = _reduced(den, nums)
    else:
        del out[rate]


def _rate_sum(a: tuple, b: tuple) -> tuple:
    """The stored rate of a product: the pairs add axis by axis, reduced."""
    sums = [(pa * qb + pb * qa, qa * qb) for (pa, qa), (pb, qb) in zip(a, b)]
    return tuple((p // math.gcd(p, q), q // math.gcd(p, q)) for p, q in sums)


def _group_product(ga: tuple, gb: tuple, borel: int = 0):
    """Exact product of two rate groups (den, nums) on integers; None if it is 0.

    Monomials multiply pairwise and their exponents add, except on the
    first ``borel`` axes, which are convolved on [0, x]: there x^i against
    x^j gives i! j!/(i+j+1)! x^{i+j+1}.  With numerators pre-scaled by i!
    and j! that weight is 1/(i+j+1)!, so the pair loop is one integer
    multiply-add; the group then goes over Da Db prod top! with a top!/k!
    factor per term and one gcd.  A self-product (``ga is gb``) loops over
    i <= j only.  Every axis is checked against MAX_EXPONENT before any
    pair is formed; checked sums fit the packed fields.
    """
    (den_a, pa), (den_b, pb) = ga, gb
    if not pa or not pb:
        return None
    nvars = len(next(iter(pa)))
    tops = [_check_exponent(max(e[axis] for e in pa) + max(e[axis] for e in pb)
                            + int(axis < borel)) for axis in range(nvars)]
    width = MAX_EXPONENT.bit_length()
    shifts = [width * axis for axis in range(nvars)]

    def packed(nums):
        rows = []
        for e, n in nums.items():
            for i in e[:borel]:
                n *= _FACTORIAL[i]
            rows.append((sum(i << s for i, s in zip(e, shifts)), n))
        return rows

    packed_a = packed(pa)
    acc: defaultdict = defaultdict(int)
    if ga is gb:
        # the pair weight and the exponent sum are symmetric, so each
        # unordered pair is formed once and the off-diagonal ones count twice
        for i, (ka, na) in enumerate(packed_a):
            acc[ka + ka] += na * na
            twice = na + na
            for kb, nb in packed_a[i + 1:]:
                acc[ka + kb] += twice * nb
    else:
        packed_b = packed(pb)
        for ka, na in packed_a:
            for kb, nb in packed_b:
                acc[ka + kb] += na * nb
    offset = sum(1 << s for s in shifts[:borel])
    mask = (1 << width) - 1
    den = den_a * den_b * math.prod(_FACTORIAL[top] for top in tops[:borel])
    # ratios[axis][k] = top!/k!
    ratios = [list(accumulate(range(top, 0, -1), mul, initial=1))[::-1] for top in tops[:borel]]
    nums = {}
    for key, total in acc.items():
        if total:
            key += offset
            exps = tuple((key >> s) & mask for s in shifts)
            for ratio, i in zip(ratios, exps):
                total *= ratio[i]
            nums[exps] = total
    return _reduced(den, nums) if nums else None


class _PolyExpBase:
    """The algebra, written once over the size axes a subclass declares.

    A subclass sets only ``dim``, its exponent names (size axes, then t) and
    its per-axis rate names: rates are integer pairs in both classes, so no
    hook maps them.  Names that ``bench/spans.py`` wraps through a class
    ``__dict__`` stay defined on their class, as one-line delegations.
    """

    dim = 0
    _EXPONENTS: tuple = ()
    _RATES: tuple = ()

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping) -> None:
        canon: dict = {}
        for rate, poly in terms.items():
            den, nums = _over_lcm({self._canon_exps(e): as_fraction(c) for e, c in poly.items()})
            if nums:
                _merge(canon, self._canon_rate(rate), (den, nums))
        object.__setattr__(self, "_terms", canon)

    @classmethod
    def _canon_exps(cls, exps) -> tuple:
        exps = tuple(_check_exponent(p) for p in exps)
        if len(exps) != cls.dim + 1:
            raise OutOfClassError(f"expected {cls.dim + 1} exponents per monomial, got {exps}")
        return exps

    @classmethod
    def _canon_rate(cls, rate) -> tuple:
        """The stored form of an API rate: one reduced (p, q) per size axis."""
        axes = tuple(map(as_fraction, rate)) if cls.dim > 1 else (as_fraction(rate),)
        if len(axes) != cls.dim or min(axes) < 0:
            got = ", ".join(map(str, axes))
            raise OutOfClassError(f"exponential rates must be >= 0, got {got}")
        return tuple(a.as_integer_ratio() for a in axes)

    @classmethod
    def _api_rate(cls, rate: tuple):
        """A stored rate in its API form: a Fraction in 1-D, a tuple of Fractions in 2-D."""
        axes = [Fraction(p, q) for p, q in rate]
        return tuple(axes) if cls.dim > 1 else axes[0]

    def _by_value(self) -> list:
        """(API rate, stored rate) of every group, in order of rate value."""
        return sorted((self._api_rate(r), r) for r in self._terms)

    def __setattr__(self, name, value):  # pragma: no cover - guards misuse
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- canonical structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return sum(len(nums) for _, nums in self._terms.values())

    def rates(self):
        return [rate for rate, _ in self._by_value()]

    def has_zero_rate(self) -> bool:
        """True when some rate group does not decay along some size axis."""
        return any(p == 0 for r in self._terms for p, _ in r)

    def terms(self) -> Iterator:
        """Yield (rate, exponents, coefficient) in canonical order."""
        for rate, key in self._by_value():
            den, nums = self._terms[key]
            for exps in sorted(nums):
                yield rate, exps, Fraction(nums[exps], den)

    def t_degree(self) -> int:
        """Highest t exponent, or -1 for the zero function."""
        return max((e[-1] for _, nums in self._terms.values() for e in nums), default=-1)

    def x_degree(self) -> int:
        return max((e[0] for _, nums in self._terms.values() for e in nums), default=-1)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple((r, d, tuple(sorted(n.items())))
                          for r, (d, n) in sorted(self._terms.items())))

    def __repr__(self) -> str:
        n = self.term_count()
        return f"{type(self).__name__}({n} terms, rates={self.rates()!r})"

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self._terms)
        for r, group in other._terms.items():
            _merge(merged, r, group)
        return self._wrap(merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap({r: (d, {e: -n for e, n in nums.items()})
                           for r, (d, nums) in self._terms.items()})

    def scale(self, c: RationalLike):
        p, q = as_fraction(c).as_integer_ratio()
        if p == 0:
            return self._wrap({})
        return self._wrap({r: _reduced(d * q, {e: n * p for e, n in nums.items()})
                           for r, (d, nums) in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        out: dict = {}
        for ra, ga in self._terms.items():
            for rb, gb in other._terms.items():
                group = _group_product(ga, gb)
                if group:
                    _merge(out, _rate_sum(ra, rb), group)
        return self._wrap(out)

    __rmul__ = __mul__

    def mul_tpoly(self, tp: TPoly):
        """Multiply by a polynomial in t (rates are unchanged)."""
        tgroup = _over_lcm({(0,) * self.dim + (_check_exponent(j),): as_fraction(k)
                            for j, k in tp.items()})
        return self._wrap_groups((r, _group_product(g, tgroup)) for r, g in self._terms.items())

    def _convolve(self, other):
        """Convolution on every size axis; all rates must be one and the same."""
        for ra in self._terms:
            for rb in other._terms:
                if ra != rb:
                    ra, rb = self._api_rate(ra), self._api_rate(rb)
                    raise MixedRatesError(f"convolution of distinct rates {ra} and {rb} "
                                          "is outside the supported closed form")
        return self._wrap_groups((r, _group_product(p, other._terms[r], self.dim))
                                 for r, p in self._terms.items() if r in other._terms)

    def time_antiderivative(self):
        """Integrate from 0 in time, t^j to t^{j+1}/(j+1); the result is 0 at t = 0."""
        out = {}
        for r, (d, nums) in self._terms.items():
            lcm = math.lcm(*(e[-1] + 1 for e in nums))
            out[r] = _reduced(d * lcm, {e[:-1] + (_check_exponent(e[-1] + 1),):
                                        n * (lcm // (e[-1] + 1)) for e, n in nums.items()})
        return self._wrap(out)

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
        for _, rate in self._by_value():
            den, poly = self._terms[rate]
            tables = []
            for axis, (j, (p, q)) in enumerate(zip(orders, rate)):
                top = max(e[axis] for e in poly)
                tables.append([math.factorial(i + j) * q ** (i + j + 1) * p ** (top - i)
                               for i in range(top + 1)])
                den *= p ** (top + j + 1)
            sums: defaultdict = defaultdict(int)
            for e, num in sorted(poly.items()):  # t-exponents in order of first appearance
                for table, i in zip(tables, e):
                    num *= table[i]
                sums[e[-1]] += num
            sums = {jt: num for jt, num in sums.items() if num}
            if sums:
                _merge(out, 0, (den, sums))
        den, sums = out.get(0, (1, {}))
        return {jt: Fraction(num, den) for jt, num in sums.items()}

    def _evaluate(self, axes: list, t: float) -> list[float]:
        """Float values at time t on the outer grid of the size ``axes``, first axis slowest.

        Inputs convert exactly and each rate group sums one integer numerator
        over one denominator, so a point rounds once per group in a division,
        an exp and a multiply: a few ulp for |x| <= 100, degree <= 60.  A group
        substitutes t once, then each size axis, last first, once per point of
        the axes after it; the axis just substituted varies slowest.
        """
        points = list(product(*axes))
        totals = [0.0] * len(points)
        for rate, (den, poly) in self._terms.items():
            level = [(poly, den)]
            for coords in [[t], *reversed(axes)]:
                level = [_substitute(nums, d, v) for v in coords for nums, d in level]
            for k, (point, (value, d)) in enumerate(zip(points, level)):
                arg = sum(p / q * v for (p, q), v in zip(rate, point))
                totals[k] += value[()] / d * math.exp(-arg)
        return totals

    def _to_obj(self) -> dict:
        """Stable-ordered structured form used by the CLI symbolic dump."""
        groups, keys = [], ("coeff", *self._EXPONENTS)
        for api, rate in self._by_value():
            den, nums = self._terms[rate]
            monos = [dict(zip(keys, (str(Fraction(n, den)), *e))) for e, n in sorted(nums.items())]
            axes = api if self.dim > 1 else (api,)
            groups.append({**dict(zip(self._RATES, map(str, axes))), "monomials": monos})
        return {"dim": self.dim, "terms": groups}

    # -- construction ------------------------------------------------------

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

    @classmethod
    def monomial(cls, coeff: RationalLike, xpow: int = 0, tpow: int = 0,
                 rate: RationalLike = 0) -> "PolyExp1D":
        return cls({rate: {(xpow, tpow): coeff}})

    def mul_x(self, k: int = 1) -> "PolyExp1D":
        """Multiply by x^k."""
        return self._wrap({r: (d, {(_check_exponent(i + k), j): n for (i, j), n in nums.items()})
                           for r, (d, nums) in self._terms.items()})

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
        With a = P/Q and N the group's top n, the group goes over den P^{N+1},
        and the k-th term of x^m weighs (n!/k!) Q^r P^{N+1-r}, r = n-k+1.
        """
        if self.has_zero_rate():
            raise ZeroRateError("tail integral of a rate-0 term diverges")
        out: dict = {}
        for _, a in self._by_value():
            den, poly = self._terms[a]
            if (low := min(m for m, _ in poly)) + p < 0:
                raise OutOfClassError(f"tail integral with power {p} drives x^{low} "
                                      "below degree 0")
            top, ((pa, qa),) = max(m for m, _ in poly) + p, a
            weights = [qa**r * pa ** (top + 1 - r) for r in range(top + 2)]
            nums: defaultdict = defaultdict(int)
            for (m, jt), num in poly.items():
                n = m + p
                ratio = math.factorial(n)  # n!/k!
                for k in range(n + 1):
                    nums[k, jt] += num * ratio * weights[n - k + 1]
                    ratio //= k + 1
            nums = {e: n for e, n in nums.items() if n}
            if nums:
                out[a] = _reduced(den * pa ** (top + 1), nums)
        return self._wrap(out)

    def collapse_t(self, t: RationalLike) -> dict[Fraction, list[Fraction]]:
        """Substitute an exact time, returning rate -> x-coefficient list."""
        out: dict[Fraction, list[Fraction]] = {}
        for rate, (den, poly) in self._terms.items():
            sums, den = _substitute(poly, den, t)
            top, = max(sums)
            out[self._api_rate(rate)] = [Fraction(sums[i,], den) for i in range(top + 1)]
        return out

    def evaluate(self, x: float, t: float) -> float:
        """Float value at (x, t); see ``_PolyExpBase._evaluate``."""
        return self._evaluate([[x]], t)[0]

    @np.errstate(over="ignore", invalid="ignore")  # an overflow prints as inf or nan, not a warning
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
        return self._evaluate([[x], [y]], t)[0]

    def evaluate_grid(self, xs, ys, t: float) -> list[float]:
        """``evaluate`` at every (x, y) of xs x ys, x-major, bit for bit."""
        return self._evaluate([xs, ys], t)

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
        rate = tuple(Fraction(group[k]) for k in cls._RATES)
        poly = terms.setdefault(rate if cls.dim > 1 else rate[0], {})
        for m in group["monomials"]:
            poly[tuple(m[k] for k in cls._EXPONENTS)] = Fraction(m["coeff"])
    return cls(terms)
