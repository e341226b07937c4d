"""Exact arithmetic over polynomial-exponential functions.

The whole symbolic layer works inside one function class:

    1-D:  f(x, t) = sum over rates a >= 0 of  e^{-a x} * P_a(x, t)
    2-D:  f(x, y, t) = sum over rate pairs (a, b) of  e^{-a x - b y} * P_ab(x, y, t)

where every P is a sparse polynomial with exact rational coefficients and
nonnegative integer exponents.  This class is closed under addition,
scaling, multiplication by x^k or by a polynomial in t, the size
convolution on [0, x], the tail integral on [x, inf), full-line moments,
and time integration from 0 -- which is all the iteration engines ever
apply.

Representation: a PolyExp stores ``{rate: (den, {key: int})}``.  A rate is
one reduced integer pair per size axis.  A key packs a monomial's exponents
into one integer, ``_W = MAX_EXPONENT.bit_length()`` bits per field, x | t <<
_W in 1-D and x | y << _W | t << 2 _W in 2-D: monomials multiply by adding keys,
x^k and t^1 add a constant, and a field reads by shift and mask.  Each
operation checks the degree cap once per group before a key moves, so no
field carries into the next.  A rate group is one denominator over integer
numerators, kept canonical (den > 0, gcd(den, *numerators) == 1, no zero
numerator, no empty group), so two values are equal exactly when their term
maps are; the zero function is the empty map.  Exponent tuples and
Fractions live only at the API edge: the constructor, ``monomial`` and
``from_obj`` take them, ``rates()``, ``terms()``, ``moment`` and ``to_obj``
give them, ordered by rate value (pairs do not sort by value) and by
exponent tuple.  ``collapse_t`` gives a reduced integer group per
x-polynomial.  Every operation is written once, in ``_PolyExpBase``.

All arithmetic is on integers with one gcd per output group.
``_group_product`` forms products and convolutions: pre-scaling by i! on
each convolved axis (the Borel/Laplace trick) makes the weight
i! j!/(i+j+1)! a plain product, and the pairs sum by the pair loop or,
where that does less work, one big-integer product per pair of packed
columns (Kronecker substitution); the degree cap and ``WORK_BUDGET`` are
checked before any pair is formed.  One substitution, ``_substitute``,
serves time polynomials, ``collapse_t`` and point values: for p/q one
integer table p^j q^(top-j) serves a whole group.

Everything is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, product
from operator import itemgetter, mul, truediv
from typing import Callable, Iterator, Mapping, Union

RationalLike = Union[int, str, Fraction]

# Hard caps on any stored exponent and on one product's pair-bit work (its term
# pairs times each operand's mean Borel-scaled numerator bits), both checked
# before the work: ahpetm iterations square their way past either within an
# order or two, and must fail at once.  No benchmark product takes over 6.7e10.
MAX_EXPONENT = 512
WORK_BUDGET = 2**44

# Polynomial in t alone: t-exponent -> coefficient.  Moments of PolyExp
# values live here (the x dependence integrates out exactly).
TPoly = dict[int, Fraction]

# n! for every exponent the cap admits.
_FACTORIAL = list(accumulate(range(1, MAX_EXPONENT + 1), mul, initial=1))

# Bits per exponent field of a packed key, and one field's mask.
_W = MAX_EXPONENT.bit_length()
_MASK = (1 << _W) - 1


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


class WorkBudgetError(PolyExpError):
    """A product's pair-bit work would pass WORK_BUDGET."""


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


def _substitute(nums: Mapping, den: int, value, shift: int) -> tuple:
    """The group (den, nums) with value = p/q put into each key's top field, at ``shift``.

    With top the highest exponent there, the group goes over den q^top and
    k v^j becomes k p^j q^(top-j), keyed by the fields below; at shift 0 the
    numerators sum to one integer.
    """
    p, q = (value if isinstance(value, (int, float)) else as_fraction(value)).as_integer_ratio()
    top = max(nums, default=0) >> shift
    table, low = _power_table(p, q, top), (1 << shift) - 1
    if not shift:  # the one field left: one sum
        return sum(map(mul, nums.values(), map(table.__getitem__, nums))), den * q**top
    out = defaultdict(int)
    for key, n in nums.items():
        out[key & low] += n * table[key >> shift]
    return out, den * q**top


def tpoly_function(tp: TPoly) -> Callable[[float], float]:
    """A time polynomial put over one denominator once, as a function of float time;
    each value sums exactly and rounds once, as ``float(Fraction)``."""
    den, nums = _over_lcm(tp)
    return lambda t: truediv(*_substitute(nums, den, t, 0))


def ratio_times_exp(num: int, den: int, arg: float) -> float:
    """num / den * e^{-arg} as a float, also where num / den alone is past the float range."""
    try:
        return num / den * math.exp(-arg)
    except OverflowError:  # num/den = m 2^e is past the float range, so e > 1000
        e = abs(num).bit_length() - den.bit_length()
        m, decay = num / (den << e), math.exp(-arg)
        return (math.ldexp(m * decay, e) if decay >= 2.0**-1022
                else m * math.exp(e * math.log(2) - arg))  # decay underflows


def _top(nums, shift: int) -> int:
    """The highest exponent in the field at ``shift`` of a group's keys."""
    return max(map((_MASK << shift).__and__, nums)) >> shift


def _over_lcm(poly: Mapping) -> tuple[int, dict]:
    """Nonzero exact coefficients as (den, {key: numerator}) over their lcm denominator."""
    poly = {e: c for e, c in poly.items() if c}
    den = math.lcm(*(c.denominator for c in poly.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in poly.items()}


def _reduced(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) with their common factor divided out; den > 0, nums nonempty."""
    g = math.gcd(den, *nums.values())
    return (den, nums) if g == 1 else (den // g, {e: n // g for e, n in nums.items()})


def _merge(out: dict, rate, group: tuple) -> None:
    """Add the canonical group (den, nums) into ``out[rate]``, pruning zeros."""
    old = out.get(rate)
    if old is None:
        out[rate] = group
        return
    (da, na), (db, nb) = old, group
    den = math.lcm(da, db)
    sa, sb = den // da, den // db
    nums = dict(na) if sa == 1 else {e: n * sa for e, n in na.items()}
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


# Products with more term pairs than this may multiply packed columns
# (``_packed_sums``); below it, splitting the operands into columns costs
# more than the pairs, and the pair loop always runs.
_PACKED_MIN_PAIRS = 1024


def _columns(rows: list, xunit: int) -> dict:
    """Rows (key, n) split into columns, {key - x xunit: {x: n}} with x = key & _MASK.

    A column holds t fixed, and a size axis after x at a fixed excess over
    x, so that the diagonal x^i y^i terms of a 2-D value share one.  Column
    keys add as keys do, and key + x xunit is a term's key again, so a
    column key that stood for two columns would still be exact.
    """
    cols: defaultdict = defaultdict(dict)
    for key, n in rows:
        x = key & _MASK
        cols[key - x * xunit][x] = n
    return cols


def _cofactors(col: dict) -> tuple:
    """A column {x: n} over its content: (lo, content, cofactors dense from x^lo, count, bits).

    The content is the positive gcd, count the number of nonzero entries and
    bits the largest cofactor's bit length.
    """
    content, lo = math.gcd(*col.values()), min(col)
    cofactors = [col.get(x, 0) // content for x in range(lo, max(col) + 1)]
    return lo, content, cofactors, len(col), max(map(abs, cofactors)).bit_length()


def _packed_sums(rows_a: list, rows_b: list, same: bool, pairs: int, raw_a: float,
                 raw_b: float, xunit: int):
    """The pair loop's sums by one integer product per column pair; None where that costs more.

    Each column goes along x into one integer, a cofactor per W-bit slot.
    The products that land in one output column are summed packed, each
    times its contents' product over the gcd of all of them, and W bounds
    every slot of that sum: it is unpacked once, with signed slots.  The
    loop wins when a column pair stands for few term pairs, or when the
    slots (W bits, over the column spans) outweigh the raw numerators.
    """
    split_a = _columns(rows_a, xunit)
    split_b = split_a if same else _columns(rows_b, xunit)
    count = len(split_a) * (len(split_a) + 1) // 2 if same else len(split_a) * len(split_b)
    if pairs < 32 * count:
        return None  # too few term pairs per column pair
    cols_a = {key: _cofactors(col) for key, col in split_a.items()}
    cols_b = cols_a if same else {key: _cofactors(col) for key, col in split_b.items()}
    items_a, items_b = list(cols_a.items()), list(cols_b.items())
    spans_a, spans_b = ([len(col[2]) for _, col in items] for items in (items_a, items_b))
    slots = ((sum(spans_a) ** 2 + sum(s * s for s in spans_a)) // 2 if same
             else sum(spans_a) * sum(spans_b))

    def cheaper(width):  # the slots' bit work against the raw pairs', within a factor 2
        return slots * width * width <= 2 * pairs * raw_a * raw_b

    if not cheaper(max(c[4] for _, c in items_a) + max(c[4] for _, c in items_b)):
        return None  # even a W of the widest cofactors' bits together costs more
    plan: defaultdict = defaultdict(list)  # output column -> [(scale, lo, a, b, bits)]
    for i, (ka, (lo_a, g_a, _, n_a, bits_a)) in enumerate(items_a):
        for kb, (lo_b, g_b, _, n_b, bits_b) in items_b[i:] if same else items_b:
            # a self-product's off-diagonal column pairs count twice
            scale = g_a * g_b << (same and ka != kb)
            bits = bits_a + bits_b + min(n_a, n_b).bit_length()
            plan[ka + kb].append((scale, lo_a + lo_b, ka, kb, bits))
    # a product's slot sums at most count terms under 2^(bits_a + bits_b), so it is
    # under 2^bits; W adds the scale's bits, the number of products and a sign bit
    contents, width = {}, 0
    for key, products in plan.items():
        g = contents[key] = math.gcd(*(scale for scale, *_ in products))
        width = max(width, len(products).bit_length() + 1
                    + max(bits + (scale // g).bit_length() for scale, _, _, _, bits in products))
    if not cheaper(width):
        return None

    def packed(cols):
        out = {}
        for key, (_, _, cofactors, _, _) in cols.items():
            out[key] = 0
            for c in reversed(cofactors):
                out[key] = (out[key] << width) + c
        return out

    packed_a = packed(cols_a)
    packed_b = packed_a if same else packed(cols_b)
    slot_mask, half = (1 << width) - 1, 1 << (width - 1)
    acc = {}
    for key, products in plan.items():
        g, lo = contents[key], min(lo for _, lo, *_ in products)
        total = sum(packed_a[a] * packed_b[b] * (scale // g) << width * (start - lo)
                    for scale, start, a, b, _ in products)
        at = key + lo * xunit
        while total:
            slot = total & slot_mask
            slot -= (slot >= half) << width
            if slot:
                acc[at] = slot * g
            total = (total - slot) >> width
            at += xunit
    return acc


def _group_product(ga: tuple, gb: tuple, dim: int, borel: int = 0):
    """Exact product of two rate groups (den, nums) of ``dim`` size axes; None if it is 0.

    Monomials multiply pairwise and their keys add, except on the first
    ``borel`` fields, which are convolved on [0, x]: x^i against x^j gives
    i! j!/(i+j+1)! x^{i+j+1}.  With numerators pre-scaled by i! and j! each
    pair is one integer multiply-add (``_packed_sums`` or the pair loop);
    the group goes over Da Db prod top! with a top!/k! factor per term.  A
    self-product (``ga is gb``) forms each unordered pair once.  Every field
    is checked before any pair is formed, so the sums fit their fields, and
    so is the pair-bit work against ``WORK_BUDGET``.
    """
    (den_a, pa), (den_b, pb) = ga, gb
    if not pa or not pb:
        return None
    shifts = range(0, _W * (dim + 1), _W)
    tops = [_check_exponent(_top(pa, s) + _top(pb, s) + (s < _W * borel)) for s in shifts]
    convolved = shifts[:borel]

    def scaled(nums):
        rows = list(nums.items())
        for s in convolved:
            rows = [(key, n * _FACTORIAL[(key >> s) & _MASK]) for key, n in rows]
        return rows

    same = ga is gb
    rows_a = scaled(pa)
    rows_b = rows_a if same else scaled(pb)
    pairs = len(pa) * (len(pa) + 1) // 2 if same else len(pa) * len(pb)
    raw_a, raw_b = (sum(abs(n).bit_length() for _, n in r) / len(r) for r in (rows_a, rows_b))
    if pairs * raw_a * raw_b > WORK_BUDGET:
        raise WorkBudgetError(f"a product of {pairs} term pairs of {raw_a:.0f} x {raw_b:.0f} bits "
                              f"passes the work budget of {WORK_BUDGET:.3g}; use fewer --terms")
    xunit = sum(1 << s for s in shifts[:-1])  # x^1 on every size axis: the column step
    acc = (_packed_sums(rows_a, rows_b, same, pairs, raw_a, raw_b, xunit)
           if pairs > _PACKED_MIN_PAIRS else None)
    if acc is None:
        acc = defaultdict(int)
        if same:
            # the pair weight and the key sum are symmetric, so each
            # unordered pair is formed once and the off-diagonal ones count twice
            for i, (ka, na) in enumerate(rows_a):
                acc[ka + ka] += na * na
                twice = na + na
                for kb, nb in rows_a[i + 1:]:
                    acc[ka + kb] += twice * nb
        else:
            for ka, na in rows_a:
                for kb, nb in rows_b:
                    acc[ka + kb] += na * nb
    offset = sum(1 << s for s in convolved)
    rows = [(key + offset, total) for key, total in acc.items() if total]
    for s, top in zip(convolved, tops):
        ratio = list(accumulate(range(top, 0, -1), mul, initial=1))[::-1]  # top!/k!
        rows = [(key, total * ratio[(key >> s) & _MASK]) for key, total in rows]
    den = den_a * den_b * math.prod(_FACTORIAL[top] for top in tops[:borel])
    return _reduced(den, dict(rows)) if rows else None


class _PolyExpBase:
    """The algebra, written once over the size axes a subclass declares.

    A subclass sets only ``dim``, its exponent names (size axes, then t) and
    its per-axis rate names.  Names that ``bench/spans.py`` wraps through a
    class ``__dict__`` stay defined on their class, as aliases.
    """

    dim = 0
    _EXPONENTS: tuple = ()
    _RATES: tuple = ()

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping) -> None:
        canon: dict = {}
        for rate, poly in terms.items():
            den, nums = _over_lcm({self._pack(e): as_fraction(c) for e, c in poly.items()})
            if nums:
                _merge(canon, self._canon_rate(rate), (den, nums))
        object.__setattr__(self, "_terms", canon)

    @classmethod
    def _pack(cls, exps) -> int:
        """The key of an exponent tuple (size axes, then t)."""
        exps = tuple(_check_exponent(p) for p in exps)
        if len(exps) != cls.dim + 1:
            raise OutOfClassError(f"expected {cls.dim + 1} exponents per monomial, got {exps}")
        return sum(p << s for p, s in zip(exps, range(0, _W * len(exps), _W)))

    @classmethod
    def _unpack(cls, key: int) -> tuple:
        """The exponent tuple (size axes, then t) of a key."""
        x, y, t = key & _MASK, key >> _W & _MASK, key >> _W * cls.dim
        return (x, t) if cls.dim == 1 else (x, y, t)

    def _sorted(self, nums: dict) -> list:
        """A group's (exponent tuple, numerator) pairs in order of the tuple."""
        return sorted(zip(map(self._unpack, nums), nums.values()), key=itemgetter(0))

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
            for exps, n in self._sorted(nums):
                yield rate, exps, Fraction(n, den)

    def t_degree(self) -> int:
        """Highest t exponent, or -1 for the zero function."""
        return max((max(nums) >> _W * self.dim for _, nums in self._terms.values()), default=-1)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple((r, d, tuple(sorted(n.items())))
                          for r, (d, n) in sorted(self._terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.term_count()} terms, rates={self.rates()!r})"

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

    def mul_tpoly(self, tp: TPoly):
        """Multiply by a polynomial in t (rates are unchanged)."""
        tgroup = _over_lcm({_check_exponent(j) << _W * self.dim: as_fraction(k)
                            for j, k in tp.items()})
        return self._wrap_groups((r, _group_product(g, tgroup, self.dim))
                                 for r, g in self._terms.items())

    def convolve(self, other):
        """Size convolution int_0^x [int_0^y] f(x - u[, y - v], t) g(u[, v], t) du [dv].

        Both operands must carry the same rates wherever term pairs meet.  The
        closed form is separable: on each size axis x^i e^{-ax} against
        x^j e^{-ax} gives i! j! / (i+j+1)! x^{i+j+1} e^{-ax}, and t-exponents add.
        """
        for ra in self._terms:
            for rb in other._terms:
                if ra != rb:
                    ra, rb = self._api_rate(ra), self._api_rate(rb)
                    raise MixedRatesError(f"convolution of distinct rates {ra} and {rb} "
                                          "is outside the supported closed form")
        return self._wrap_groups((r, _group_product(p, other._terms[r], self.dim, self.dim))
                                 for r, p in self._terms.items() if r in other._terms)

    def time_antiderivative(self):
        """Integrate from 0 in time, t^j to t^{j+1}/(j+1); the result is 0 at t = 0."""
        out, shift = {}, _W * self.dim
        for r, (d, nums) in self._terms.items():
            _check_exponent((max(nums) >> shift) + 1)
            lcm = math.lcm(*{(key >> shift) + 1 for key in nums})
            out[r] = _reduced(d * lcm, {key + (1 << shift): n * (lcm // ((key >> shift) + 1))
                                        for key, n in nums.items()})
        return self._wrap(out)

    # -- integrals, values and the serialised form ---------------------------

    def moment(self, *orders: int) -> TPoly:
        """Moment int x^jx [y^jy] f over the size axes, exact in t; missing orders are 0.

        Each axis gives int_0^inf x^n e^{-ax} dx = n! / a^{n+1}, so every rate
        must be positive.  With a = p/q and D the group's top degree on the
        axis, x^i weighs (i+j)! q^{i+j+1} p^{D-i} over p^{D+j+1}.
        """
        if len(orders) > self.dim:
            raise OutOfClassError(f"{len(orders)} moment orders for {self.dim} size axes")
        orders += (0,) * (self.dim - len(orders))
        if min(orders) < 0:
            raise OutOfClassError("moment orders must be nonnegative")
        if self.has_zero_rate():
            raise ZeroRateError("moment of a rate-0 term diverges")
        out: dict = {}  # one group under key 0, so that _merge prunes zeros
        for _, rate in self._by_value():
            den, poly = self._terms[rate]
            rows = self._sorted(poly)  # t-exponents in order of first appearance
            for axis, (j, (p, q)) in enumerate(zip(orders, rate)):
                top = _check_exponent(_top(poly, _W * axis) + j) - j
                table = [_FACTORIAL[i + j] * q ** (i + j + 1) * p ** (top - i)
                         for i in range(top + 1)]
                rows = [(e, num * table[e[axis]]) for e, num in rows]
                den *= p ** (top + j + 1)
            sums: defaultdict = defaultdict(int)
            for e, num in rows:
                sums[e[-1]] += num
            sums = {jt: num for jt, num in sums.items() if num}
            if sums:
                _merge(out, 0, (den, sums))
        den, sums = out.get(0, (1, {}))
        return {jt: Fraction(num, den) for jt, num in sums.items()}

    def evaluate(self, *point: float) -> float:
        """Float value at (x[, y], t); see ``_evaluate``."""
        if len(point) != self.dim + 1:
            raise TypeError(f"evaluate takes {self.dim + 1} coordinates, got {len(point)}")
        return self._evaluate([[v] for v in point[:-1]], point[-1])[0]

    def _evaluate(self, axes: list, t: float) -> list[float]:
        """Float values at time t on the outer grid of the size ``axes``, first axis slowest.

        Inputs convert exactly and each rate group sums one integer numerator v over one
        denominator d, so a point rounds once per group in a division, an exp and a
        multiply (``ratio_times_exp``): a few ulp for |x| <= 100, degree <= 60.  A group
        substitutes t once, then each size axis, last first, once per point of the axes
        after it; the axis just substituted varies slowest.
        """
        points = list(product(*axes))
        totals = [0.0] * len(points)
        for rate, (den, poly) in self._terms.items():
            level = [(poly, den)]
            for coords, shift in zip([[t], *reversed(axes)], range(_W * self.dim, -1, -_W)):
                level = [_substitute(nums, d, v, shift) for v in coords for nums, d in level]
            for k, (point, (value, d)) in enumerate(zip(points, level)):
                arg = sum(p / q * v for (p, q), v in zip(rate, point))
                totals[k] += ratio_times_exp(value, d, arg)
        return totals

    def to_obj(self) -> dict:
        """Stable-ordered structured form used by the CLI symbolic dump."""
        groups, keys = [], ("coeff", *self._EXPONENTS)
        for api, rate in self._by_value():
            den, nums = self._terms[rate]
            monos = [dict(zip(keys, (str(Fraction(n, den)), *e))) for e, n in self._sorted(nums)]
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
    # bench/spans.py wraps these in this class's own __dict__; they go once it wraps the base
    convolve, moment, evaluate, to_obj = (
        _PolyExpBase.convolve, _PolyExpBase.moment, _PolyExpBase.evaluate, _PolyExpBase.to_obj)

    @classmethod
    def monomial(cls, coeff: RationalLike, xpow: int = 0, tpow: int = 0,
                 rate: RationalLike = 0) -> "PolyExp1D":
        return cls({rate: {(xpow, tpow): coeff}})

    def mul_x(self, k: int = 1) -> "PolyExp1D":
        """Multiply by x^k; one check per group keeps the x field in [0, MAX_EXPONENT]."""
        out = {}
        for r, (d, nums) in self._terms.items():
            _check_exponent((min if k < 0 else max)(map(_MASK.__and__, nums)) + k)
            out[r] = d, {key + k: n for key, n in nums.items()}
        return self._wrap(out)

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
            if (low := min(map(_MASK.__and__, poly))) + p < 0:
                raise OutOfClassError(f"tail integral with power {p} drives x^{low} "
                                      "below degree 0")
            top, ((pa, qa),) = _check_exponent(_top(poly, 0) + p), a
            weights = [qa**r * pa ** (top + 1 - r) for r in range(top + 2)]
            nums: defaultdict = defaultdict(int)
            for key, num in poly.items():
                m = key & _MASK
                n, tkey = m + p, key - m
                ratio = _FACTORIAL[n]  # n!/k!
                for k in range(n + 1):
                    nums[tkey + k] += num * ratio * weights[n - k + 1]
                    ratio //= k + 1
            nums = {e: n for e, n in nums.items() if n}
            if nums:
                out[a] = _reduced(den * pa ** (top + 1), nums)
        return self._wrap(out)

    def collapse_t(self, t: RationalLike) -> dict[Fraction, tuple[int, list[int]]]:
        """Substitute an exact time: rate -> reduced (den, nums), nums[i] / den at x^i."""
        out: dict[Fraction, tuple[int, list[int]]] = {}
        for rate, (den, poly) in self._terms.items():
            den, sums = _reduced(*_substitute(poly, den, t, _W)[::-1])
            out[self._api_rate(rate)] = den, [sums.get(i, 0) for i in range(max(sums) + 1)]
        return out

    def eval_grid(self, xs: np.ndarray, t: float) -> np.ndarray:
        """Vectorised float evaluation at many x for one t.

        The time substitution is exact; the x polynomial is then evaluated by
        Horner in float64, accurate to ~1e-13 relative of the largest intermediate
        term.  The lanes where it is not finite (all, where a coefficient is past
        the float range) go in one call to ``_evaluate``, as ``evaluate`` does.
        """
        import numpy as np  # here, so that ``import pbeseries`` does not load numpy

        xs = np.asarray(xs, dtype=float)
        total = np.zeros_like(xs)
        with np.errstate(all="ignore"):  # a lane that is not finite goes to ``_evaluate``
            try:
                for ((p, q),), (den, poly) in self._terms.items():
                    sums, den = _substitute(poly, den, t, _W)  # n / den rounds as float(Fraction)
                    acc = np.zeros_like(xs)
                    for i in range(max(sums), -1, -1):
                        acc = acc * xs + sums[i] / den
                    total += acc * np.exp(-(p / q) * xs)
            except OverflowError:  # an inf coefficient would leave no lane finite
                total[:] = np.inf
            bad = ~np.isfinite(total)
            if bad.any():
                total[bad] = self._evaluate([xs[bad].tolist()], t)
        return total


class PolyExp2D(_PolyExpBase):
    """Finite sum of terms coeff * x^i y^k t^j * e^{-a x - b y}."""

    dim = 2
    _EXPONENTS = ("xpow", "ypow", "tpow")
    _RATES = ("rate", "yrate")
    __slots__ = ()
    # bench/spans.py wraps these in this class's own __dict__; they go once it wraps the base
    convolve, moment, evaluate, to_obj = (
        _PolyExpBase.convolve, _PolyExpBase.moment, _PolyExpBase.evaluate, _PolyExpBase.to_obj)

    @classmethod
    def monomial(cls, coeff: RationalLike, xpow: int = 0, ypow: int = 0, tpow: int = 0,
                 xrate: RationalLike = 0, yrate: RationalLike = 0) -> "PolyExp2D":
        return cls({(xrate, yrate): {(xpow, ypow, tpow): coeff}})

    def eval_grid(self, xs, ys, t: float) -> list[float]:
        """``evaluate`` at every (x, y) of xs x ys, x-major, bit for bit."""
        return self._evaluate([xs, ys], t)


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
