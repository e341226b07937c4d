"""Property tests of the fraction-free product kernel against the Fraction oracle."""

import contextlib
import itertools
import json
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_oracle as oracle
import pbeseries.polyexp as pe
from pbeseries.polyexp import (
    DegreeOverflowError,
    MixedRatesError,
    PolyExp1D,
    PolyExp2D,
    WorkBudgetError,
    tpoly_function,
)
from pbeseries.problems import CoagKernel, Model, exponential_ic, rhs

from conftest import product
from test_polyexp import _Counted

# Denominators include large primes so common denominators grow wide;
# numerators run from single digits to 128 bits and take both signs.
DENOMINATORS = [1, 2, 3, 7, 1_000_003, 2**61 - 1, 2**89 - 1]
COEFFS = st.builds(
    F,
    st.one_of(st.integers(-9, 9), st.integers(-(2**128), 2**128)).filter(bool),
    st.sampled_from(DENOMINATORS),
)
# 0 + 2 = 1 + 1, so products meet one output rate from two pairs.
RATES_1D = [F(0), F(1), F(2), F(1, 2), F(1_000_003, 7)]
RATES_2D = [(F(1), F(1)), (F(1), F(2)), (F(50), F(50)), (F(2), F(1))]


def groups(nvars, max_exp=6):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, COEFFS, min_size=1, max_size=6)


def values(cls, rates):
    rate_groups = st.dictionaries(
        st.sampled_from(rates), groups(cls.dim + 1), min_size=1, max_size=3
    )
    return rate_groups.map(cls)


def same_rate_pairs(cls, rates, count=2):
    """``count`` values sharing one rate, as convolution needs."""
    return st.sampled_from(rates).flatmap(
        lambda r: st.tuples(*[groups(cls.dim + 1).map(lambda g: cls({r: g}))] * count)
    )


TPOLYS = st.dictionaries(st.integers(0, 5), COEFFS, max_size=4)


def assert_canonical(value):
    """Each rate is one reduced int pair per size axis; each group is one
    denominator over integer numerators, fully reduced."""
    for rate, (den, nums) in value._terms.items():
        assert type(rate) is tuple and len(rate) == value.dim
        for p, q in rate:
            assert type(p) is int and type(q) is int
            assert p >= 0 and q > 0 and math.gcd(p, q) == 1
        assert type(den) is int and den > 0
        assert nums and all(type(n) is int and n for n in nums.values())
        # one packed integer per monomial, every field within the cap
        assert all(type(key) is int and value._pack(value._unpack(key)) == key for key in nums)
        assert math.gcd(den, *nums.values()) == 1


def assert_same(new, ref):
    """Equal as exact rationals, canonical and with rate groups in the same order."""
    assert_canonical(new)
    assert new == ref
    assert list(new._terms) == list(ref._terms)


# -- agreement with the oracle -------------------------------------------------


@given(same_rate_pairs(PolyExp1D, RATES_1D))
def test_convolve_1d_matches_oracle(pair):
    f, g = pair
    assert_same(f.convolve(g), oracle.convolve(f, g))


@given(same_rate_pairs(PolyExp2D, RATES_2D))
def test_convolve_2d_matches_oracle(pair):
    f, g = pair
    assert_same(f.convolve(g), oracle.convolve(f, g))


@given(values(PolyExp1D, RATES_1D), values(PolyExp1D, RATES_1D))
def test_mul_1d_matches_oracle(f, g):
    assert_same(product(f, g), oracle.mul(f, g))


@given(values(PolyExp2D, RATES_2D), values(PolyExp2D, RATES_2D))
def test_mul_2d_matches_oracle(f, g):
    assert_same(product(f, g), oracle.mul(f, g))


@given(values(PolyExp1D, RATES_1D), values(PolyExp2D, RATES_2D), TPOLYS)
def test_mul_tpoly_matches_oracle(f, h, tp):
    assert_same(f.mul_tpoly(tp), oracle.mul_tpoly(f, tp))
    assert_same(h.mul_tpoly(tp), oracle.mul_tpoly(h, tp))


ORDERS = st.integers(0, 2)


@given(values(PolyExp1D, RATES_1D[1:]), values(PolyExp2D, RATES_2D), ORDERS, ORDERS)
def test_moment_matches_oracle(f, h, jx, jy):
    # equal as exact rationals, with the t-exponents in ascending order
    for value, orders in ((f, (jx,)), (h, (jx, jy))):
        new, ref = value.moment(*orders), oracle.moment(value, *orders)
        assert new == ref and list(new) == sorted(ref)


COORDS = st.floats(0, 20, allow_subnormal=False)


@given(values(PolyExp1D, RATES_1D), values(PolyExp2D, RATES_2D), COORDS, COORDS,
       st.floats(0, 3, allow_subnormal=False))
def test_evaluate_matches_oracle_bit_for_bit(f, h, x, y, t):
    assert f.evaluate(x, t) == oracle.evaluate(f, x, t)
    assert h.evaluate(x, y, t) == oracle.evaluate(h, x, y, t)


@given(values(PolyExp2D, RATES_2D), st.lists(COORDS, min_size=1, max_size=3),
       st.lists(COORDS, min_size=1, max_size=3), st.floats(0, 3, allow_subnormal=False))
def test_evaluate_grid_matches_evaluate_bit_for_bit(h, xs, ys, t):
    assert h.eval_grid(xs, ys, t) == [h.evaluate(x, y, t) for x in xs for y in ys]


def test_evaluate_grid_at_drawn_points_zeros_and_overflow():
    rng = random.Random(20231018)
    u0 = PolyExp2D.monomial(6250000, xpow=1, ypow=1, xrate=50, yrate=50)
    model = Model(u0, CoagKernel.CONSTANT)
    psi = u0 + rhs(model, u0).time_antiderivative()
    # two rate pairs: the float sum over groups must keep their order
    two = PolyExp2D.monomial(F(3, 7), xpow=2, ypow=1, tpow=2, xrate=1, yrate=2) + psi
    assert len(two.rates()) == 2
    xs = [0.0] + [rng.uniform(0, 0.2) for _ in range(4)]
    ys = [0.0] + [rng.uniform(0, 0.2) for _ in range(3)]
    for value in (psi, two):
        for t in [0.0] + [rng.uniform(0, 0.05) for _ in range(3)]:
            grid = value.eval_grid(xs, ys, t)
            assert grid == [value.evaluate(x, y, t) for x in xs for y in ys]
            assert grid == [oracle.evaluate(value, x, y, t) for x in xs for y in ys]
    # t^2 at t = 1e200 overflows the one int division per group
    with pytest.raises(OverflowError) as scalar:
        two.evaluate(0.1, 0.1, 1e200)
    with pytest.raises(OverflowError) as grid:
        two.eval_grid([0.1], [0.1], 1e200)
    assert str(grid.value) == str(scalar.value)


@given(values(PolyExp1D, RATES_1D), values(PolyExp1D, RATES_1D))
def test_mixed_rates_still_rejected(f, g):
    if len(f.rates()) == len(g.rates()) == 1 and f.rates() == g.rates():
        return
    with pytest.raises(MixedRatesError):
        oracle.convolve(f, g)
    with pytest.raises(MixedRatesError):
        f.convolve(g)


@given(values(PolyExp1D, RATES_1D), values(PolyExp1D, RATES_1D),
       values(PolyExp2D, RATES_2D), values(PolyExp2D, RATES_2D), COEFFS)
def test_linear_operations_match_oracle(f, g, h, k, c):
    for a, b in ((f, g), (h, k), (f, f)):
        assert_same(a + b, oracle.add(a, b))
        assert_same(a - b, oracle.sub(a, b))
        assert_same(-a, oracle.neg(a))
        assert_same(a.scale(c), oracle.scale(a, c))
        assert_same(a.time_antiderivative(), oracle.time_antiderivative(a))
    assert (f - f).is_zero() and f.scale(0).is_zero()


@given(values(PolyExp1D, RATES_1D), st.integers(0, 3))
def test_mul_x_matches_oracle(f, k):
    assert_same(f.mul_x(k), oracle.mul_x(f, k))


@given(values(PolyExp1D, RATES_1D[1:]), st.integers(-1, 2))
def test_tail_integral_matches_oracle(f, p):
    if min(e[0] for _, e, _ in f.terms()) + p < 0:
        with pytest.raises(pe.OutOfClassError):
            f.tail_integral(p)
        return
    assert_same(f.tail_integral(p), oracle.tail_integral(f, p))


@given(st.lists(st.tuples(st.sampled_from(RATES_1D), groups(2)), min_size=1, max_size=4))
def test_construction_is_canonical(pairs):
    # a rate given twice, as a string and as a Fraction, merges into one group
    terms = {(str(r) if i % 2 else r): g for i, (r, g) in enumerate(pairs)}
    value = PolyExp1D(terms)
    assert_canonical(value)
    for rate, exps, c in value.terms():
        assert type(c) is F and c


# -- rate order ----------------------------------------------------------------


def test_rates_come_in_order_of_value():
    # stored rates are integer pairs, which sort otherwise: (1, 2) < (1, 3)
    # but 1/2 > 1/3, and (1, 1) < (1, 2) but 1 > 1/2
    one = [F(1_000_003, 7), F(1, 2), F(2), F(1, 3), F(1), F(0)]
    two = [(F(1, 2), F(3)), (F(1, 3), F(1)), (F(1, 3), F(1, 2)), (F(2), F(1, 2))]
    f = PolyExp1D({r: {(1, 0): 1, (0, 1): F(-1, 3)} for r in one})
    h = PolyExp2D({r: {(1, 0, 0): 1, (0, 2, 1): F(2, 7)} for r in two})
    for value, rates in ((f, one), (h, two)):
        assert_canonical(value)
        order = sorted(rates)
        assert value.rates() == order
        assert list(dict.fromkeys(rate for rate, _, _ in value.terms())) == order
        groups = [tuple(F(g[k]) for k in value._RATES) for g in value.to_obj()["terms"]]
        assert groups == [r if value.dim > 1 else (r,) for r in order]
    positive = f - PolyExp1D({0: {(1, 0): 1, (0, 1): F(-1, 3)}})
    for p in (0, 1):
        tail = positive.tail_integral(p)
        assert_canonical(tail)
        assert [tail._api_rate(r) for r in tail._terms] == sorted(one)[1:]


# -- self-products -------------------------------------------------------------


@given(values(PolyExp1D, RATES_1D), values(PolyExp2D, RATES_2D), st.integers(0, 2))
def test_self_product_matches_the_general_loop(f, h, borel):
    # (den, dict(nums)) is an equal group that is not the same object, so
    # it takes the general pair loop
    for v in (f, h):
        for group in v._terms.values():
            den, nums = group
            same = pe._group_product(group, group, v.dim, borel)
            assert same == pe._group_product(group, (den, dict(nums)), v.dim, borel)
            assert math.gcd(same[0], *same[1].values()) == 1


@given(values(PolyExp1D, RATES_1D), values(PolyExp2D, RATES_2D),
       same_rate_pairs(PolyExp1D, RATES_1D, count=1),
       same_rate_pairs(PolyExp2D, RATES_2D, count=1))
def test_self_product_matches_oracle(f, h, single1, single2):
    for v in (f, h):
        assert_same(product(v, v), oracle.mul(v, v))
    for (v,) in (single1, single2):
        assert_same(v.convolve(v), oracle.convolve(v, v))


def test_coagulation_gain_is_a_self_product(monkeypatch):
    calls = []
    real = pe._group_product

    def spy(pa, pb, dim, borel=0):
        calls.append((pa is pb, borel))
        return real(pa, pb, dim, borel)

    monkeypatch.setattr(pe, "_group_product", spy)
    u = exponential_ic().mul_tpoly({0: F(1), 1: F(-1, 3)})
    u2 = (PolyExp2D.monomial(1, xpow=1, tpow=1, xrate=1, yrate=2)
          + PolyExp2D.monomial(2, xrate=1, yrate=2))
    for model, value in [*((Model(exponential_ic(), k), u) for k in CoagKernel),
                         (Model(PolyExp2D.monomial(1, xrate=1, yrate=2), CoagKernel.CONSTANT), u2)]:
        calls.clear()
        rhs(model, value)
        assert (True, model.dim) in calls, model.kernel


# -- the two pair-sum paths ------------------------------------------------------


@contextlib.contextmanager
def kernel_path(packed: bool):
    """Every product of ``_group_product`` by packed columns, or by the pair loop alone."""
    real = pe._packed_sums

    def forced(rows_a, rows_b, same, pairs, *rest):
        # with unbounded pairs every selection test passes
        return real(rows_a, rows_b, same, math.inf, *rest)

    with mock.patch.object(pe, "_PACKED_MIN_PAIRS", -1 if packed else math.inf), \
            mock.patch.object(pe, "_packed_sums", forced):
        yield


# A content that every t-column shares, as the iterates' columns do.
BIG = (2**61 - 1) ** 3 * 3**40


@st.composite
def dense_1d(draw, rate=F(1)):
    """One rate group, dense along x in each t-column, each column a multiple of BIG."""
    den = draw(st.sampled_from(DENOMINATORS))
    poly = {}
    for t in range(draw(st.integers(2, 6))):
        lo, span = draw(st.integers(0, 3)), draw(st.integers(1, 10))
        scale = draw(st.integers(1, 255))
        for x in range(lo, lo + span):
            poly[x, t] = F(BIG * scale * draw(st.integers(-(2**12), 2**12)), den)
    return PolyExp1D({rate: poly}) if any(poly.values()) else PolyExp1D.monomial(BIG, rate=rate)


def diagonal_2d(rng: random.Random, wide_bits: int = 0, cols: int = 6, span: int = 8):
    """x^i y^i t^j terms over shared column contents; with wide_bits, t-column 0's
    cofactors are that wide where the others' stay under 12 bits."""
    poly = {}
    for t in range(cols):
        scale = rng.randint(1, 255)
        for x in range(span):
            bits = wide_bits if t == 0 and wide_bits else 12
            poly[x, x, t] = F(BIG * scale * rng.randint(-(2**bits), 2**bits) or 1, 7)
    return PolyExp2D({(F(1), F(2)): poly})


DIAGONAL_2D = st.builds(diagonal_2d, st.randoms(use_true_random=False),
                        st.sampled_from([0, 0, 700]), st.integers(1, 5), st.integers(1, 6))


@pytest.mark.parametrize("packed", [False, True], ids=["pair-loop", "packed"])
@given(values(PolyExp1D, RATES_1D), values(PolyExp1D, RATES_1D),
       values(PolyExp2D, RATES_2D), values(PolyExp2D, RATES_2D),
       same_rate_pairs(PolyExp1D, RATES_1D), same_rate_pairs(PolyExp2D, RATES_2D), TPOLYS)
def test_both_kernel_paths_match_oracle(packed, f, g, h, k, pair1, pair2, tp):
    with kernel_path(packed):
        for a, b in ((f, g), (h, k), (f, f), (h, h)):
            assert_same(product(a, b), oracle.mul(a, b))
        for a, b in (pair1, pair2):
            assert_same(a.convolve(b), oracle.convolve(a, b))
            assert_same(a.convolve(a), oracle.convolve(a, a))
        assert_same(f.mul_tpoly(tp), oracle.mul_tpoly(f, tp))
        assert_same(h.mul_tpoly(tp), oracle.mul_tpoly(h, tp))


@pytest.mark.parametrize("packed", [False, True], ids=["pair-loop", "packed"])
@given(dense_1d(), dense_1d(), DIAGONAL_2D, DIAGONAL_2D)
def test_both_kernel_paths_match_oracle_on_dense_columns(packed, f, g, h, k):
    with kernel_path(packed):
        for a, b in ((f, g), (f, f), (h, k), (h, h)):
            assert_same(a.convolve(b), oracle.convolve(a, b))
            assert_same(product(a, b), oracle.mul(a, b))


@given(dense_1d(), dense_1d(), DIAGONAL_2D, DIAGONAL_2D, st.integers(0, 2))
def test_both_kernel_paths_agree_on_every_borel_axis_count(f, g, h, k, borel):
    # borel = 1 in 2-D and 2 in 1-D convolve axes that no operator convolves alone
    for a, b in ((f, g), (f, f), (h, k), (h, h)):
        ga, gb = next(iter(a._terms.values())), next(iter(b._terms.values()))
        with kernel_path(False):
            loop = pe._group_product(ga, gb, a.dim, borel)
        with kernel_path(True):
            assert pe._group_product(ga, gb, a.dim, borel) == loop


def test_packed_slots_hold_their_largest_sums():
    # cofactors at the widest and of one sign: a slot of the square sums up to
    # 63 products of nearly 2^40, the most that the slot width must hold
    top = 2**20 - 1
    f = PolyExp1D({1: {(x, t): top - x % 2 for x in range(63) for t in range(2)}})
    with kernel_path(True):
        for a, b in ((f, f), (f, -f)):
            assert_same(product(a, b), oracle.mul(a, b))


def test_selection_takes_each_path(monkeypatch):
    chosen = []
    real = pe._packed_sums

    def spy(*args):
        acc = real(*args)
        chosen.append(acc is not None)
        return acc

    monkeypatch.setattr(pe, "_packed_sums", spy)
    rng = random.Random(18)
    # few pairs: never offered to the packed path
    small = PolyExp1D({1: {(i, j): F(rng.randint(1, 99), 7) for i in range(4) for j in range(4)}})
    small.convolve(small)
    assert chosen == []
    # dense t-columns that share their content: packed
    dense = PolyExp1D({1: {(x, t): F(BIG * (t + 1) * rng.randint(-99, 99) or 1, 7)
                           for x in range(12) for t in range(6)}})
    assert_same(dense.convolve(dense), oracle.convolve(dense, dense))
    assert chosen == [True]
    # one wide-cofactor column widens every slot past the raw numerators: the pair loop
    wide = diagonal_2d(rng, wide_bits=700, cols=6, span=12)
    assert_same(wide.convolve(wide), oracle.convolve(wide, wide))
    assert chosen == [True, False]
    # the same shape without the wide column packs
    narrow = diagonal_2d(rng, cols=6, span=12)
    assert_same(narrow.convolve(narrow), oracle.convolve(narrow, narrow))
    assert chosen == [True, False, True]


@pytest.mark.parametrize("packed", [False, True], ids=["pair-loop", "packed"])
def test_work_budget_trips_before_any_pair(packed, monkeypatch):
    # 60 terms of 41 bits: the numerators count their multiplies and the packed
    # path its calls.  Past the budget neither path takes a step; at it, each runs.
    # The work is the pairs' 41 x 41 bits and a gcd per output term, of 41 + 41 bits
    # against the denominator's 6
    ga = (7, {x | t << pe._W: _Counted(2**40 + 3 * x + t) for x in range(20) for t in range(3)})
    gb = (5, {x | t << pe._W: _Counted(2**41 - 1 - 5 * x - t) for x in range(30) for t in range(2)})
    calls = []
    with kernel_path(packed):
        real = pe._packed_sums
        with mock.patch.object(pe, "_packed_sums", lambda *a: calls.append(1) or real(*a)):
            # the output's terms are taken as 2^2 times the larger operand's 60
            for a, b, pairs in ((ga, gb, 60 * 60), (ga, ga, 60 * 61 // 2)):
                work = pairs * 41 * 41 + (4 * 60) * (41 + 41) * 6
                monkeypatch.setattr(pe, "WORK_BUDGET", work - 1)
                _Counted.products, calls[:] = 0, []
                with pytest.raises(WorkBudgetError, match="passes the work budget"):
                    pe._group_product(a, b, 1)
                assert (_Counted.products, calls) == (0, [])
                monkeypatch.setattr(pe, "WORK_BUDGET", work)
                assert pe._group_product(a, b, 1) is not None
                assert calls if packed else _Counted.products >= pairs


# -- exact time substitution -----------------------------------------------------

DYADIC = st.sampled_from([0.0, 0.5, 0.25, 1.0, 1.5, 2.0, 0.125, 3.0])
TIMES = st.one_of(DYADIC, st.floats(0, 3, allow_subnormal=False),
                  st.floats(-3, 3, allow_subnormal=False))


@given(values(PolyExp1D, RATES_1D), st.one_of(
    TIMES, st.fractions(min_value=-5, max_value=5, max_denominator=10**9)))
def test_collapse_t_matches_oracle(f, t):
    new, ref = f.collapse_t(t), oracle.collapse_t(f, t)
    assert list(new) == list(ref)
    for (den, nums), coeffs in zip(new.values(), ref.values()):
        assert [F(n, den) for n in nums] == coeffs
        assert den > 0 and math.gcd(den, *nums) == 1
        assert all(type(n) is int for n in nums)


@given(TPOLYS, TIMES)
def test_tpoly_eval_matches_oracle_bit_for_bit(tp, t):
    assert tpoly_function(tp)(t).hex() == oracle.tpoly_eval(tp, t).hex()


@pytest.mark.parametrize("t", [0.0, 0.5, 0.437, 1.283, 2.0])
def test_time_substitution_of_zero(t):
    assert PolyExp1D.zero().collapse_t(t) == oracle.collapse_t(PolyExp1D.zero(), t) == {}
    assert tpoly_function({})(t).hex() == oracle.tpoly_eval({}, t).hex()


def test_time_substitution_at_drawn_times_of_a_deep_value():
    # a t^63-degree value at times whose Fractions carry 2^54 denominators
    f = PolyExp1D({F(1): {(i, j): F((-1) ** i * (j + 1), math.factorial(i + 1)) + F(1, 3)
                          for i in range(0, 40, 3) for j in range(0, 64, 7)},
                   F(5, 2): {(0, 63): F(2**127 - 1, 2**61 - 1)}})
    tp = f.moment(2)
    mu = tpoly_function(tp)  # converted once, evaluated at every time
    for t in (0.0, 0.437, 1.283, 0.173, 2.5):
        new, ref = f.collapse_t(t), oracle.collapse_t(f, t)
        assert {a: [F(n, den) for n in nums] for a, (den, nums) in new.items()} == ref
        assert mu(t).hex() == oracle.tpoly_eval(tp, t).hex()


# -- exact cancellation --------------------------------------------------------


def test_convolution_cancels_a_coefficient_exactly():
    # (1 + x) * (x - 1): the x^2 coefficient is 1/2 - 1/2
    f = PolyExp1D({1: {(0, 0): 1, (1, 0): 1}})
    g = PolyExp1D({1: {(1, 0): 1, (0, 0): -1}})
    out = f.convolve(g)
    assert out == PolyExp1D({1: {(1, 0): -1, (3, 0): F(1, 6)}})
    assert_same(out, oracle.convolve(f, g))


def test_product_drops_a_cancelled_rate_group():
    # rate 2 collects +1 from (1, 1) and -1 from (0, 2), and vanishes
    f = PolyExp1D({0: {(0, 0): 1}, 1: {(0, 0): 1}})
    g = PolyExp1D({1: {(0, 0): 1}, 2: {(0, 0): -1}})
    out = product(f, g)
    assert out == PolyExp1D({1: {(0, 0): 1}, 3: {(0, 0): -1}})
    assert out.rates() == [1, 3]
    assert_same(out, oracle.mul(f, g))


@given(same_rate_pairs(PolyExp1D, RATES_1D))
def test_difference_of_squares(pair):
    a, b = pair
    assert product(a + b, a - b) == product(a, a) - product(b, b)


def test_mul_tpoly_by_zero_is_zero():
    f = PolyExp1D.monomial(3, xpow=2, rate=1)
    assert f.mul_tpoly({}).is_zero()
    assert f.mul_tpoly({1: F(0)}).is_zero()


# -- degree caps ---------------------------------------------------------------


@given(st.integers(0, pe.MAX_EXPONENT - 1), st.integers(0, pe.MAX_EXPONENT))
def test_exponents_at_the_cap(i, j):
    cap = pe.MAX_EXPONENT
    f = PolyExp1D({1: {(i, j): F(1, 3), (0, 0): -1}})
    for op, ref, shift in (
        (PolyExp1D.convolve, oracle.convolve, 1),
        (product, oracle.mul, 0),
    ):
        g = PolyExp1D({1: {(cap - shift - i, cap - j): F(2, 2**61 - 1)}})
        out = op(f, g)
        assert max(e for _, e, _ in out.terms()) == (cap, cap)
        assert_same(out, ref(f, g))
        for over in ((cap - shift - i + 1, cap - j), (cap - shift - i, cap - j + 1)):
            if max(over) <= cap:
                with pytest.raises(DegreeOverflowError):
                    op(f, PolyExp1D({1: {over: 1}}))


@pytest.mark.parametrize(
    "mono",
    [
        lambda: PolyExp1D.monomial(1, tpow=300, rate=1),
        lambda: PolyExp2D.monomial(1, tpow=300, xrate=1, yrate=1),
    ],
    ids=["1d", "2d"],
)
def test_convolve_checks_the_t_degree(mono):
    f = mono()
    with pytest.raises(DegreeOverflowError, match="exponent 600 exceeds cap 512"):
        f.convolve(f)


def test_convolve_checks_the_y_degree():
    f = PolyExp2D.monomial(1, ypow=300, xrate=1, yrate=1)
    with pytest.raises(DegreeOverflowError, match="exponent 601 exceeds cap"):
        f.convolve(f)


# -- laws ----------------------------------------------------------------------


@given(same_rate_pairs(PolyExp1D, RATES_1D), same_rate_pairs(PolyExp2D, RATES_2D))
def test_commutative(pair1, pair2):
    for f, g in (pair1, pair2):
        assert f.convolve(g) == g.convolve(f)
        assert product(f, g) == product(g, f)


@given(same_rate_pairs(PolyExp1D, RATES_1D, count=3), COEFFS)
def test_bilinear(triple, c):
    f, g, h = triple
    assert f.convolve(g + h.scale(c)) == f.convolve(g) + f.convolve(h).scale(c)
    assert (g + h.scale(c)).convolve(f) == g.convolve(f) + h.convolve(f).scale(c)
    assert product(f, g + h.scale(c)) == product(f, g) + product(f, h).scale(c)


def tpoly_mul(p, q):
    out: dict = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: v for k, v in out.items() if v}


def binomial_moment(f, g, orders):
    """sum over k <= j (per axis) of prod C(j, k) * mu_k(f) * mu_{j-k}(g)."""
    out: dict = {}
    for ks in itertools.product(*(range(j + 1) for j in orders)):
        weight = math.prod(math.comb(j, k) for j, k in zip(orders, ks))
        rest = [j - k for j, k in zip(orders, ks)]
        for i, c in tpoly_mul(f.moment(*ks), g.moment(*rest)).items():
            out[i] = out.get(i, 0) + weight * c
    return {k: v for k, v in out.items() if v}


@given(same_rate_pairs(PolyExp1D, RATES_1D[1:]), same_rate_pairs(PolyExp2D, RATES_2D))
def test_mass_of_convolution_is_product_of_masses(pair1, pair2):
    # the binomial moment law mu_j(f*g) = sum_k C(j,k) mu_k(f) mu_{j-k}(g),
    # whose j = 0 case is the product of the masses
    f, g = pair1
    fg = f.convolve(g)
    assert fg.moment(0) == tpoly_mul(f.moment(0), g.moment(0))
    for j in range(3):
        assert fg.moment(j) == binomial_moment(f, g, (j,))
    f, g = pair2
    fg = f.convolve(g)
    assert fg.moment(0, 0) == tpoly_mul(f.moment(0, 0), g.moment(0, 0))
    for orders in itertools.product(range(3), repeat=2):
        assert fg.moment(*orders) == binomial_moment(f, g, orders)


def time_derivative(f):
    """Termwise d/dt: c t^j becomes j c t^(j-1)."""
    out: dict = {}
    for rate, exps, c in f.terms():
        if exps[-1]:
            out.setdefault(rate, {})[exps[:-1] + (exps[-1] - 1,)] = exps[-1] * c
    return type(f)(out)


@given(values(PolyExp1D, RATES_1D), values(PolyExp2D, RATES_2D))
def test_time_antiderivative_inverts_the_derivative(f, h):
    for v in (f, h):
        integral = v.time_antiderivative()
        assert all(exps[-1] >= 1 for _, exps, _ in integral.terms())
        assert time_derivative(integral) == v


@given(values(PolyExp1D, RATES_1D), values(PolyExp2D, RATES_2D))
def test_serialised_form_round_trips(f, h):
    for v in (f, h):
        assert pe.from_obj(v.to_obj()) == v
        assert pe.from_obj(json.loads(json.dumps(v.to_obj()))) == v
