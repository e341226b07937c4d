"""Unit tests for the exact polynomial-exponential algebra."""

import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

import pbeseries.polyexp as pe
from pbeseries.polyexp import (
    DegreeOverflowError,
    MixedRatesError,
    OutOfClassError,
    PolyExp1D,
    PolyExp2D,
    ZeroRateError,
    from_obj,
)

from conftest import product, random_polyexp


def mono(c, xpow=0, tpow=0, rate=0):
    return PolyExp1D.monomial(c, xpow=xpow, tpow=tpow, rate=rate)


def x_degree(f):
    return max(e[0] for _, e, _ in f.terms())


@st.composite
def past_horner(draw):
    """A value, sizes and a time where Horner meets coefficients >= 1e300 or x >= 1e100."""
    tens = st.sampled_from([0, 3, 300, 306, 320])
    coeff = st.builds(lambda m, e: F(m, 7) * F(10) ** e, st.integers(1, 99) | st.integers(-99, -1),
                      tens)
    rate = st.sampled_from([F(0), F(1, 1000), F(1), F(7, 2), F(10) ** 300])
    terms = draw(st.lists(st.tuples(coeff, st.integers(0, 7), st.integers(0, 2), rate),
                          min_size=1, max_size=5))
    f = sum((mono(c, i, j, a) for c, i, j, a in terms), PolyExp1D.zero())
    xs = draw(st.lists(st.one_of(st.floats(0, 100), st.floats(1e100, 1e308)),
                       min_size=1, max_size=6))
    return f, xs, draw(st.sampled_from([0.0, 0.5, 1.25]))


def float_horner(f, xs, t):
    """The float Horner pass that ``eval_grid`` keeps wherever it is finite."""
    total = np.zeros_like(xs)
    with np.errstate(all="ignore"):
        for a, (den, nums) in f.collapse_t(F(t)).items():
            acc = np.zeros_like(xs)
            for n in reversed(nums):
                acc = acc * xs + n / den
            total += acc * np.exp(-float(a) * xs)
    return total


class TestLinearOps:
    def test_additive_inverse_is_empty(self):
        f = mono(1, rate=1)
        assert (f + f.scale(-1)).is_zero()

    def test_scale(self):
        assert mono(1, xpow=1, rate=1).scale(F(1, 2)) == mono(F(1, 2), xpow=1, rate=1)

    def test_mul_adds_rates(self):
        f = mono(1, rate=1)
        assert product(f, f) == mono(1, rate=2)

    def test_random_cancellation(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_polyexp(rng)
            assert (f + f.scale(-1)).is_zero()
            assert (f - f).is_zero()

    def test_mul_by_scalar_matches_scale(self):
        f = mono(3, xpow=2, tpow=1, rate=2)
        assert product(mono(2), f) == f.scale(2)
        assert product(f, mono(F(1, 3))) == f.scale(F(1, 3))

    def test_construction_merges_duplicates(self):
        f = PolyExp1D({1: {(0, 0): F(1, 2)}}) + PolyExp1D({1: {(0, 0): F(1, 2)}})
        assert f == mono(1, rate=1)

    def test_immutability(self):
        f = mono(1, rate=1)
        with pytest.raises(AttributeError):
            f._terms = {}


class TestConvolve:
    def test_base_case(self):
        e = mono(1, rate=1)
        assert e.convolve(e) == mono(1, xpow=1, rate=1)

    def test_monomial_case_against_quadrature(self):
        f = mono(1, xpow=1, rate=2)
        g = f.convolve(f)
        assert g == mono(F(1, 6), xpow=3, rate=2)
        for x in (0.5, 1.0, 2.0):
            num, _ = integrate.quad(
                lambda y, xx=x: (xx - y) * y * math.exp(-2 * xx), 0.0, x
            )
            assert abs(g.evaluate(x, 0.0) - num) <= 1e-12

    def test_coagulation_gain_term(self):
        u0 = mono(4, xpow=1, rate=2)
        gain = u0.convolve(u0).scale(F(1, 2))
        assert gain == mono(F(4, 3), xpow=3, rate=2)

    def test_mixed_rates_rejected(self):
        with pytest.raises(MixedRatesError):
            mono(1, rate=1).convolve(mono(1, rate=2))

    def test_commutative_and_degree_law(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_polyexp(rng, single_rate=True)
            g = random_polyexp(rng, single_rate=True, rates=(f.rates()[0],))
            assert f.convolve(g) == g.convolve(f)
            assert x_degree(f.convolve(g)) == x_degree(f) + x_degree(g) + 1

    def test_bilinear(self):
        rng = random.Random(13)
        for _ in range(25):
            rate = rng.choice([1, 2])
            f, g, h = (
                random_polyexp(rng, single_rate=True, rates=(rate,)) for _ in range(3)
            )
            c = F(rng.randint(-5, 5), rng.randint(1, 5))
            assert f.convolve(g + h) == f.convolve(g) + f.convolve(h)
            assert f.convolve(g.scale(c)) == f.convolve(g).scale(c)

    def test_evaluate_matches_quadrature(self):
        # Fubini-style consistency on randomized single-rate inputs
        rng = random.Random(17)
        for _ in range(10):
            rate = rng.choice([1, 2])
            f = random_polyexp(rng, max_xpow=8, single_rate=True, rates=(rate,))
            g = random_polyexp(rng, max_xpow=8, single_rate=True, rates=(rate,))
            conv = f.convolve(g)
            t = rng.uniform(0.0, 2.0)
            x = rng.uniform(0.1, 10.0)
            num, _ = integrate.quad(
                lambda y: f.evaluate(x - y, t) * g.evaluate(y, t), 0.0, x, limit=200
            )
            ref = conv.evaluate(x, t)
            scale = max(abs(ref), abs(num), 1e-30)
            assert abs(ref - num) / scale <= 1e-10


class TestConvolve2D:
    def test_base_case(self):
        e = PolyExp2D.monomial(1, xrate=1, yrate=1)
        assert e.convolve(e) == PolyExp2D.monomial(1, xpow=1, ypow=1, xrate=1, yrate=1)

    def test_separable_weights(self):
        f = PolyExp2D.monomial(1, xpow=1, ypow=1, xrate=50, yrate=50)
        expected = PolyExp2D.monomial(F(1, 36), xpow=3, ypow=3, xrate=50, yrate=50)
        assert f.convolve(f) == expected

    def test_bilinear(self):
        f = PolyExp2D.monomial(2, xpow=1, ypow=0, xrate=1, yrate=1)
        g = PolyExp2D.monomial(1, xpow=0, ypow=1, xrate=1, yrate=1)
        h = PolyExp2D.monomial(F(1, 3), xpow=2, ypow=2, xrate=1, yrate=1)
        assert f.convolve(g + h) == f.convolve(g) + f.convolve(h)

    def test_mixed_rates_rejected(self):
        f = PolyExp2D.monomial(1, xrate=1, yrate=1)
        g = PolyExp2D.monomial(1, xrate=1, yrate=2)
        with pytest.raises(MixedRatesError):
            f.convolve(g)


class TestMoment:
    def test_unit_exponential(self):
        assert mono(1, rate=1).moment(0) == {0: F(1)}

    def test_normalized_initial_state(self):
        assert mono(4, xpow=1, rate=2).moment(0) == {0: F(1)}

    def test_first_component_mass_free(self):
        # (1/2) t e^{-x} (x - 2) carries no mass
        v1 = mono(F(1, 2), xpow=1, tpow=1, rate=1) + mono(-1, tpow=1, rate=1)
        assert v1.moment(1) == {}

    def test_zero_rate_rejected(self):
        with pytest.raises(ZeroRateError):
            mono(1, xpow=2).moment(0)

    def test_2d_moment(self):
        u0 = PolyExp2D.monomial(6250000, xpow=1, ypow=1, xrate=50, yrate=50)
        assert u0.moment(0, 0) == {0: F(1)}
        assert u0.moment(1, 0) == {0: F(1, 25)}
        with pytest.raises(ZeroRateError):
            PolyExp2D.monomial(1, xrate=0, yrate=1).moment(0, 0)

    def test_missing_orders_are_zero(self):
        # a 2-D moment(0) integrates over both axes, as moment(0, 0) does
        u0 = PolyExp2D.monomial(4, xpow=1, ypow=2, tpow=1, xrate=2, yrate=F(3, 2))
        assert u0.moment(0) == u0.moment(0, 0) == u0.moment() == {1: F(16, 27)}
        assert u0.moment(1) == u0.moment(1, 0)
        assert mono(4, xpow=1, rate=2).moment() == mono(4, xpow=1, rate=2).moment(0)
        with pytest.raises(OutOfClassError, match="3 moment orders for 2 size axes"):
            u0.moment(0, 0, 0)
        with pytest.raises(OutOfClassError, match="2 moment orders for 1 size axes"):
            mono(1, rate=1).moment(0, 0)
        for orders in [(-1,), (0, -1)]:
            with pytest.raises(OutOfClassError, match="nonnegative"):
                u0.moment(*orders)

    def test_order_past_the_exponent_cap(self):
        # x^10 e^{-x} has moment (10 + j)!; the cap bounds 10 + j on every axis
        f = mono(1, xpow=10, rate=1)
        assert f.moment(pe.MAX_EXPONENT - 10) == {0: F(math.factorial(pe.MAX_EXPONENT))}
        with pytest.raises(DegreeOverflowError, match=f"exponent {pe.MAX_EXPONENT + 1} exceeds"):
            f.moment(pe.MAX_EXPONENT - 9)
        g = PolyExp2D.monomial(1, xpow=2, ypow=3, xrate=1, yrate=1)
        with pytest.raises(DegreeOverflowError, match=f"exponent {pe.MAX_EXPONENT + 1} exceeds"):
            g.moment(0, pe.MAX_EXPONENT - 2)


class TestTailIntegral:
    def test_unit_exponential(self):
        f = mono(1, rate=1)
        assert f.tail_integral(0) == f

    def test_linear_initial_state(self):
        f = mono(4, xpow=1, rate=2)
        expected = mono(2, xpow=1, rate=2) + mono(1, rate=2)
        got = f.tail_integral(0)
        assert got == expected
        for x in (0.0, 1.0, 2.0):
            num, _ = integrate.quad(lambda y: 4 * y * math.exp(-2 * y), x, 60.0)
            assert abs(got.evaluate(x, 0.0) - num) <= 1e-10

    def test_out_of_class(self):
        with pytest.raises(OutOfClassError):
            mono(1, rate=1).tail_integral(-1)

    def test_zero_rate_rejected(self):
        with pytest.raises(ZeroRateError):
            mono(1, xpow=1).tail_integral(0)

    def test_iterated_tail_equals_first_moment(self):
        # int_0^inf int_x^inf f(y) dy dx == first moment of f, exactly
        rng = random.Random(23)
        for _ in range(25):
            f = random_polyexp(rng)
            assert f.tail_integral(0).moment(0) == f.moment(1)


class TestTimeAntiderivative:
    def test_produces_first_component(self):
        rhs0 = mono(F(1, 2), xpow=1, rate=1) + mono(-1, rate=1)
        v1 = mono(F(1, 2), xpow=1, tpow=1, rate=1) + mono(-1, tpow=1, rate=1)
        assert rhs0.time_antiderivative() == v1

    def test_monomial_rule(self):
        assert mono(1, tpow=2).time_antiderivative() == mono(F(1, 3), tpow=3)

    def test_zero(self):
        assert PolyExp1D.zero().time_antiderivative().is_zero()

    def test_vanishes_at_zero_time(self):
        rng = random.Random(29)
        for _ in range(20):
            g = random_polyexp(rng).time_antiderivative()
            assert all(e[-1] >= 1 for _, e, _ in g.terms())
            assert g.evaluate(rng.uniform(0, 5), 0.0) == 0.0


class TestEvaluate:
    def test_at_origin(self):
        assert mono(1, rate=1).evaluate(0.0, 123.0) == 1.0

    def test_root(self):
        v1 = mono(F(1, 2), xpow=1, tpow=1, rate=1) + mono(-1, tpow=1, rate=1)
        assert v1.evaluate(2.0, 1.0) == 0.0

    def test_against_high_precision(self, constant_kernel_problem):
        from pbeseries.series import iterate_accelerated

        psi3 = iterate_accelerated(constant_kernel_problem, 3).truncated(3)
        got = psi3.evaluate(5.0, 2.0)
        mpmath.mp.dps = 40
        ref = mpmath.mpf(0)
        for a, (i, j), c in psi3.terms():
            ref += (
                mpmath.mpf(c.numerator) / c.denominator
                * mpmath.mpf(5) ** i * mpmath.mpf(2) ** j
                * mpmath.exp(-mpmath.mpf(a.numerator) / a.denominator * 5)
            )
        assert abs(got - float(ref)) <= 1e-12 * abs(float(ref))

    def test_eval_grid_matches_pointwise(self):
        rng = random.Random(31)
        f = random_polyexp(rng)
        xs = np.linspace(0.0, 10.0, 11)
        grid = f.eval_grid(xs, 0.7)
        for x, v in zip(xs, grid):
            assert abs(v - f.evaluate(float(x), 0.7)) <= 1e-12 * max(1.0, abs(v))

    @given(past_horner())
    def test_eval_grid_lanes_past_horner_are_evaluate(self, case):
        f, xs, t = case
        try:
            horner = float_horner(f, np.array(xs), t).tolist()
        except OverflowError:  # a coefficient past the float range leaves no lane finite
            horner = [math.inf] * len(xs)
        try:
            expected = [h if math.isfinite(h) else f.evaluate(x, t) for x, h in zip(xs, horner)]
        except OverflowError:
            with pytest.raises(OverflowError):
                f.eval_grid(xs, t)
            return
        assert [v.hex() for v in f.eval_grid(xs, t).tolist()] == [v.hex() for v in expected]

    def test_2d(self):
        f = PolyExp2D.monomial(2, xpow=1, ypow=2, tpow=1, xrate=1, yrate=2)
        expected = 2 * 0.5 * 4.0 * 3.0 * math.exp(-0.5 - 4.0)
        assert abs(f.evaluate(0.5, 2.0, 3.0) - expected) <= 1e-14 * abs(expected)

    def test_one_coordinate_per_size_axis_then_t(self):
        with pytest.raises(TypeError, match="takes 3 coordinates, got 2"):
            PolyExp2D.monomial(1, xrate=1, yrate=1).evaluate(0.5, 1.0)
        with pytest.raises(TypeError, match="takes 2 coordinates, got 3"):
            mono(1, rate=1).evaluate(0.5, 1.0, 2.0)


class TestGuards:
    def test_exponent_cap_on_construction(self):
        with pytest.raises(DegreeOverflowError):
            mono(1, xpow=pe.MAX_EXPONENT + 1, rate=1)

    def test_exponent_cap_via_multiplication(self):
        f = mono(1, xpow=400, rate=1)
        with pytest.raises(DegreeOverflowError):
            product(f, f)

    def test_negative_rate_rejected(self):
        with pytest.raises(OutOfClassError):
            mono(1, rate=-1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(OutOfClassError):
            PolyExp1D({1: {(-1, 0): 1}})


TOP = pe.MAX_EXPONENT
# every field at the cap, alone and together, and next to a field at 0
CORNERS = {
    PolyExp1D: [(TOP, TOP), (TOP, 0), (0, TOP), (1, TOP - 1), (0, 0)],
    PolyExp2D: [(TOP, TOP, TOP), (TOP, 0, TOP), (0, TOP, 0), (0, 0, TOP), (1, TOP, TOP - 1)],
}
RATE = {PolyExp1D: 1, PolyExp2D: (1, 2)}


class _Counted(int):
    """An int numerator that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * other

    __rmul__ = __mul__


class TestKeyLayout:
    """One packed integer per monomial: at the cap no field carries into the next,
    and below 0 none borrows from it."""

    @pytest.mark.parametrize("cls", [PolyExp1D, PolyExp2D])
    def test_every_field_at_the_cap_round_trips(self, cls):
        corners = CORNERS[cls]
        v = cls({RATE[cls]: {e: F(k + 1, 3) for k, e in enumerate(corners)}})
        # terms() in order of the exponent tuple, which is not the order of the keys
        assert [(e, c) for _, e, c in v.terms()] == sorted(
            (e, F(k + 1, 3)) for k, e in enumerate(corners))
        assert from_obj(v.to_obj()) == v
        assert v.to_obj() == from_obj(v.to_obj()).to_obj()
        assert v.t_degree() == TOP
        assert v.term_count() == len(corners)

    def test_mul_x_up_to_the_cap(self):
        f = PolyExp1D({1: {(TOP - 2, TOP): 1, (0, 0): 2}})
        assert {(e, c) for _, e, c in f.mul_x(2).terms()} == {((TOP, TOP), 1), ((2, 0), 2)}
        with pytest.raises(DegreeOverflowError, match=f"exponent {TOP + 1} exceeds"):
            f.mul_x(3)

    @pytest.mark.parametrize("cls", [PolyExp1D, PolyExp2D])
    def test_time_antiderivative_up_to_the_cap(self, cls):
        below = sorted({e[:-1] + (TOP - 1,) for e in CORNERS[cls]})
        v = cls({RATE[cls]: dict.fromkeys(below, 1)})
        got = v.time_antiderivative()
        assert [(e, c) for _, e, c in got.terms()] == sorted(
            (e[:-1] + (TOP,), F(1, TOP)) for e in below)
        with pytest.raises(DegreeOverflowError, match=f"exponent {TOP + 1} exceeds"):
            got.time_antiderivative()

    @pytest.mark.parametrize("dim, borel", [(1, 0), (1, 1), (2, 0), (2, 2)])
    def test_product_past_the_cap_raises_before_any_pair(self, dim, borel):
        # one field at the cap against x^1 (or the convolution's +1) in that field
        for s in range(0, pe._W * (dim + 1), pe._W):
            ga = (1, {TOP << s: _Counted(3), 0: _Counted(5)})
            gb = (1, {(0 if s < pe._W * borel else 1 << s): _Counted(7)})
            _Counted.products = 0
            with pytest.raises(DegreeOverflowError, match=f"exponent {TOP + 1} exceeds"):
                pe._group_product(ga, gb, dim, borel)
            assert _Counted.products == 0

    def test_operators_past_the_cap_raise(self):
        f = PolyExp1D({1: {(TOP, 0): 1}})
        h = PolyExp2D({(1, 2): {(0, TOP, 0): 1}})
        for v in (f, h):
            with pytest.raises(DegreeOverflowError):
                v.convolve(v)
            with pytest.raises(DegreeOverflowError):
                v.mul_tpoly({TOP + 1: 1})
            v.mul_tpoly({TOP: 1})  # the t field alone reaches the cap
        with pytest.raises(DegreeOverflowError):
            f.tail_integral(1)

    def test_negative_powers_raise_without_borrow(self):
        # x^0 t^1 shifted by x^-1 would read x^(2^W - 1) t^0 if it borrowed
        f = PolyExp1D({1: {(0, 1): 1, (3, 0): 2}})
        with pytest.raises(OutOfClassError, match="got -1"):
            f.mul_x(-1)
        with pytest.raises(OutOfClassError, match="below degree 0"):
            f.tail_integral(-1)
        g = PolyExp1D({1: {(3, 0): 1, (5, 2): 2}})
        assert {e for _, e, _ in g.mul_x(-3).terms()} == {(0, 0), (2, 2)}
        assert g.tail_integral(-3) == (g.mul_x(-3).tail_integral(0))


class TestSerialization:
    def test_round_trip_1d(self):
        rng = random.Random(37)
        for _ in range(20):
            f = random_polyexp(rng)
            assert from_obj(f.to_obj()) == f

    def test_round_trip_2d(self):
        f = PolyExp2D.monomial(F(-3, 7), xpow=2, ypow=1, tpow=3, xrate=F(1, 2), yrate=2)
        g = f + PolyExp2D.monomial(5, xrate=F(1, 2), yrate=2)
        assert from_obj(g.to_obj()) == g

    def test_stable_ordering(self):
        f = mono(1, rate=2) + mono(1, rate=1) + mono(1, xpow=3, rate=1)
        obj = f.to_obj()
        assert [g["rate"] for g in obj["terms"]] == ["1", "2"]
        assert obj["terms"][0]["monomials"][0]["xpow"] == 0

    def test_rejects_unknown_dim(self):
        with pytest.raises(OutOfClassError):
            from_obj({"dim": 3, "terms": []})
