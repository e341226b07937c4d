"""Tests for error norms, series moments, bounds and tables."""

import json
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from pbeseries import analysis
from pbeseries.analysis import (
    ErrorTable,
    COAG2D_FACTORS,
    InvalidSpecError,
    coag_contraction,
    error_table_l1,
    error_table_pointwise,
    frag_contraction,
    geometric_bound,
    l1_error,
    series_moment,
    sup_abs_moment00,
    sup_l1_norm,
)
from pbeseries.cli import main
from pbeseries.exact import (ConstantKernelSolution, LinearBreakageSolution, ProductKernelSolution,
                             SumKernelSolution)
from pbeseries.polyexp import MixedRatesError, PolyExp1D, ZeroRateError, tpoly_eval
from pbeseries.problems import CoagKernel, FragSpec, Model, exponential_ic
from pbeseries.series import iterate_accelerated


@pytest.fixture(scope="module")
def constant_series(constant_kernel_problem):
    return iterate_accelerated(constant_kernel_problem, 3)


@pytest.fixture(scope="module")
def sum_series(sum_kernel_problem):
    return iterate_accelerated(sum_kernel_problem, 4)


class TestL1Error:
    def test_vanishes_on_identical_integrands(self, constant_series):
        # at t = 0 the truncation and the exact solution are both e^{-x}
        err = l1_error(constant_series.truncated(0), ConstantKernelSolution(), 0.0)
        assert err <= 1e-14

    def test_third_order_cell(self, constant_series):
        err = l1_error(constant_series.truncated(3), ConstantKernelSolution(), 0.5)
        assert abs(err - 1.4202e-3) <= 1e-6

    def test_monotone_in_order(self, constant_series):
        sol = ConstantKernelSolution()
        errs = [l1_error(constant_series.truncated(n), sol, 1.0) for n in (1, 2, 3)]
        assert errs[0] > errs[1] > errs[2]

    def test_nonnegative(self, constant_series):
        assert l1_error(constant_series.truncated(2), ConstantKernelSolution(), 0.3) >= 0


class TestPointwise:
    def test_published_rows(self, sum_series):
        psi4 = sum_series.truncated(4)
        sol = SumKernelSolution()
        approx, ex = psi4.evaluate(5.0, 0.2), sol.evaluate(5.0, 0.2)
        err = abs(approx - ex)
        assert abs(ex - 0.0129) < 1e-4
        assert abs(err - 2.71288e-5) <= 2e-10
        err = abs(psi4.evaluate(5.0, 1.0) - sol.evaluate(5.0, 1.0))
        assert abs(err - 0.0102) <= 2e-4

    def test_zero_at_initial_time(self, constant_series):
        psi3 = constant_series.truncated(3)
        err = abs(psi3.evaluate(1.3, 0.0) - ConstantKernelSolution().evaluate(1.3, 0.0))
        assert err <= 1e-15


class TestSeriesMoment:
    def test_mass_constant(self, constant_series):
        assert series_moment(constant_series, 3, 1) == {0: F(1)}

    def test_count_taylor(self, constant_series, constant_kernel_problem):
        from pbeseries.series import iterate_classical

        expected = {0: F(1), 1: F(-1, 2), 2: F(1, 4), 3: F(-1, 8)}
        # accelerated partial sums agree with the Taylor polynomial of
        # 2/(2+t) through degree 3 (they carry a higher-order tail)
        mu0 = series_moment(constant_series, 3, 0)
        assert {j: c for j, c in mu0.items() if j <= 3} == expected
        # the classical partial sum IS that polynomial
        classical = iterate_classical(constant_kernel_problem, 3)
        assert series_moment(classical, 3, 0) == expected

    def test_2d_orders(self, bivariate_problem):
        s = iterate_accelerated(bivariate_problem, 2)
        assert series_moment(s, 2, 1, 0) == {0: F(1, 25)}
        assert series_moment(s, 2, 0, 1) == {0: F(1, 25)}


class TestBounds:
    def test_coag_reference_point(self):
        L, contraction = coag_contraction(1.0, 1.0, 0.05)
        assert L == 2.0
        assert abs(contraction - 0.05**2 * math.exp(0.2) * 1.6) <= 1e-15
        assert abs(contraction - 4.886e-3) <= 2e-6
        assert geometric_bound(contraction, 3, 1.0) == contraction**3 / (1.0 - contraction)

    def test_vanishing_horizon(self):
        for t0 in (1e-3, 1e-5):
            _, contraction = coag_contraction(1.0, 1.0, t0)
            assert contraction < 4 * t0**2
            assert geometric_bound(contraction, 1, 1.0) < 5 * t0**2

    def test_zeroth_order_bound(self):
        _, contraction = coag_contraction(1.0, 1.0, 0.05)
        assert abs(geometric_bound(contraction, 0, 2.0) - 2.0 / (1.0 - contraction)) <= 1e-15

    def test_frag_quarter(self):
        assert frag_contraction(1, 1.0, 0.5) == 0.25
        assert geometric_bound(0.25, 1, 1.0) == 0.25 / 0.75

    def test_frag_boundary_not_contractive(self):
        contraction = frag_contraction(1, 1.0, 1.0)
        assert contraction == 1.0
        assert math.isinf(geometric_bound(contraction, 2, 1.0))

    def test_frag_rational_case(self):
        contraction = frag_contraction(2, 2.0, 0.5)
        assert abs(contraction - 1.0 / 16.0) <= 1e-15
        bound = geometric_bound(contraction, 3, 1.0)
        assert abs(bound - (1.0 / 16.0) ** 3 / (15.0 / 16.0)) <= 1e-18

    def test_monotone_in_t0_and_m(self):
        thetas = [coag_contraction(1.0, 1.0, t0)[1] for t0 in (0.05, 0.10, 0.15)]
        assert thetas[0] < thetas[1] < thetas[2]
        bounds = [geometric_bound(theta, 2, 1.0) for theta in thetas]
        assert bounds[0] < bounds[1] < bounds[2]
        by_m = [geometric_bound(coag_contraction(1.0, 1.0, 0.1)[1], m, 1.0) for m in (1, 2, 3)]
        assert by_m[0] > by_m[1] > by_m[2]
        thetas = [frag_contraction(1, 1.0, t0) for t0 in (0.3, 0.5, 0.7)]
        assert thetas[0] < thetas[1] < thetas[2]

    def test_2d_variants(self):
        _, contraction = coag_contraction(1.0, 1.0, 0.05)
        pair = {label: factor * contraction for label, factor in COAG2D_FACTORS.items()}
        assert pair == {"statement": 2 * contraction, "derived": contraction}
        assert geometric_bound(pair["statement"], 3, 1.0) > geometric_bound(pair["derived"], 3, 1.0)

    def test_input_validation(self):
        with pytest.raises(InvalidSpecError):
            coag_contraction(-1.0, 1.0, 0.1)
        with pytest.raises(InvalidSpecError):
            frag_contraction(0, 1.0, 0.1)
        for bad in ({"m": -1, "v1_norm": 1.0}, {"m": 1, "v1_norm": -1.0}):
            with pytest.raises(InvalidSpecError, match="bound inputs out of range"):
                geometric_bound(0.5, **bad)

    def test_lambda_underflow_is_an_overflow(self):
        with pytest.raises(OverflowError, match="underflows to 0"):
            frag_contraction(3, 1e-100, 0.25)


# Whether Theorem 4's bound is at least the largest measured l1_error(Psi_m)
# over 11 times in [0, t0], for u0 = e^{-x} and T = lambda = 1.  The bound
# scales as t0^{2m+1} and the error as t0^{m+1}, so small t0 fall below: the
# bound holds on the constant kernel from t0 = 0.15, on the sum and product
# kernels from t0 = 0.2, and on linear breakage nowhere here.  A change to the
# bound, the norm or the engines shows up as a flipped cell.
NO, YES = (False, False, False), (True, True, True)  # for m = 1, 2, 3
BOUND_HOLDS = {
    "constant": {0.05: NO, 0.1: NO, 0.15: YES, 0.2: YES, 0.25: YES},
    "sum": {0.05: NO, 0.1: NO, 0.15: NO, 0.2: YES, 0.25: YES},
    "product": {0.05: NO, 0.1: NO, 0.15: NO, 0.2: YES, 0.25: YES},
    "breakage": {0.05: NO, 0.1: NO, 0.15: NO, 0.2: NO, 0.25: NO},
}
KERNELS = {"constant": (CoagKernel.CONSTANT, ConstantKernelSolution),
           "sum": (CoagKernel.SUM, SumKernelSolution),
           "product": (CoagKernel.PRODUCT, ProductKernelSolution)}


@pytest.mark.parametrize("name", list(BOUND_HOLDS))
def test_theorem_4_against_the_measured_error(name):
    u0 = exponential_ic(1)
    if name in KERNELS:
        kernel, solution = KERNELS[name]
        problem, sol = Model(u0, kernel), solution()
    else:
        problem = Model(u0, frag=FragSpec(F(2), 1, F(1), 1))
        sol = LinearBreakageSolution()
    series = iterate_accelerated(problem, 3)
    holds = {}
    for t0 in BOUND_HOLDS[name]:
        if problem.kernel is None:
            contraction = frag_contraction(1, 1.0, t0)
        else:
            _, contraction = coag_contraction(sup_l1_norm(u0, t0), 1.0, t0)
        v1_norm = sup_l1_norm(series.components[1], t0)
        # the cells are l1_error(Psi_m) at each time, the exact solution sampled once
        table = error_table_l1(series, sol, (1, 2, 3), np.linspace(0.0, t0, 11).tolist())
        holds[t0] = tuple(geometric_bound(contraction, m, v1_norm) >= max(row)
                          for m, row in zip((1, 2, 3), table.cells))
    assert holds == BOUND_HOLDS[name]


class TestSupNorm:
    def test_unit_exponential(self):
        assert sup_l1_norm(PolyExp1D.monomial(1, rate=1), 7.0) == 1.0

    def test_growing_in_time(self):
        f = PolyExp1D.monomial(1, tpow=1, rate=1)
        assert abs(sup_l1_norm(f, 2.0) - 2.0) <= 1e-14

    def test_first_component(self, constant_series):
        # v1 = (1/2) t e^{-x}(x-2): sup over [0,1] is half the absolute
        # integral of (x-2)e^{-x}, reached at s = 1
        got = sup_l1_norm(constant_series.components[1], 1.0)
        ref, _ = integrate.quad(lambda x: 0.5 * abs(x - 2.0) * math.exp(-x), 0, 60)
        assert abs(got - ref) <= 1e-9
        assert abs(got - 0.5 * (1.0 + 2.0 * math.exp(-2.0))) <= 1e-9

    def test_invalid(self, bivariate_problem):
        with pytest.raises(InvalidSpecError):
            sup_l1_norm(PolyExp1D.monomial(1, rate=1), -1.0)
        with pytest.raises(InvalidSpecError):
            sup_abs_moment00(bivariate_problem.u0, -1.0)


def _no_quad(*args, **kwargs):
    raise AssertionError("quad called on a single-rate value")


def _from_roots(c, roots, rate, tpow=1):
    """c * prod (x - r) * t^tpow * e^{-rate x} with exact coefficients."""
    coeffs = [F(c)]
    for r in roots:
        shifted = [F(0)] + coeffs
        for i, k in enumerate(coeffs):
            shifted[i] -= r * k
        coeffs = shifted
    return PolyExp1D({rate: {(i, tpow): k for i, k in enumerate(coeffs)}})


def _split_quad(c, roots, rate):
    """int_0^inf |c prod (x - r)| e^{-rate x} dx by quad between the roots."""
    def g(x):
        return abs(c * math.prod(x - float(r) for r in roots)) * math.exp(-float(rate) * x)

    ends = [0.0] + sorted(float(r) for r in roots) + [math.inf]
    return sum(integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(ends, ends[1:]))


def test_quadrature_is_scipys():
    # analysis.integrate stands in for scipy.integrate until first use
    assert analysis.integrate.quad is integrate.quad


class TestExactSupNorm:
    def test_random_single_rate_matches_split_quad(self, monkeypatch):
        rng = random.Random(20230108)
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        for _ in range(25):
            degree = rng.randint(1, 6)
            roots = sorted({F(rng.randint(1, 799), 100) for _ in range(degree)})
            c = rng.choice([-1, 1]) * F(rng.randint(1, 50), rng.randint(1, 50))
            rate = F(rng.randint(1, 32), 4)
            # f = t * c prod (x - r) e^{-ax}: the sup over [0, 1] sits at t = 1
            got = sup_l1_norm(_from_roots(c, roots, rate), 1.0)
            ref = _split_quad(float(c), roots, rate)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (c, roots, rate)

    def test_complex_roots_do_not_count(self, monkeypatch):
        # (x^2 - 2x + 5)(x - 3): Descartes allows three positive roots on
        # (0, inf), and bisection narrows them to the one bracket holding x = 3
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        f = PolyExp1D({1: {(3, 0): 1, (2, 0): -5, (1, 0): 11, (0, 0): -15}})
        ref, _ = integrate.quad(
            lambda x: abs((x * x - 2 * x + 5) * (x - 3)) * math.exp(-x), 0, 3, epsrel=1e-13)
        tail, _ = integrate.quad(
            lambda x: abs((x * x - 2 * x + 5) * (x - 3)) * math.exp(-x), 3, math.inf,
            epsrel=1e-13)
        assert sup_l1_norm(f, 0.0) == pytest.approx(ref + tail, rel=1e-12)

    def test_repeated_root_is_exact(self, monkeypatch):
        # (x - 1)^2 (x - 3) keeps its sign at the double root, so only 3 splits
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        roots = [F(1), F(1), F(3)]
        f = _from_roots(1, roots, 1, tpow=0)
        assert analysis._sign_changes(f.collapse_t(0)[1][1]) == [3.0]
        got = sup_l1_norm(f, 0.0)
        assert got == pytest.approx(_split_quad(1.0, roots, 1), rel=1e-12)

    @pytest.mark.parametrize("gap", [F(1, 10**9), F(1, 10**12), F(1, 10**15), F(1, 10**17)])
    def test_clustered_roots_are_exact(self, monkeypatch, gap):
        # 1 and 1 + gap lie closer together than numpy.roots separates roots;
        # 1e-17 is within one float gap of 1, where p's sign does not change net
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        roots = [F(1), 1 + gap, F(3)]
        f = _from_roots(1, roots, 1, tpow=0)
        if gap < math.ulp(1.0):
            assert analysis._sign_changes(f.collapse_t(0)[1][1]) == [3.0]
        else:
            low, middle, high = analysis._sign_changes(f.collapse_t(0)[1][1])
            assert (low, high) == (1.0, 3.0)
            assert abs(F(middle) - roots[1]) < F(math.ulp(middle))
        with mpmath.workdps(30):
            r = [mpmath.mpf(k.numerator) / k.denominator for k in roots]
            ref = mpmath.quad(lambda x: abs((x - r[0]) * (x - r[1]) * (x - r[2])) * mpmath.exp(-x),
                              [0, *r, mpmath.inf])
        assert sup_l1_norm(f, 0.0) == pytest.approx(float(ref), rel=1e-14)

    def test_triple_root_gives_the_even_neighbour(self):
        # 224/9 lies between two floats; the nearest is 24.88888888888889, and a
        # root that p changes sign across rounds to the even one of the two
        coeffs = _polynomial(1, [F(224, 9)] * 3, [1], 0)
        assert analysis._sign_changes(coeffs) == [24.888888888888886]
        assert float(F(224, 9)) == 24.88888888888889
        # 1 + 2^-53 lies halfway between 1.0 and the next float, and no bracket
        # around it has ends that round to one float
        tie = 1 + F(1, 2**53)
        assert analysis._sign_changes(_polynomial(1, [tie] * 3, [1], 0)) == [1.0]
        assert analysis._sign_changes(_polynomial(1, [tie, tie, F(3)], [1], 0)) == [3.0]

    def test_root_on_a_split_point(self):
        # the bound is 32, so bisection halves (0, 32) to (0, 8), whose
        # middle 4 is a root: the split moves to 2 instead
        coeffs = _polynomial(1, [F(1), F(4), F(7)], [1], 0)
        assert analysis._root_bound(analysis._stripped(coeffs)) == 32
        assert analysis._sign_changes(coeffs) == [1.0, 4.0, 7.0]

    @pytest.mark.parametrize("f", [
        PolyExp1D({0: {(1, 0): 1, (0, 0): -1}}),
        PolyExp1D({0: {(0, 0): 1}, 1: {(1, 0): -1}}),
    ], ids=["x-1", "1-xe^-x"])
    def test_mixed_sign_rate_zero_diverges(self, monkeypatch, f):
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        with pytest.raises(ZeroRateError):
            sup_l1_norm(f, 0.0)

    def test_rate_zero_group_that_vanishes_at_s_is_dropped(self, monkeypatch):
        # f = t + (x - 1) e^{-x}: the rate-0 group diverges at s = 0 too, where
        # it vanishes, and the sup-norm refuses f's two t powers at any t0
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        f = PolyExp1D({0: {(0, 1): 1}, 1: {(1, 0): 1, (0, 0): -1}})
        for s in (0.0, 0.5):
            with pytest.raises(ZeroRateError):
                analysis._l1_at_time(f, s)
            with pytest.raises(InvalidSpecError):
                sup_l1_norm(f, s)

    def test_two_rates_go_through_quad(self, monkeypatch):
        # several rates are refused with the error that exits 3, and nothing integrates
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        f = PolyExp1D({1: {(1, 0): 1, (0, 0): -1}, 2: {(0, 0): F(1, 2)}})
        with pytest.raises(MixedRatesError):
            sup_l1_norm(f, 0.0)

    @pytest.mark.parametrize("t0", [0.05, 0.25, 1.0])
    def test_first_components_in_closed_form(
        self, constant_kernel_problem, binary_breakage_problem, t0
    ):
        # v_1 = t (x/2 - 1) e^{-x} and t (2 - x) e^{-x}
        v1 = iterate_accelerated(constant_kernel_problem, 1).components[1]
        assert sup_l1_norm(v1, t0) == pytest.approx(t0 * (0.5 + math.exp(-2)), rel=1e-14)
        v1 = iterate_accelerated(binary_breakage_problem, 1).components[1]
        assert sup_l1_norm(v1, t0) == pytest.approx(t0 * (1 + 2 * math.exp(-2)), rel=1e-14)

    def test_norm_whose_antiderivative_passes_the_float_range(self):
        # binary breakage of x^p e^{-x}: Q(r) at the root near 134.4 is past the
        # float range but Q(r) e^{-r} is not.  The reference is mpmath at 60
        # digits through the same antiderivative, and quadrature between the roots.
        def v1(p):
            problem = Model(PolyExp1D.monomial(1, xpow=p, rate=1), frag=FragSpec(F(2), 1, F(1), 1))
            return iterate_accelerated(problem, 1).components[1]

        got = sup_l1_norm(v1(150), 0.1)
        assert got == pytest.approx(2.074363766597545652472065e264, rel=1e-14)
        # p = 170: the norm is 3.0157e308, past the float range
        with pytest.raises(OverflowError, match="sums to inf"):
            sup_l1_norm(v1(170), 0.1)


def _polynomial(c, roots, extra, m):
    """x^m * c * prod (x - r) * extra(x) times a positive integer, as an integer coefficient list.

    Each root r = n/d gives the factor d x - n, and c gives its numerator.
    """
    coeffs = [0] * m + [F(c).numerator]
    for r in roots:
        coeffs = [r.denominator * a - r.numerator * b for a, b in zip([0] + coeffs, coeffs + [0])]
    out = [0] * (len(coeffs) + len(extra) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(extra):
            out[i + j] += a * b
    return out


ROOTS = st.lists(st.fractions(F(1, 10), 10, max_denominator=50), min_size=1, max_size=4)
NONZERO = st.fractions(-1000, 1000, max_denominator=1000).filter(bool)


@given(NONZERO, ROOTS, st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any),
       st.integers(0, 3), st.integers(-10**6, 10**6).filter(bool))
def test_sign_changes_ignore_a_constant_factor(c, roots, extra, m, lam):
    # positive roots make the coefficients mixed-sign; x^m adds zero low terms
    coeffs = _polynomial(c, roots, extra, m)
    scaled = [lam * k for k in coeffs]
    assert analysis._sign_changes(scaled) == analysis._sign_changes(coeffs)


POSITIVE_ROOTS = st.dictionaries(st.fractions(F(1, 10), 10, max_denominator=50),
                                 st.integers(1, 4), max_size=4)


@given(NONZERO, POSITIVE_ROOTS, st.integers(0, 9), st.booleans())
def test_sign_changes_are_the_odd_multiplicity_roots(c, roots, shift, complex_pair):
    # x + shift and x^2 + 1 add no positive root
    extra = [shift, 1, shift, 1] if complex_pair else [shift, 1]
    coeffs = _polynomial(c, [r for r, k in roots.items() for _ in range(k)], extra, 0)
    got = analysis._sign_changes(coeffs)
    assert len(got) == sum(k % 2 for k in roots.values())
    assert got == sorted(got)
    p = analysis._stripped(coeffs)
    for x in got:
        below = analysis._value(p, F(math.nextafter(x, 0.0)))[0]
        above = analysis._value(p, F(math.nextafter(x, math.inf)))[0]
        assert below * above < 0


def _first_components(problem):
    return iterate_accelerated(problem, 1).components


ONE_D = ["constant_kernel_problem", "sum_kernel_problem", "product_kernel_problem",
         "binary_breakage_problem", "coupled_halfx_problem", "coupled_twox_problem"]


class TestSupNormShapes:
    """The one sampling rule, bit-identical to the max over every sample."""

    @staticmethod
    def per_sample_max(f, t0):
        return max(analysis._l1_at_time(f, float(s)) for s in np.linspace(0.0, t0, 101))

    @pytest.mark.parametrize("fixture", ONE_D)
    @pytest.mark.parametrize("t0", [0.05, 0.173, 1.0])
    def test_equals_the_per_sample_max(self, fixture, t0, request):
        problem = request.getfixturevalue(fixture)
        for f in _first_components(problem):
            assert sup_l1_norm(f, t0) == self.per_sample_max(f, t0)

    def test_several_t_powers(self, constant_kernel_problem, coupled_halfx_problem):
        # ahpetm's v_2 and v_3 mix t powers, so the norm's peak is not known in advance
        for problem in (constant_kernel_problem, coupled_halfx_problem):
            for f in iterate_accelerated(problem, 3).components[2:]:
                assert len({e[-1] for _, e, _ in f.terms()}) > 1
                for t0 in (0.25, 1.283):
                    with pytest.raises(InvalidSpecError, match="one power of t"):
                        sup_l1_norm(f, t0)

    @pytest.mark.parametrize("t0", [0.05, 0.25, 1.283])
    def test_one_t_power_is_evaluated_once_at_t0(self, monkeypatch, request, t0):
        # e^{-x} has no sign variation, (x - 1) e^{-2x} one certified root
        mixed = PolyExp1D.monomial(1, xpow=1, rate=2) - PolyExp1D.monomial(1, rate=2)
        v1s = [_first_components(request.getfixturevalue(name))[1] for name in ONE_D]
        v2 = iterate_accelerated(request.getfixturevalue("constant_kernel_problem"),
                                 2).components[2]
        cases = [(f, self.per_sample_max(f, t0)) for f in (exponential_ic(), mixed, *v1s)]
        calls, real = [], analysis._l1_at_time

        def spy(f, s):
            calls.append(s)
            return real(f, s)

        monkeypatch.setattr(analysis, "_l1_at_time", spy)
        for f, expected in cases:
            calls.clear()
            assert sup_l1_norm(f, t0) == expected
            assert calls == [t0]
        calls.clear()
        with pytest.raises(InvalidSpecError):
            sup_l1_norm(v2, t0)
        assert calls == []


SHORTCUT_T0 = [0.05, 0.173, 1.283]


@given(NONZERO, st.integers(0, 60), st.fractions(F(1, 100), 100, max_denominator=100),
       st.sampled_from(SHORTCUT_T0))
def test_single_signed_monomials_keep_the_moment_shortcut_floats(c, p, a, t0):
    # no sign variation: one rounding of the exact int_0^inf P e^{-ax} dx, the
    # same rational the removed |moment(0)| shortcut rounded once
    f = PolyExp1D.monomial(c, xpow=p, rate=a)
    assert sup_l1_norm(f, t0) == abs(tpoly_eval(f.moment(0), t0))


@pytest.mark.parametrize("fixture", ONE_D)
@pytest.mark.parametrize("t0", SHORTCUT_T0)
def test_single_signed_u0_keep_the_moment_shortcut_floats(fixture, t0, request):
    # every 1-D v_1 has mixed-sign coefficients, so u0 is what took the shortcut
    u0, v1 = _first_components(request.getfixturevalue(fixture))
    assert {c > 0 for _, _, c in v1.terms()} == {True, False}
    assert sup_l1_norm(u0, t0) == abs(tpoly_eval(u0.moment(0), t0))


@pytest.mark.parametrize("t0", [0.01, 0.173, 1.0])
def test_sup_abs_moment00_equals_the_per_sample_max(bivariate_problem, t0):
    # u0 and v_1 have one t power each, v_2 several
    *components, v2 = iterate_accelerated(bivariate_problem, 2).components
    assert len({e[-1] for _, e, _ in v2.terms()}) > 1
    for f in components:
        mu00 = f.moment(0, 0)
        assert sup_abs_moment00(f, t0) == max(abs(tpoly_eval(mu00, float(s)))
                                              for s in np.linspace(0.0, t0, 101))
    with pytest.raises(InvalidSpecError, match="one power of t"):
        sup_abs_moment00(v2, t0)


# the 1-D bounds commands of the README and the published tables
BOUNDS_1D = [
    ["--model", "coag", "--kernel", "constant", "--u0", "exp:1",
     "--t0", "0.05", "--T", "1", "--m", "3"],
    ["--model", "coag", "--kernel", "constant", "--u0", "exp:1",
     "--t0", "0.25", "--T", "1", "--m", "3"],
    ["--model", "frag", "--frag", "2,1,1,1", "--u0", "exp:1",
     "--t0", "0.25", "--lam", "1", "--m", "3"],
]


class TestStructure:
    """Which path does the work, by counts rather than timings."""

    def test_single_rate_norms_never_call_quad(
        self, monkeypatch, capsys, constant_series, binary_breakage_problem
    ):
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        frag = iterate_accelerated(binary_breakage_problem, 1)
        for f in (*constant_series.components[:2], *frag.components):
            assert sup_l1_norm(f, 0.25) >= 0.0
        for argv in BOUNDS_1D:
            assert main(["bounds", *argv]) == 0
        assert capsys.readouterr().err == ""

    def test_error_table_samples_exact_solution_once_per_time(self, constant_series):
        calls = []

        class Counting:
            def evaluate_grid(self, xs, t):
                calls.append((len(xs), t))
                return ConstantKernelSolution().evaluate_grid(xs, t)

        times = [0.5, 1.0]
        table = error_table_l1(constant_series, Counting(), [1, 2, 3], times)
        assert calls == [(5001, t) for t in times]
        # the shared grids reproduce the per-cell l1_error exactly
        sol = ConstantKernelSolution()
        assert table.cells == tuple(
            tuple(l1_error(constant_series.truncated(n), sol, t) for t in times)
            for n in (1, 2, 3)
        )


class TestErrorTables:
    def test_l1_table_shape(self, constant_series, capsys):
        table = error_table_l1(
            constant_series, ConstantKernelSolution(), [2, 3], [0.5, 1.0]
        )
        assert table.row_labels == (2, 3)
        assert table.col_labels == (0.5, 1.0)
        assert len(table.cells) == 2 and len(table.cells[0]) == 2
        assert main(["error-table", "--model", "coag", "--kernel", "constant", "--u0", "exp:1",
                     "--terms", "2:3", "--t", "0.5,1"]) == 0
        csv = capsys.readouterr().out
        assert csv.startswith("# norm = L1[0,50]")
        assert csv.count("\n") == 4

    def test_pointwise_table_columns(self, sum_series, capsys):
        table = error_table_pointwise(sum_series, SumKernelSolution(), 5.0, [0.2, 0.4])
        assert table.col_labels == ("exact", "approx", "abs_error")
        assert main(["error-table", "--model", "coag", "--kernel", "sum", "--u0", "exp:1",
                     "--terms", "4", "--x", "5", "--t", "0.2,0.4", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["row_labels"] == [0.2, 0.4]

    def test_empty_axes_rejected(self, constant_series, sum_series):
        with pytest.raises(InvalidSpecError):
            error_table_l1(constant_series, ConstantKernelSolution(), [], [1.0])
        with pytest.raises(InvalidSpecError):
            error_table_pointwise(sum_series, SumKernelSolution(), 5.0, [])

    def test_arrays_are_sequences_like_lists(self, constant_series, sum_series):
        """A numpy array passes where the equal list does, and gives the same cells."""
        sol, times = ConstantKernelSolution(), np.linspace(0.0, 0.2, 3)
        assert (error_table_l1(constant_series, sol, np.array([1, 2]), times).cells
                == error_table_l1(constant_series, sol, [1, 2], times.tolist()).cells)
        sol, times = SumKernelSolution(), np.array([0.1, 0.2])
        assert (error_table_pointwise(sum_series, sol, 5.0, times).cells
                == error_table_pointwise(sum_series, sol, 5.0, times.tolist()).cells)
        with pytest.raises(InvalidSpecError):
            error_table_l1(constant_series, ConstantKernelSolution(), np.array([], int), [1.0])
        with pytest.raises(InvalidSpecError):
            error_table_l1(constant_series, ConstantKernelSolution(), [1], np.array([]))
        with pytest.raises(InvalidSpecError):
            error_table_pointwise(sum_series, SumKernelSolution(), 5.0, np.array([]))

    def test_nonfinite_cells_rejected(self):
        with pytest.raises(InvalidSpecError):
            ErrorTable("n", "t", (1,), (1.0,), ((math.inf,),), "test")

    def test_ragged_cells_rejected(self):
        with pytest.raises(InvalidSpecError):
            ErrorTable("n", "t", (1, 2), (1.0,), ((0.1,),), "test")