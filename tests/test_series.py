"""Tests for the iteration engines against known closed forms."""

from fractions import Fraction as F

import pytest
import sympy as sp

import pbeseries.polyexp as pe
import pbeseries.series as series
from pbeseries.polyexp import DegreeOverflowError, PolyExp1D, WorkBudgetError
from pbeseries.problems import (
    CoagKernel,
    FragSpec,
    Model,
    coag_bilinear,
    coag_operand,
    exponential_ic,
    frag_rhs,
    rhs,
)
from pbeseries.series import (
    Method,
    iterate_accelerated,
    iterate_classical,
)

from conftest import T, X, assert_sympy_equal, to_sympy


# Published closed forms for the benchmark components (exact rationals).
CONSTANT_V1 = sp.Rational(1, 2) * T * sp.exp(-X) * (X - 2)
CONSTANT_V2 = (
    T**3 * (X**3 / 144 - X**2 / 12 + X / 4 - sp.Rational(1, 6)) * sp.exp(-X)
    + T**2 * (X**2 / 8 - 3 * X / 4 + sp.Rational(3, 4)) * sp.exp(-X)
)
CONSTANT_V3 = sp.Rational(1, 40642560) * T**3 * sp.exp(-X) * (
    T**4 * X**7
    + 14 * T**3 * (7 - 4 * T) * X**6
    + 588 * (T - 2) * T**2 * (2 * T - 3) * X**5
    - 2940 * T * (T * (T * (4 * T - 21) + 36) - 24) * X**4
    + 11760 * (5 * (T - 4) * T * ((T - 3) * T + 6) + 48) * X**3
    - 35280 * (T * (T * (T * (4 * T - 35) + 120) - 240) + 192) * X**2
    + 70560 * (T * (T * (T * (2 * T - 21) + 90) - 240) + 288) * X
    - 10080 * (T * (T * (T * (4 * T - 49) + 252) - 840) + 1344)
)

SUM_V1 = sp.Rational(1, 2) * T * sp.exp(-X) * (X**2 - 2 * X - 2)
SUM_V2 = sp.Rational(1, 720) * T**2 * sp.exp(-X) * (
    T * X * (X**5 - 10 * X**4 - 20 * X**3 + 240 * X**2 - 120 * X - 240)
    + 60 * X**4 - 360 * X**3 - 180 * X**2 + 1080 * X + 360
)

PRODUCT_V1 = sp.Rational(1, 12) * T * sp.exp(-X) * X * (X**2 - 12)
PRODUCT_V2 = sp.Rational(1, 544320) * T**2 * sp.exp(-X) * X**2 * (
    T * X**7 - 144 * T * X**5 + 3024 * T * X**3 + 756 * X**4 - 45360 * X**2 + 272160
)

COUPLED_HALF_V1 = sp.Rational(1, 3) * T * sp.exp(-2 * X) * (4 * X**3 - 6 * X**2 - 6 * X + 3)
COUPLED_HALF_V2 = sp.Rational(1, 3780) * T**2 * sp.exp(-2 * X) * (
    8 * T * X**7 - 56 * T * X**6 - 84 * T * X**5 + 840 * T * X**4
    - 420 * T * X**3 - 1260 * T * X**2 + 630 * T * X
    + 504 * X**5 - 2520 * X**4 - 1890 * X**3 + 9450 * X**2 + 945 * X - 1890
)

COUPLED_TWOX_V1 = sp.Rational(8, 3) * T * sp.exp(-4 * X) * (32 * X**3 - 24 * X**2 - 12 * X + 3)
COUPLED_TWOX_V2 = sp.Rational(8, 945) * T**2 * sp.exp(-4 * X) * (
    1024 * T * X**7 - 3584 * T * X**6 - 2688 * T * X**5 + 13440 * T * X**4
    - 3360 * T * X**3 - 5040 * T * X**2 + 1260 * T * X
    + 8064 * X**5 - 20160 * X**4 - 7560 * X**3 + 18900 * X**2 + 945 * X - 945
)


class TestAcceleratedComponents:
    def test_constant_kernel(self, constant_kernel_problem):
        s = iterate_accelerated(constant_kernel_problem, 3)
        assert s.components[0] == constant_kernel_problem.u0
        assert_sympy_equal(s.components[1], CONSTANT_V1)
        assert_sympy_equal(s.components[2], CONSTANT_V2)
        assert_sympy_equal(s.components[3], CONSTANT_V3)

    def test_sum_kernel(self, sum_kernel_problem):
        s = iterate_accelerated(sum_kernel_problem, 2)
        assert_sympy_equal(s.components[1], SUM_V1)
        assert_sympy_equal(s.components[2], SUM_V2)

    def test_product_kernel(self, product_kernel_problem):
        s = iterate_accelerated(product_kernel_problem, 2)
        assert_sympy_equal(s.components[1], PRODUCT_V1)
        assert_sympy_equal(s.components[2], PRODUCT_V2)

    def test_coupled_half(self, coupled_halfx_problem):
        s = iterate_accelerated(coupled_halfx_problem, 2)
        assert_sympy_equal(s.components[1], COUPLED_HALF_V1)
        assert_sympy_equal(s.components[2], COUPLED_HALF_V2)

    def test_coupled_twox(self, coupled_twox_problem):
        s = iterate_accelerated(coupled_twox_problem, 2)
        assert_sympy_equal(s.components[1], COUPLED_TWOX_V1)
        assert_sympy_equal(s.components[2], COUPLED_TWOX_V2)

    def test_bivariate_first_component(self, bivariate_problem):
        s = iterate_accelerated(bivariate_problem, 1)
        terms = {e: c for _, e, c in s.components[1].terms()}
        assert terms == {(3, 3, 1): F(4882812500000, 9), (1, 1, 1): F(-6250000)}


SEVEN = ["constant_kernel_problem", "sum_kernel_problem", "product_kernel_problem",
         "binary_breakage_problem", "coupled_halfx_problem", "coupled_twox_problem",
         "bivariate_problem"]


class TestPicardIdentity:
    @pytest.mark.parametrize("fixture", SEVEN)
    def test_partial_sums_telescope(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        s = iterate_accelerated(problem, 4)
        for k in range(4):
            psi_next = s.truncated(k + 1)
            rebuilt = problem.u0 + rhs(problem, s.truncated(k)).time_antiderivative()
            assert psi_next == rebuilt



@pytest.mark.parametrize("method, n, calls", [(iterate_accelerated, 4, 4),
                                              (iterate_classical, 8, 8)])
def test_product_kernel_forms_x_u_once(method, n, calls, monkeypatch):
    # one x u per right-hand side (ahpetm) or per component that a block
    # reads (classical: v_0 ... v_{n-1}) serves the gain and the loss
    count = [0]
    real = PolyExp1D.mul_x

    def spy(self, k=1):
        count[0] += 1
        return real(self, k)

    monkeypatch.setattr(PolyExp1D, "mul_x", spy)
    method(Model(exponential_ic(), CoagKernel.PRODUCT), n)
    assert count[0] == calls


class TestClassical:
    @pytest.mark.parametrize("fixture", SEVEN)
    def test_block_sums_every_ordered_pair(self, fixture, request):
        # one convolution per unordered pair gives the ordered sum exactly
        problem = request.getfixturevalue(fixture)
        s = iterate_classical(problem, 6)
        comps = s.components
        operands = [coag_operand(problem.kernel, c) for c in comps]
        moments = [x.moment for x in operands]
        for k in range(6):
            ref = problem.u0.zero()
            if problem.kernel is not None:
                for i in range(k + 1):
                    ref = ref + coag_bilinear(problem.kernel, comps[i], comps[k - i])
            if problem.frag is not None:
                ref = ref + frag_rhs(problem.frag, comps[k])
            assert series._bilinear_block(problem, comps, operands, moments, k) == ref
            assert comps[k + 1] == ref.time_antiderivative()

    def test_zero_components(self, constant_kernel_problem):
        s = iterate_classical(constant_kernel_problem, 0)
        assert s.components == (constant_kernel_problem.u0,)

    def test_second_component_is_quadratic_block(self, constant_kernel_problem):
        s = iterate_classical(constant_kernel_problem, 2)
        expected = T**2 * (X**2 / 8 - 3 * X / 4 + sp.Rational(3, 4)) * sp.exp(-X)
        assert_sympy_equal(s.components[2], expected)

    @pytest.mark.parametrize(
        "fixture",
        ["constant_kernel_problem", "sum_kernel_problem", "product_kernel_problem"],
    )
    def test_time_grading(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        classical = iterate_classical(problem, 3)
        accelerated = iterate_accelerated(problem, 3)
        for k in range(1, 4):
            v_c = classical.components[k]
            assert all(e[-1] == k for _, e, _ in v_c.terms())
            assert min(e[-1] for _, e, _ in accelerated.components[k].terms()) == k
        # the first two accelerated components open with the classical block
        for k in (1, 2):
            v_a = accelerated.components[k]
            low = {(a, e): c for a, e, c in v_a.terms() if e[-1] == k}
            ref = {(a, e): c for a, e, c in classical.components[k].terms()}
            assert low == ref
        # partial sums agree with the classical ones through order t^k:
        # at k = 3 the component-wise match no longer holds (earlier
        # accelerated components already carry t^3 terms), the cumulative
        # blocks are the invariant quantity
        for k in range(1, 4):
            psi_a = accelerated.truncated(k)
            psi_c = classical.truncated(k)
            blocks_a = {(a, e): c for a, e, c in psi_a.terms() if e[-1] <= k}
            blocks_c = {(a, e): c for a, e, c in psi_c.terms() if e[-1] <= k}
            assert blocks_a == blocks_c

    def test_fragmentation_methods_coincide(self, binary_breakage_problem):
        a = iterate_accelerated(binary_breakage_problem, 5)
        c = iterate_classical(binary_breakage_problem, 5)
        assert a.components == c.components

    def test_taylor_consistency_constant_kernel(self, constant_kernel_problem):
        # classical partial sums match the exact solution's Taylor
        # polynomial in t, coefficient by coefficient
        n = 4
        s = iterate_classical(constant_kernel_problem, n)
        psi = to_sympy(s.truncated(n))
        exact = 4 / (2 + T) ** 2 * sp.exp(-2 * X / (2 + T))
        taylor = sp.series(exact, T, 0, n + 1).removeO()
        assert sp.expand(psi - taylor) == 0


@pytest.fixture(scope="module")
def quartic_selection_problem():
    """Breakage with B = 3x/y^2 and S(x) = x^4 on e^{-x}: each order adds 4 to the x-degree."""
    return Model(exponential_ic(1), frag=FragSpec(F(3), 2, F(1), 4))


class TestSeriesStructure:
    def test_truncated_boundaries(self, constant_kernel_problem):
        s = iterate_accelerated(constant_kernel_problem, 2)
        assert s.truncated(0) == constant_kernel_problem.u0
        assert s.truncated(2) - s.truncated(1) == s.components[2]
        with pytest.raises(IndexError):
            s.truncated(3)
        with pytest.raises(IndexError):
            s.truncated(-1)

    @pytest.mark.parametrize("fixture", [
        "constant_kernel_problem", "sum_kernel_problem", "product_kernel_problem",
        "binary_breakage_problem", "coupled_halfx_problem", "coupled_twox_problem",
        "bivariate_problem"])
    def test_truncated_is_the_left_to_right_sum(self, fixture, request):
        # ahpetm keeps the partial sums its loop forms, the classical engine adds
        # them on first use, in any order of k
        problem = request.getfixturevalue(fixture)
        for engine in (iterate_accelerated, iterate_classical):
            s = engine(problem, 3)
            for k in (2, 0, 3, 1):
                want = s.components[0]
                for v in s.components[1:k + 1]:
                    want = want + v
                assert s.truncated(k) == want, (engine.__name__, k)

    def test_components_vanish_at_zero_time(self, coupled_halfx_problem):
        s = iterate_accelerated(coupled_halfx_problem, 3)
        for v in s.components[1:]:
            assert all(e[-1] >= 1 for _, e, _ in v.terms())

    @pytest.mark.parametrize(
        "fixture",
        [
            "constant_kernel_problem",
            "sum_kernel_problem",
            "product_kernel_problem",
            "binary_breakage_problem",
            "coupled_halfx_problem",
            "coupled_twox_problem",
        ],
    )
    def test_mass_invariance(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        for engine in (iterate_accelerated, iterate_classical):
            s = engine(problem, 4)
            for v in s.components[1:]:
                assert v.moment(1) == {}

    def test_determinism(self, sum_kernel_problem):
        a = iterate_accelerated(sum_kernel_problem, 3)
        b = iterate_accelerated(sum_kernel_problem, 3)
        assert a == b

    def test_work_budget(self, product_kernel_problem, monkeypatch):
        # the order-4 products run at the default budget; under a budget of
        # 50 either engine is refused in its first product that passes it
        for engine in (iterate_accelerated, iterate_classical):
            engine(product_kernel_problem, 4)
        monkeypatch.setattr(pe, "WORK_BUDGET", 50)
        for engine in (iterate_accelerated, iterate_classical):
            with pytest.raises(WorkBudgetError, match="work budget"):
                engine(product_kernel_problem, 4)

    @pytest.mark.parametrize(
        "fixture, fits",
        [("constant_kernel_problem", (9, 512)), ("coupled_halfx_problem", (9, 512)),
         ("bivariate_problem", (8, 255)), ("binary_breakage_problem", (512, 512)),
         ("quartic_selection_problem", (128, 128))],
        ids=["constant_kernel_problem", "coupled_halfx_problem", "bivariate_problem",
             "binary_breakage_problem", "quartic_selection_problem"],
    )
    def test_accelerated_degree_checked_before_first_step(
        self, fixture, fits, request, monkeypatch
    ):
        # With coagulation the ahpetm Psi_n has t-degree 2^n - 1, and the
        # bivariate x y u0 gives x- and y-degree 2^(n+1) - 1; the classical
        # Psi_n has t-degree n, and x- and y-degree 1 + 2 n.  On breakage alone
        # both engines' Psi_n has t-degree n and x-degree n k (S = x^k on
        # e^{-x}).  For each engine the largest n that fits the cap of 512
        # reaches its first step (the right-hand side, or the classical operand
        # of v_0), the next is refused before it, naming coagulation only where it runs
        class Reached(Exception):
            pass

        def stop(*args):
            raise Reached

        monkeypatch.setattr(series, "rhs", stop)
        monkeypatch.setattr(series, "coag_operand", stop)
        problem = request.getfixturevalue(fixture)
        for engine, most in zip((iterate_accelerated, iterate_classical), fits):
            with pytest.raises(Reached):
                engine(problem, most)
            for n in (most + 1, 600, 10**9):
                with pytest.raises(DegreeOverflowError, match="exponent cap") as exc:
                    engine(problem, n)
                assert ("with coagulation" in str(exc.value)) == (problem.kernel is not None)

    def test_negative_order_rejected(self, constant_kernel_problem):
        with pytest.raises(ValueError):
            iterate_accelerated(constant_kernel_problem, -1)

    def test_method_tokens(self):
        assert Method.ACCELERATED.value == "ahpetm"
        assert Method.CLASSICAL.value == "classical"
