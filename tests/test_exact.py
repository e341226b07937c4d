"""Tests for the closed-form reference solutions and the Bessel evaluator."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate, special

from pbeseries.analysis import series_moment
from pbeseries.exact import (
    BivariateConstantSolution,
    ConstantKernelSolution,
    LinearBreakageSolution,
    NonConvergenceError,
    ProductKernelSolution,
    SumKernelSolution,
    _bessel_i1_grid,
    _exp_grid,
    bessel_i1,
    matching_exact_solution,
)
from pbeseries.polyexp import PolyExp1D, PolyExp2D, tpoly_function
from pbeseries.problems import CoagKernel, FragSpec, Model, exponential_ic
from pbeseries.series import iterate_accelerated, iterate_classical


def _bits(values):
    return [v.hex() for v in values]


class TestBessel:
    def test_at_zero(self):
        assert bessel_i1(0.0) == 0.0

    def test_reference_value(self):
        # mpmath.besseli(1, 2) to 13 digits
        assert abs(bessel_i1(2.0) - 1.590636854637329) <= 1e-13

    def test_small_argument_asymptotic(self):
        z = 1e-6
        assert abs(bessel_i1(z) / (z / 2.0) - 1.0) <= 1e-9

    def test_against_scipy(self):
        for z in (0.1, 1.0, 4.2576, 10.0, 30.0):
            ref = special.iv(1, z)
            assert abs(bessel_i1(z) - ref) <= 1e-13 * abs(ref)

    @given(st.lists(st.floats(-250.0, 250.0), max_size=64))
    @example([4.6e-308, -4.6e-308, 2.47e-308, 2.2e-311, 5e-324, -5e-324, 1e-300, 3.0])
    def test_grid_equals_scalar(self, zs):
        # the grid runs its lanes in order of |z|, whatever order they come in;
        # below |z| ~ 5e-308 the next term and 1e-16 of the sum both round to 0
        grid = _bessel_i1_grid(np.array(zs, dtype=float)).tolist()
        assert _bits(grid) == _bits(map(bessel_i1, zs))

    @pytest.mark.parametrize("z, want", [
        # mpmath.besseli(1, z) at 40 digits; the terms peak near k = z/2
        (300.0, 4.4683813850369544139e+128),
        (500.0, 2.5023034121760999957e+215),
        (700.0, 1.5285003902339006881e+302),
    ])
    def test_up_to_the_float_range(self, z, want):
        assert abs(bessel_i1(z) - want) <= 1e-13 * want
        grid = _bessel_i1_grid(np.array([1.0, z, -z]))
        assert _bits(grid.tolist()) == _bits(map(bessel_i1, [1.0, z, -z]))

    @pytest.mark.parametrize("z", [715.0, 795.0, -795.0])
    def test_past_the_float_range_raises(self, z):
        # at 715 only the sum reaches inf, at 795 a term does
        with pytest.raises(NonConvergenceError, match="did not converge"):
            bessel_i1(z)
        with pytest.raises(NonConvergenceError), np.errstate(over="ignore"):
            _bessel_i1_grid(np.array([1.0, z]))


class TestConstantKernel:
    SOL = ConstantKernelSolution()

    def test_initial_condition(self):
        rng = random.Random(61)
        for _ in range(20):
            x = rng.uniform(0.0, 20.0)
            assert abs(self.SOL.evaluate(x, 0.0) - math.exp(-x)) <= 1e-15

    def test_origin(self):
        assert self.SOL.evaluate(0.0, 0.0) == 1.0

    def test_moments(self):
        assert self.SOL.moment(1)(3.7) == 1.0
        assert self.SOL.moment(0)(0.0) == 1.0
        assert abs(self.SOL.moment(0)(2.0) - 0.5) == 0.0
        # second moment grows linearly: d(mu2)/dt = mu1^2 = 1
        assert abs(self.SOL.moment(2)(0.0) - 2.0) <= 1e-15
        assert abs(self.SOL.moment(2)(1.5) - 3.5) <= 1e-15
        # cross-check against direct quadrature
        num, _ = integrate.quad(lambda x: x**2 * self.SOL.evaluate(x, 1.5), 0, 80)
        assert abs(num - 3.5) <= 1e-9

    @pytest.mark.parametrize("x,t", [(1.0, 0.5), (2.0, 1.0)])
    def test_pde_residual(self, x, t):
        # du/dt = 1/2 int_0^x u(x-y)u(y) dy - u(x) int_0^inf u(y) dy
        h = 1e-5
        dudt = (self.SOL.evaluate(x, t + h) - self.SOL.evaluate(x, t - h)) / (2 * h)
        gain, _ = integrate.quad(
            lambda y: self.SOL.evaluate(x - y, t) * self.SOL.evaluate(y, t), 0, x
        )
        loss, _ = integrate.quad(lambda y: self.SOL.evaluate(y, t), 0, 100, limit=200)
        residual = dudt - 0.5 * gain + self.SOL.evaluate(x, t) * loss
        assert abs(residual) <= 1e-6


class TestSumKernel:
    SOL = SumKernelSolution()

    def test_initial_condition(self):
        for x in (0.0, 0.5, 3.0):
            assert abs(self.SOL.evaluate(x, 0.0) - math.exp(-x)) <= 1e-15

    def test_published_pointwise_values(self):
        # x = 5 column of the published pointwise table, 4 decimal places
        printed = {0.2: 0.0129, 0.4: 0.0146, 0.6: 0.0138, 0.8: 0.0121,
                   1.0: 0.0101, 1.2: 0.0082, 1.4: 0.0067, 1.6: 0.00545}
        for t, val in printed.items():
            assert abs(self.SOL.evaluate(5.0, t) - val) < 1e-4

    def test_continuity_at_origin(self):
        assert abs(self.SOL.evaluate(1e-12, 0.3) - self.SOL.evaluate(0.0, 0.3)) <= 1e-9

    @pytest.mark.parametrize("x, want", [
        # 40-digit mpmath values of the closed form at t = 1, where the
        # Bessel argument is 318 and 684 and its series runs 237 and 454 terms
        (200.0, 1.1623516031059219489e-8),
        (430.0, 2.3530619621118339003e-13),
    ])
    def test_density_at_large_x(self, x, want):
        assert abs(self.SOL.evaluate(x, 1.0) - want) <= 1e-13 * want
        assert _bits(self.SOL.evaluate_grid(np.array([1.0, x]), 1.0).tolist()) == _bits(
            [self.SOL.evaluate(1.0, 1.0), self.SOL.evaluate(x, 1.0)])

    def test_particle_count_decays_exponentially(self):
        # mu0(t) = e^{-t} for the sum kernel
        got = self.SOL.moment(0)(0.5)
        assert abs(got - math.exp(-0.5)) <= 1e-7


class TestProductKernel:
    SOL = ProductKernelSolution()

    def test_initial_condition(self):
        for x in (0.0, 1.0, 4.0):
            assert abs(self.SOL.evaluate(x, 0.0) - math.exp(-x)) <= 1e-15

    def test_particle_count_linear_decay(self):
        # pre-gelation: mu0(t) = 1 - t/2.  Gelation sits at t = 1/mu2(0)
        # = 0.5 here, where the density tail turns algebraic.
        got = self.SOL.moment(0)(0.2)
        assert abs(got - 0.9) <= 1e-6

    def test_series_against_high_precision(self):
        mpmath.mp.dps = 40
        for x, t in [(2.0, 0.5), (10.0, 0.9), (25.0, 0.5)]:
            ref = mpmath.nsum(
                lambda k: mpmath.mpf(t) ** k * mpmath.mpf(x) ** (3 * k)
                / (mpmath.factorial(k + 1) * mpmath.factorial(2 * k + 1)),
                [0, mpmath.inf],
            ) * mpmath.exp(-(t + 1) * x)
            got = self.SOL.evaluate(x, t)
            assert abs(got - float(ref)) <= 1e-13 * abs(float(ref))

    @pytest.mark.parametrize("x, t", [(800.0, 0.5), (1500.0, 0.1), (2000.0, 0.1)])
    def test_density_past_500_terms(self, x, t):
        # the series runs 546 terms at x = 1500, t = 0.1; summed term by term
        with mpmath.workdps(30):
            xm, tm = mpmath.mpf(x), mpmath.mpf(t)
            total, term, k = mpmath.mpf(0), mpmath.mpf(1), 0
            while term >= total * mpmath.mpf("1e-35") or k < 10:
                total += term
                k += 1
                term = term * tm * xm**3 / ((k + 1) * (2 * k) * (2 * k + 1))
            ref = float(total * mpmath.exp(-(tm + 1) * xm))
        got = self.SOL.evaluate(x, t)
        assert abs(got - ref) <= 3e-12 * ref
        assert self.SOL.evaluate_grid(np.array([1.0, x]), t)[1] == got

    @staticmethod
    def _moment_partial_sum(j, t):
        """sum_k t^k (3k+j)! / ((k+1)! (2k+1)! (1+t)^{3k+j+1}) to 30 digits, term by term."""
        with mpmath.workdps(30):
            t = mpmath.mpf(t)
            c = t / (1 + t) ** 3
            term = mpmath.factorial(j) / (1 + t) ** (j + 1)
            total, k = term, 0
            while k <= 3 * j or term >= total * mpmath.mpf("1e-32"):
                k += 1
                m = 3 * k + j
                term *= c * (m * (m - 1) * (m - 2)) / ((k + 1) * 2 * k * (2 * k + 1))
                total += term
            return float(total)

    @pytest.mark.parametrize("t", [0.1, 0.4, 0.45, 0.6, 1.0])
    def test_moments_are_their_series(self, t):
        for j in range(5):
            ref = self._moment_partial_sum(j, t)
            assert abs(self.SOL.moment(j)(t) - ref) <= 1e-13 * ref, j

    def test_moments_before_gelation(self):
        # count 1 - t/2, mass 1 and mu_2 = 2 / (1 - 2t), which blows up at t = 1/2
        for t in (1e-9, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49):
            closed = (1.0 - t / 2.0, 1.0, 2.0 / (1.0 - 2.0 * t))
            for j, want in enumerate(closed):
                assert abs(self.SOL.moment(j)(t) - want) <= 1e-13 * want, (j, t)

    def test_moments_at_gelation_are_refused(self):
        for j in (0, 1, 2):
            assert self.SOL.moment(j)(0.0) == math.factorial(j)
            with pytest.raises(NonConvergenceError, match="gelation"):
                self.SOL.moment(j)(0.5)


class TestLinearBreakage:
    SOL = LinearBreakageSolution()

    def test_first_taylor_block_matches_engine(self, binary_breakage_problem):
        # d/dt at t=0 equals e^{-x} (2 - x)
        h = 1e-6
        for x in (0.3, 1.0, 2.5):
            dudt = (self.SOL.evaluate(x, h) - self.SOL.evaluate(x, -h)) / (2 * h)
            assert abs(dudt - math.exp(-x) * (2.0 - x)) <= 1e-8
        v1 = iterate_accelerated(binary_breakage_problem, 1).components[1]
        assert abs(v1.evaluate(1.0, 1.0) - math.exp(-1.0) * 1.0) <= 1e-15

    def test_moments(self):
        assert self.SOL.moment(1)(2.0) == 1.0
        assert self.SOL.moment(0)(2.0) == 3.0
        assert abs(self.SOL.moment(2)(1.0) - 1.0) <= 1e-15


# per solution: exact mu_j(t) for a Fraction t, and the float forms that
# j <= 2 have always printed
CLOSED_MOMENTS = {
    "constant": (ConstantKernelSolution(),
                 lambda j, t: math.factorial(j) * ((2 + t) / 2) ** (j - 1),
                 [lambda t: 2.0 / (2.0 + t), lambda t: 1.0, lambda t: 2.0 + t]),
    "breakage": (LinearBreakageSolution(),
                 lambda j, t: math.factorial(j) * (1 + t) ** (1 - j),
                 [lambda t: 1.0 + t, lambda t: 1.0, lambda t: 2.0 / (1.0 + t)]),
}


@pytest.mark.parametrize("name", CLOSED_MOMENTS)
def test_low_moments_keep_their_bits(name):
    sol, _, forms = CLOSED_MOMENTS[name]
    for t in [k / 64 for k in range(641)] + [0.1, 0.173, 1 / 3, 1e-12, 123.456, 1e6]:
        for j, form in enumerate(forms):
            assert sol.moment(j)(t) == form(t)


@pytest.mark.parametrize("name", CLOSED_MOMENTS)
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 10.0, 20.0])
def test_moments_are_exact_for_every_order(name, t):
    # at t = 20 much of the integrand x^j u(x, t) lies past x = 60
    sol, exact, _ = CLOSED_MOMENTS[name]
    for j in range(6):
        ref = float(exact(j, F(t)))
        assert abs(sol.moment(j)(t) - ref) <= 1e-14 * ref


class TestBivariate:
    SOL = BivariateConstantSolution()
    # monoexp2:1,1,1,3/2,5/2: N0 = 16/225, so the density runs on N0 t, not t
    SCALED = BivariateConstantSolution(N0=F(16, 225), m1=F(4, 3), m2=F(4, 5))

    def test_initial_condition(self):
        for x, y in [(0.02, 0.03), (0.1, 0.05)]:
            expected = 6250000.0 * x * y * math.exp(-50 * x - 50 * y)
            assert abs(self.SOL.evaluate(x, y, 0.0) - expected) <= 1e-9 * abs(expected)

    def test_count_moment(self):
        assert abs(self.SOL.moment(0, 0)(0.4) - 2.0 / 2.4) <= 1e-15
        for sol in (self.SOL, self.SCALED):
            # the density decays like e^{-2x/m1 - 2y/m2}, so a box of 40 mean
            # sizes holds all of mu_00 far below the quadrature tolerance
            num, _ = integrate.dblquad(
                lambda y, x: sol.evaluate(x, y, 0.4), 0.0, float(sol.m1) * 40.0,
                0.0, float(sol.m2) * 40.0, epsabs=1e-10, epsrel=1e-8,
            )
            assert abs(num - sol.moment(0, 0)(0.4)) <= 1e-6

    def test_mass_moments(self):
        assert self.SOL.moment(1, 0)(1.0) == 0.04
        assert self.SOL.moment(0, 1)(1.0) == 0.04

    @pytest.mark.parametrize("sol", [SOL, SCALED], ids=["N0=1", "N0=16/225"])
    def test_grid_is_the_scalar_bit_for_bit(self, sol):
        rng = random.Random(7)
        xs = [0.0] + [rng.uniform(0.0, 0.3) for _ in range(5)] + [10.0]
        ys = [0.0] + [rng.uniform(0.0, 0.3) for _ in range(4)] + [8.0]
        for t in (0.0, 0.01, 1.0):
            grid = sol.evaluate_grid(xs, ys, t)
            assert _bits(grid) == _bits(sol.evaluate(x, y, t) for x, y in product(xs, ys))

    @pytest.mark.parametrize("x, y, want", [
        # 30-digit sums of the series at t = 1: at (10, 10) the terms pass the
        # float range, at (8, 8) and (8, 10) only e^{-2x/m1 - 2y/m2} leaves it
        (10.0, 10.0, 6.9482168786027583475e-104),
        (8.0, 10.0, 2.866342553230988177e-95),
        (8.0, 8.0, 5.6331790383257091563e-83),
        (7.2, 7.2, 1.3116113247937096883e-74),
    ])
    def test_terms_or_envelope_past_the_float_range(self, x, y, want):
        assert abs(self.SOL.evaluate(x, y, 1.0) - want) <= 1e-12 * want

    def test_cap_read_off_the_peak_term(self):
        # the terms peak near k = (t/(t+2))^{1/4} sqrt(x y) / m = 746, past 500
        # terms; 40-digit mpmath sum of the series
        want = 1.304137687919902504353351e-9
        assert abs(self.SOL.evaluate(30.0, 30.0, 100.0) - want) <= 1e-12 * want
        # a peak past the ceiling is refused before the sum runs
        with pytest.raises(NonConvergenceError, match="needs 149760 terms"):
            self.SOL.evaluate(3000.0, 3000.0, 100.0)

    def test_second_moment_growth(self):
        # d(mu20)/dt = mu10^2, so mu20(t) = 0.0024 + 0.0016 t
        assert self.SOL.moment(2, 0)(0.5) == float(F(24, 10000) + F(16, 10000) * F(1, 2))

    @pytest.mark.parametrize("u0", [
        PolyExp2D.monomial(6250000, xpow=1, ypow=1, xrate=50, yrate=50),
        PolyExp2D.monomial(1, xpow=1, ypow=1, xrate=F(3, 2), yrate=F(5, 2)),
    ], ids=["N0=1", "N0=16/225"])
    def test_moments_are_the_classical_partial_sums(self, u0):
        # mu_pq has degree p + q - 1 in t, which the classical Psi_3 reproduces
        # for p + q <= 4; both sides round one exact polynomial once
        problem = Model(u0, CoagKernel.CONSTANT)
        sol, psi = matching_exact_solution(problem), iterate_classical(problem, 3)
        for jx, jy in product(range(3), range(3)):
            if (jx, jy) != (0, 0):
                tp, mu = series_moment(psi, 3, jx, jy), sol.moment(jx, jy)
                for t in (0.0, 0.1, 0.5, 1.3, 4.0):
                    assert tpoly_function(tp)(t) == mu(t), (jx, jy, t)


GRID_SOLUTIONS = [ConstantKernelSolution(), SumKernelSolution(), ProductKernelSolution(),
                  LinearBreakageSolution()]
GRID_IDS = ["constant", "sum", "product", "breakage"]
SIMPSON_NODES = np.linspace(0.0, 50.0, 5001)


def _scalar_grid(sol, xs, t):
    return np.array([sol.evaluate(x, t) for x in xs.tolist()])


def _refuse_scalar(self, x, t):
    raise AssertionError("the grid fell back to the scalar evaluate")


class TestEvaluateGrid:
    """evaluate_grid is the scalar evaluate, bit for bit, without a term matrix."""

    @pytest.mark.parametrize("sol", GRID_SOLUTIONS, ids=GRID_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_scalar(self, sol, seed):
        rng = random.Random(seed)
        xs = np.array([0.0, 50.0, 1e-90, 1e-120, 5e-324, 1e-12, 1e-3]
                      + [rng.uniform(0.0, 60.0) for _ in range(400)]
                      + [rng.uniform(0.0, 0.01) for _ in range(50)])
        # t = 0.45, 0.7 and 1.5 straddle the product kernel's gelation at 0.5
        for t in (0.0, 1e-12, 0.45, 0.7, 1.5, rng.uniform(0.0, 3.0)):
            assert np.array_equal(sol.evaluate_grid(xs, t), _scalar_grid(sol, xs, t))

    @pytest.mark.parametrize("sol", GRID_SOLUTIONS, ids=GRID_IDS)
    def test_simpson_nodes_without_scalar_fallback(self, sol, monkeypatch):
        for t in (0.5, 1.5):
            expected = _scalar_grid(sol, SIMPSON_NODES, t)
            with monkeypatch.context() as m:
                m.setattr(type(sol), "evaluate", _refuse_scalar)
                got = sol.evaluate_grid(SIMPSON_NODES, t)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("sol", GRID_SOLUTIONS, ids=GRID_IDS)
    def test_tiny_sizes_without_scalar_fallback(self, sol, monkeypatch):
        # t x^3 and x sqrt(1 - e^-t) underflow here; both forms take the
        # x = 0 limit instead of failing
        xs = np.array([0.0, 1e-120, 1e-300, 5e-324, 1e-3, 1.0])
        for t in (0.0, 0.01, 0.5, 1.5):
            expected = _scalar_grid(sol, xs, t)
            assert expected[1:4].tolist() == [expected[0]] * 3
            with monkeypatch.context() as m:
                m.setattr(type(sol), "evaluate", _refuse_scalar)
                got = sol.evaluate_grid(xs, t)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("sol", GRID_SOLUTIONS, ids=GRID_IDS)
    def test_no_terms_by_nodes_array(self, sol):
        # the sum and product series run 88 and 69 terms at x = 50, t = 1.5,
        # so a terms-by-nodes matrix alone would take 2.7-3.5 MB here
        tracemalloc.start()
        try:
            sol.evaluate_grid(SIMPSON_NODES, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * SIMPSON_NODES.nbytes

    @pytest.mark.parametrize("sol, xs, t", [
        # the Bessel argument 2 x sqrt(T) is 795 at x = 500, where I_1 is past the float range
        (SumKernelSolution(), [1.0, 500.0], 1.0),
        (ProductKernelSolution(), [1.0, 1e5, 1e6], 0.5),
    ], ids=["sum", "product"])
    def test_raises_where_scalar_does(self, sol, xs, t):
        xs = np.array(xs)
        with pytest.raises(NonConvergenceError) as scalar:
            _scalar_grid(sol, xs, t)
        with pytest.raises(NonConvergenceError) as grid:
            sol.evaluate_grid(xs, t)
        assert str(grid.value) == str(scalar.value)


class TestL1TableTimes:
    """The grids at the times the benchmark's L1 tables draw, without the scalar."""

    @pytest.mark.parametrize("sol", GRID_SOLUTIONS, ids=GRID_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simpson_nodes_at_drawn_times(self, sol, seed, monkeypatch):
        # the product kernel's table stays before gelation at t = 0.5
        lo, hi = (0.05, 0.45) if isinstance(sol, ProductKernelSolution) else (0.25, 2.0)
        rng = random.Random(seed)
        for t in (round(rng.uniform(lo, hi), 4) for _ in range(2)):
            expected = _scalar_grid(sol, SIMPSON_NODES, t)
            with monkeypatch.context() as m:
                m.setattr(type(sol), "evaluate", _refuse_scalar)
                got = sol.evaluate_grid(SIMPSON_NODES, t)
            assert np.array_equal(got, expected)


class TestExpGrid:
    """_exp_grid is math.exp on every element, bit for bit."""

    @given(st.lists(st.floats(-800.0, 709.0), max_size=64))
    def test_equals_math_exp(self, args):
        assert _bits(_exp_grid(np.array(args, dtype=float)).tolist()) == _bits(map(math.exp, args))

    def test_zero_subnormal_and_special_values(self):
        args = [0.0, -0.0, -math.inf, math.nan, -1e-300, 5e-324, -700.0, -708.5, -740.0,
                -745.1, -745.2, -800.0]
        got = _exp_grid(np.array(args)).tolist()
        assert _bits(got) == _bits(map(math.exp, args))
        assert 0.0 < got[8] < sys.float_info.min and got[10] == 0.0

    def test_past_709_is_math_exp(self):
        args = [1.0, 709.0000001, 709.3, 709.5, 709.78]
        assert _bits(_exp_grid(np.array(args)).tolist()) == _bits(map(math.exp, args))

    @pytest.mark.parametrize("sol", GRID_SOLUTIONS, ids=GRID_IDS)
    def test_closed_forms_past_709(self, sol):
        # at t = 0 each closed form is e^{-x}: x = -709.5 is finite, x = -800 overflows
        xs = np.array([1.0, -709.5])
        assert np.array_equal(sol.evaluate_grid(xs, 0.0), _scalar_grid(sol, xs, 0.0))
        xs = np.array([1.0, -709.5, -800.0])
        with pytest.raises(OverflowError) as scalar:
            _scalar_grid(sol, xs, 0.0)
        with pytest.raises(OverflowError) as grid:
            sol.evaluate_grid(xs, 0.0)
        assert str(grid.value) == str(scalar.value)


class TestMatching:
    def test_known_problems(self, bivariate_problem):
        assert isinstance(
            matching_exact_solution(Model(exponential_ic(1), CoagKernel.CONSTANT)),
            ConstantKernelSolution,
        )
        assert isinstance(
            matching_exact_solution(Model(exponential_ic(1), CoagKernel.SUM)),
            SumKernelSolution,
        )
        assert isinstance(
            matching_exact_solution(Model(exponential_ic(1), CoagKernel.PRODUCT)),
            ProductKernelSolution,
        )
        assert isinstance(
            matching_exact_solution(Model(exponential_ic(1), frag=FragSpec(F(2), 1, F(1), 1))),
            LinearBreakageSolution,
        )
        sol = matching_exact_solution(bivariate_problem)
        assert isinstance(sol, BivariateConstantSolution)
        assert (sol.N0, sol.m1, sol.m2) == (1, F(1, 25), F(1, 25))

    def test_unknown_problems(self):
        assert matching_exact_solution(Model(exponential_ic(2), CoagKernel.CONSTANT)) is None
        assert (
            matching_exact_solution(
                Model(PolyExp1D.monomial(4, xpow=1, rate=2), CoagKernel.CONSTANT,
                      FragSpec(F(2), 1, F(1, 2), 1))
            )
            is None
        )
        assert (
            matching_exact_solution(Model(exponential_ic(1), frag=FragSpec(F(2), 1, F(2), 1)))
            is None
        )
        # the breakage solution does not hold once coagulation is added
        assert (
            matching_exact_solution(
                Model(exponential_ic(1), CoagKernel.CONSTANT, FragSpec(F(2), 1, F(1), 1))
            )
            is None
        )
