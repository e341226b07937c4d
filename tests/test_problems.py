"""Tests for model specs and right-hand-side operators."""

import random
from fractions import Fraction as F

import pytest

from pbeseries.polyexp import OutOfClassError, PolyExp1D, PolyExp2D
from pbeseries.problems import (
    CoagKernel,
    FragSpec,
    Model,
    coag2d_bilinear,
    coag_bilinear,
    exponential_ic,
    frag_rhs,
    rhs,
)

from conftest import random_polyexp


def mono(c, xpow=0, tpow=0, rate=0):
    return PolyExp1D.monomial(c, xpow=xpow, tpow=tpow, rate=rate)


E = exponential_ic(1)


class TestCoagBilinear:
    def test_constant_kernel(self):
        # Q(e^-x, e^-x) = e^-x (x/2 - 1)
        expected = mono(F(1, 2), xpow=1, rate=1) + mono(-1, rate=1)
        assert coag_bilinear(CoagKernel.CONSTANT, E, E) == expected

    def test_sum_kernel(self):
        expected = mono(F(1, 2), xpow=2, rate=1) + mono(-1, xpow=1, rate=1) + mono(-1, rate=1)
        assert coag_bilinear(CoagKernel.SUM, E, E) == expected

    def test_product_kernel(self):
        expected = mono(F(1, 12), xpow=3, rate=1) + mono(-1, xpow=1, rate=1)
        assert coag_bilinear(CoagKernel.PRODUCT, E, E) == expected

    def test_mass_conservation_exact(self):
        rng = random.Random(41)
        for kernel in CoagKernel:
            for _ in range(15):
                u = random_polyexp(rng, single_rate=True)
                assert coag_bilinear(kernel, u, u).moment(1) == {}

    def test_number_balance_constant_kernel(self):
        rng = random.Random(43)
        for _ in range(15):
            u = random_polyexp(rng, single_rate=True)
            mu0 = u.moment(0)
            q_mu0 = coag_bilinear(CoagKernel.CONSTANT, u, u).moment(0)
            # mu0(Q(u,u)) == -(1/2) mu0(u)^2 as exact time polynomials
            square = {}
            for j1, c1 in mu0.items():
                for j2, c2 in mu0.items():
                    square[j1 + j2] = square.get(j1 + j2, F(0)) - c1 * c2 / 2
            assert q_mu0 == {j: c for j, c in square.items() if c != 0}

    def test_bilinearity(self):
        rng = random.Random(47)
        for kernel in CoagKernel:
            rate = rng.choice([1, 2])
            u, w, z = (
                random_polyexp(rng, single_rate=True, rates=(rate,)) for _ in range(3)
            )
            c = F(rng.randint(-4, 4), rng.randint(1, 4))
            lhs = coag_bilinear(kernel, u, w + z.scale(c))
            assert lhs == coag_bilinear(kernel, u, w) + coag_bilinear(kernel, u, z).scale(c)
            lhs = coag_bilinear(kernel, w + z.scale(c), u)
            assert lhs == coag_bilinear(kernel, w, u) + coag_bilinear(kernel, z, u).scale(c)


class TestFragRhs:
    BINARY_HALF = FragSpec(F(2), 1, F(1, 2), 1)  # B = 2/y, S = x/2
    BINARY_UNIT = FragSpec(F(2), 1, F(1), 1)     # B = 2/y, S = x

    def test_binary_half_selection(self):
        u0 = mono(4, xpow=1, rate=2)
        expected = mono(2, xpow=1, rate=2) + mono(1, rate=2) + mono(-2, xpow=2, rate=2)
        assert frag_rhs(self.BINARY_HALF, u0) == expected

    def test_binary_unit_selection(self):
        # first time derivative of the closed-form breakage density
        expected = mono(2, rate=1) + mono(-1, xpow=1, rate=1)
        assert frag_rhs(self.BINARY_UNIT, E) == expected

    def test_zero(self):
        assert frag_rhs(self.BINARY_HALF, PolyExp1D.zero()).is_zero()

    def test_linearity(self):
        rng = random.Random(53)
        for _ in range(15):
            u = random_polyexp(rng)
            w = random_polyexp(rng)
            c = F(rng.randint(-4, 4), rng.randint(1, 4))
            lhs = frag_rhs(self.BINARY_HALF, u + w.scale(c))
            assert lhs == frag_rhs(self.BINARY_HALF, u) + frag_rhs(self.BINARY_HALF, w).scale(c)

    def test_mass_conservation_when_balanced(self):
        rng = random.Random(59)
        for spec in (self.BINARY_HALF, FragSpec(F(3), 2, F(1), 2)):
            assert spec.c == spec.r + 1  # int_0^y x B(x, y) dx = y
            for _ in range(10):
                u = random_polyexp(rng)
                assert frag_rhs(spec, u).moment(1) == {}

    def test_power_check(self):
        # k - r < 0 with a constant-in-x state leaves the class
        spec = FragSpec(F(3), 2, F(1), 1)
        with pytest.raises(OutOfClassError):
            frag_rhs(spec, E)


class TestCoag2D:
    U0 = PolyExp2D.monomial(6250000, xpow=1, ypow=1, xrate=50, yrate=50)

    def test_zero_partner(self):
        assert coag2d_bilinear(self.U0, PolyExp2D.zero()).is_zero()

    def test_mass_moments_vanish(self):
        q = coag2d_bilinear(self.U0, self.U0)
        assert q.moment(1, 0) == {}
        assert q.moment(0, 1) == {}

    def test_first_component_coefficient(self):
        q = coag2d_bilinear(self.U0, self.U0)
        v1 = q.time_antiderivative()
        lead = {e: c for _, e, c in v1.terms()}
        assert lead[(3, 3, 1)] == F(4882812500000, 9)
        assert lead[(1, 1, 1)] == -6250000


class TestRhsDispatch:
    def test_coupled_is_sum_of_parts(self):
        spec = FragSpec(F(2), 1, F(1, 2), 1)
        u0 = PolyExp1D.monomial(4, xpow=1, rate=2)
        problem = Model(u0, CoagKernel.CONSTANT, spec)
        u = u0 + mono(F(1, 3), xpow=2, tpow=1, rate=2)
        assert rhs(problem, u) == coag_bilinear(CoagKernel.CONSTANT, u, u) + frag_rhs(spec, u)

    def test_coupled_example_value(self):
        problem = Model(PolyExp1D.monomial(4, xpow=1, rate=2), CoagKernel.CONSTANT,
                        FragSpec(F(2), 1, F(1, 2), 1))
        expected = (
            mono(F(4, 3), xpow=3, rate=2)
            + mono(-2, xpow=2, rate=2)
            + mono(-2, xpow=1, rate=2)
            + mono(1, rate=2)
        )
        assert rhs(problem, problem.u0) == expected

    def test_bivariate_is_constant_kernel_form(self):
        problem = Model(TestCoag2D.U0, CoagKernel.CONSTANT)
        assert rhs(problem, problem.u0) == coag2d_bilinear(problem.u0, problem.u0)

    def test_frag_of_zero(self):
        problem = Model(E, frag=FragSpec(F(2), 1, F(1), 1))
        assert rhs(problem, PolyExp1D.zero()).is_zero()


class TestValidation:
    def test_frag_spec_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FragSpec(F(-1), 1, F(1), 1)
        with pytest.raises(ValueError):
            FragSpec(F(2), 0, F(1), 1)
        with pytest.raises(ValueError):
            FragSpec(F(2), 1, F(0), 1)
        with pytest.raises(ValueError):
            FragSpec(F(2), 1, F(1), -1)

    def test_u0_needs_positive_rates(self):
        with pytest.raises(ValueError):
            Model(mono(1, xpow=1), CoagKernel.CONSTANT)

    def test_u0_must_be_time_independent(self):
        with pytest.raises(ValueError):
            Model(mono(1, tpow=1, rate=1), CoagKernel.CONSTANT)

    def test_u0_nonzero(self):
        with pytest.raises(ValueError):
            Model(PolyExp2D.zero(), CoagKernel.CONSTANT)

    def test_2d_u0_needs_positive_rates(self):
        with pytest.raises(ValueError, match="positive rates"):
            Model(PolyExp2D.monomial(1, xpow=1, xrate=1), CoagKernel.CONSTANT)

    def test_model_needs_an_operator(self):
        with pytest.raises(ValueError, match="kernel, a breakage family or both"):
            Model(E)

    @pytest.mark.parametrize("kernel, frag", [
        (CoagKernel.SUM, None),
        (CoagKernel.CONSTANT, FragSpec(F(2), 1, F(1), 1)),
        (None, FragSpec(F(2), 1, F(1), 1)),
    ])
    def test_bivariate_model_is_constant_kernel_coagulation(self, kernel, frag):
        with pytest.raises(ValueError, match="bivariate"):
            Model(TestCoag2D.U0, kernel, frag)

    def test_dimension_follows_u0(self):
        assert Model(E, CoagKernel.SUM).dim == 1
        assert Model(TestCoag2D.U0, CoagKernel.CONSTANT).dim == 2
