"""Shared fixtures: benchmark problems, sympy bridges, random generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import settings

import pbeseries.polyexp as pe
from pbeseries.polyexp import PolyExp1D, PolyExp2D
from pbeseries.problems import CoagKernel, FragSpec, Model, exponential_ic

X, Y, T = sp.symbols("x y t")

# Property tests draw the same examples on every run and stay within a few
# seconds, so tier-1 remains deterministic.
settings.register_profile(
    "pbeseries", derandomize=True, max_examples=40, deadline=None, database=None
)
# Ten times the examples, as deterministic, for the algebra's laws, the
# sup-norm's root finding, the grid oracle's convolution bits, the closed
# forms' exp against the runner's own libm and the CLI fuzz in CI:
#     pytest tests/test_polyexp_kernel.py tests/test_polyexp.py tests/test_analysis.py \
#         tests/test_refsolver.py tests/test_exact.py tests/test_cli_fuzz.py \
#         --hypothesis-profile=ci-deep
settings.register_profile("ci-deep", settings.get_profile("pbeseries"), max_examples=400)
settings.load_profile("pbeseries")


def to_sympy(f):
    """Exact sympy form of a PolyExp value (rational coefficients)."""
    expr = sp.Integer(0)
    if isinstance(f, PolyExp1D):
        for a, (i, j), c in f.terms():
            expr += (
                sp.Rational(c.numerator, c.denominator)
                * X**i * T**j
                * sp.exp(-sp.Rational(a.numerator, a.denominator) * X)
            )
        return expr
    for (a, b), (i, k, j), c in f.terms():
        expr += (
            sp.Rational(c.numerator, c.denominator)
            * X**i * Y**k * T**j
            * sp.exp(-sp.Rational(a.numerator, a.denominator) * X
                     - sp.Rational(b.numerator, b.denominator) * Y)
        )
    return expr


def assert_sympy_equal(f, expr) -> None:
    diff = sp.expand(to_sympy(f) - sp.expand(expr))
    assert diff == 0, f"symbolic mismatch, difference {sp.simplify(diff)}"


def random_polyexp(
    rng: random.Random,
    max_terms: int = 5,
    max_xpow: int = 6,
    max_tpow: int = 3,
    rates=(1, 2, Fraction(1, 2)),
    single_rate: bool = False,
) -> PolyExp1D:
    rate_pool = [rng.choice(rates)] if single_rate else list(rates)
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        a = rng.choice(rate_pool)
        poly = terms.setdefault(a, {})
        key = (rng.randint(0, max_xpow), rng.randint(0, max_tpow))
        poly[key] = poly.get(key, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    f = PolyExp1D(terms)
    return f if not f.is_zero() else PolyExp1D.monomial(1, rate=rate_pool[0])


def product(f, g):
    """The pointwise product f g: ``_group_product`` without a convolved axis, rates added.

    No operator forms it (``mul_tpoly`` is its case of a t-only factor), so
    the tests check the kernel's plain product through it.
    """
    out: dict = {}
    for ra, ga in f._terms.items():
        for rb, gb in g._terms.items():
            group = pe._group_product(ga, gb)
            if group:
                rate = tuple((Fraction(*a) + Fraction(*b)).as_integer_ratio()
                             for a, b in zip(ra, rb))
                pe._merge(out, rate, group)
    return f._wrap(out)


# -- the six benchmark problems --------------------------------------------


@pytest.fixture(scope="session")
def constant_kernel_problem():
    return Model(exponential_ic(1), CoagKernel.CONSTANT)


@pytest.fixture(scope="session")
def sum_kernel_problem():
    return Model(exponential_ic(1), CoagKernel.SUM)


@pytest.fixture(scope="session")
def product_kernel_problem():
    return Model(exponential_ic(1), CoagKernel.PRODUCT)


@pytest.fixture(scope="session")
def binary_breakage_problem():
    """Binary breakage with S(x) = x on e^{-x}: the linear oracle case."""
    return Model(exponential_ic(1), frag=FragSpec(Fraction(2), 1, Fraction(1), 1))


@pytest.fixture(scope="session")
def coupled_halfx_problem():
    """Constant coagulation plus binary breakage, S = x/2, u0 = 4x e^{-2x}."""
    return Model(
        PolyExp1D.monomial(4, xpow=1, rate=2),
        CoagKernel.CONSTANT,
        FragSpec(Fraction(2), 1, Fraction(1, 2), 1),
    )


@pytest.fixture(scope="session")
def coupled_twox_problem():
    """Constant coagulation plus binary breakage, S = 2x, u0 = 32x e^{-4x}."""
    return Model(
        PolyExp1D.monomial(32, xpow=1, rate=4),
        CoagKernel.CONSTANT,
        FragSpec(Fraction(2), 1, Fraction(2), 1),
    )


@pytest.fixture(scope="session")
def bivariate_problem():
    """Constant-kernel 2-D coagulation, u0 = 6.25e6 x y e^{-50x-50y}."""
    return Model(
        PolyExp2D.monomial(6250000, xpow=1, ypow=1, xrate=50, yrate=50), CoagKernel.CONSTANT
    )
