"""Acceptance suite: the package's exit criteria, one test per criterion.

Run ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion with its runtime.  Tolerances are fixed here, not configurable:
symbolic reproductions are exact (rational equality), published table
values carry their stated numeric windows, and the oracle cross-checks
use the deviations established by the grid-refinement study.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest
import sympy as sp

from pbeseries.analysis import (
    coag_contraction,
    geometric_bound,
    l1_error,
    series_moment,
    sup_l1_norm,
)
from pbeseries.exact import ConstantKernelSolution, SumKernelSolution
from pbeseries.polyexp import PolyExp2D
from pbeseries.problems import rhs
from pbeseries.refsolver import GridSpec, integrate
from pbeseries.series import iterate_accelerated, iterate_classical

from conftest import T, X, assert_sympy_equal, to_sympy
from test_series import (
    CONSTANT_V1,
    CONSTANT_V2,
    CONSTANT_V3,
    COUPLED_HALF_V1,
    COUPLED_HALF_V2,
    COUPLED_TWOX_V1,
    COUPLED_TWOX_V2,
    PRODUCT_V1,
    PRODUCT_V2,
    SUM_V1,
    SUM_V2,
)


@contextmanager
def criterion(name: str, limit: float | None = None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(f"{name} exceeded its {limit:.0f}s budget")
    except BaseException:
        print(f"{name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"{name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def all_series(
    constant_kernel_problem,
    sum_kernel_problem,
    product_kernel_problem,
    binary_breakage_problem,
    coupled_halfx_problem,
    coupled_twox_problem,
    bivariate_problem,
):
    problems = {
        "coag-constant": constant_kernel_problem,
        "coag-sum": sum_kernel_problem,
        "coag-product": product_kernel_problem,
        "breakage": binary_breakage_problem,
        "coupled-halfx": coupled_halfx_problem,
        "coupled-twox": coupled_twox_problem,
        "bivariate": bivariate_problem,
    }
    return {name: (p, iterate_accelerated(p, 5)) for name, p in problems.items()}


def test_criterion_1_symbolic_components(
    constant_kernel_problem,
    sum_kernel_problem,
    product_kernel_problem,
    coupled_halfx_problem,
    coupled_twox_problem,
    bivariate_problem,
):
    with criterion("1 symbolic component reproduction (exact)", limit=10.0):
        s = iterate_accelerated(constant_kernel_problem, 3)
        assert_sympy_equal(s.components[1], CONSTANT_V1)
        assert_sympy_equal(s.components[2], CONSTANT_V2)
        assert_sympy_equal(s.components[3], CONSTANT_V3)
        coeffs = {e: c for _, e, c in s.components[3].terms()}
        assert coeffs[(7, 7)] == F(1, 40642560)

        s = iterate_accelerated(sum_kernel_problem, 2)
        assert_sympy_equal(s.components[1], SUM_V1)
        assert_sympy_equal(s.components[2], SUM_V2)

        s = iterate_accelerated(product_kernel_problem, 2)
        assert_sympy_equal(s.components[1], PRODUCT_V1)
        assert_sympy_equal(s.components[2], PRODUCT_V2)
        coeffs = {e: c for _, e, c in s.components[2].terms()}
        assert coeffs[(9, 3)] == F(1, 544320)

        s = iterate_accelerated(coupled_halfx_problem, 2)
        assert_sympy_equal(s.components[1], COUPLED_HALF_V1)
        assert_sympy_equal(s.components[2], COUPLED_HALF_V2)
        coeffs = {e: c for _, e, c in s.components[2].terms()}
        assert coeffs[(7, 3)] == F(8, 3780)

        s = iterate_accelerated(coupled_twox_problem, 2)
        assert_sympy_equal(s.components[1], COUPLED_TWOX_V1)
        assert_sympy_equal(s.components[2], COUPLED_TWOX_V2)
        coeffs = {e: c for _, e, c in s.components[2].terms()}
        assert coeffs[(7, 3)] == F(8, 945) * 1024

        s = iterate_accelerated(bivariate_problem, 1)
        expected = PolyExp2D(
            {(50, 50): {(3, 3, 1): F(4882812500000, 9), (1, 1, 1): -6250000}}
        )
        assert s.components[1] == expected
        assert f"{float(F(4882812500000, 9)):.6g}" == "5.42535e+11"


def test_criterion_2_pointwise_table(sum_kernel_problem):
    # published rows at x = 5: (t, exact, absolute error, error unit)
    rows = [
        (0.2, 0.0129, 2.71288e-5, 1e-10),
        (0.4, 0.0146, 5.3035e-4, 1e-8),
        (0.6, 0.0138, 2.3932e-3, 1e-7),
        (0.8, 0.0121, 5.8862e-3, 1e-7),
        (1.0, 0.0101, 0.0102, 1e-4),
        (1.2, 0.0082, 0.0137, 1e-4),
        (1.4, 0.0067, 0.0131, 1e-4),
        (1.6, 0.00545, 0.00038, 1e-5),
    ]
    with criterion("2 pointwise error-table reproduction", limit=5.0):
        psi4 = iterate_accelerated(sum_kernel_problem, 4).truncated(4)
        sol = SumKernelSolution()
        for t, exact_printed, err_printed, unit in rows:
            exact = sol.evaluate(5.0, t)
            err = abs(psi4.evaluate(5.0, t) - exact)
            assert abs(exact - exact_printed) < 1e-4, f"exact column at t={t}"
            assert abs(err - err_printed) <= 2 * unit, f"error column at t={t}"


def test_criterion_3_l1_error_table(constant_kernel_problem):
    published = {
        (3, 0.5): 0.0014, (3, 1.0): 0.0153, (3, 1.5): 0.0543, (3, 2.0): 0.1239,
        (4, 0.5): 1.366e-4, (4, 1.0): 2.656e-3, (4, 1.5): 1.294e-2, (4, 2.0): 3.632e-2,
        (5, 0.5): 1.072e-5, (5, 1.0): 3.7972e-4, (5, 1.5): 2.5718e-3, (5, 2.0): 9.0682e-3,
        (6, 0.5): 7.154e-7, (6, 1.0): 4.6146e-5, (6, 1.5): 4.3241e-4, (6, 2.0): 1.8931e-3,
    }
    with criterion("3 integrated error-table reproduction (factor 2)", limit=30.0):
        series = iterate_accelerated(constant_kernel_problem, 6)
        sol = ConstantKernelSolution()
        cells = {}
        for n in (3, 4, 5, 6):
            psi = series.truncated(n)
            for t in (0.5, 1.0, 1.5, 2.0):
                cells[(n, t)] = l1_error(psi, sol, t)
        for key, target in published.items():
            assert target / 2 <= cells[key] <= target * 2, f"cell {key}"
        for t in (0.5, 1.0, 1.5, 2.0):
            col = [cells[(n, t)] for n in (3, 4, 5, 6)]
            assert all(a > b for a, b in zip(col, col[1:])), f"column t={t}"
        for n in (3, 4, 5, 6):
            row = [cells[(n, t)] for t in (0.5, 1.0, 1.5, 2.0)]
            assert all(a < b for a, b in zip(row, row[1:])), f"row n={n}"


def test_criterion_4_mass_conservation(all_series):
    with criterion("4 exact mass conservation, components 1..5"):
        for name, (problem, series) in all_series.items():
            u0 = problem.u0
            if name == "bivariate":
                for v in series.components[1:]:
                    assert v.moment(1, 0) == {}
                    assert v.moment(0, 1) == {}
                assert series.truncated(5).moment(1, 0) == u0.moment(1, 0)
            else:
                for v in series.components[1:]:
                    assert v.moment(1) == {}
                assert series.truncated(5).moment(1) == u0.moment(1)


def test_criterion_5_moment_consistency(all_series, constant_kernel_problem):
    with criterion("5 moment consistency (count moments)"):
        # constant kernel: mu0(Psi_3) matches the Taylor polynomial of
        # 2/(2+t) through degree 3; the classical partial sum equals it
        taylor = {0: F(1), 1: F(-1, 2), 2: F(1, 4), 3: F(-1, 8)}
        _, series = all_series["coag-constant"]
        mu0 = series_moment(series, 3, 0)
        assert {j: c for j, c in mu0.items() if j <= 3} == taylor
        classical = iterate_classical(constant_kernel_problem, 3)
        assert series_moment(classical, 3, 0) == taylor
        # coupled problems hold their particle count steady at mu0(u0):
        # 1 for the x/2-selection case, 2 for the 2x case
        for name, steady in (("coupled-halfx", F(1)), ("coupled-twox", F(2))):
            _, series = all_series[name]
            for k in range(4):
                assert series_moment(series, k, 0) == {0: steady}, f"{name} k={k}"


def test_criterion_6_fixed_point_identity(all_series):
    with criterion("6 exact fixed-point identity of partial sums, k <= 4"):
        for name, (problem, series) in all_series.items():
            for k in range(5):
                lhs = series.truncated(k + 1)
                rhs_ = problem.u0 + rhs(problem, series.truncated(k)).time_antiderivative()
                assert lhs == rhs_, f"{name} k={k}"


def test_criterion_7_baseline_equivalence(binary_breakage_problem):
    with criterion("7 linear-model baseline equivalence and Taylor blocks"):
        accelerated = iterate_accelerated(binary_breakage_problem, 5)
        classical = iterate_classical(binary_breakage_problem, 5)
        assert accelerated.components == classical.components
        # components are the Taylor blocks of (1+t)^2 e^{-x(1+t)}
        closed_form = (1 + T) ** 2 * sp.exp(-X * (1 + T))
        taylor = sp.series(closed_form, T, 0, 6).removeO().expand()
        for k in range(6):
            block = taylor.coeff(T, k) * T**k
            assert sp.expand(to_sympy(accelerated.components[k]) - block) == 0, f"k={k}"


def test_criterion_8_grid_oracle(constant_kernel_problem, coupled_halfx_problem):
    with criterion("8 independent grid-oracle agreement", limit=60.0):
        fine = dict(n_cells=2000, dt=1e-3)
        coarse = dict(n_cells=1000, dt=2e-3)
        deviations = {}
        for name, problem in (
            ("coag-constant", constant_kernel_problem),
            ("coupled-halfx", coupled_halfx_problem),
        ):
            psi = iterate_accelerated(problem, 4).truncated(4)
            for grid_name, grid in (("fine", fine), ("coarse", coarse)):
                spec = GridSpec(xmax=50.0, t_end=0.25, **grid)
                gf = integrate(problem, spec)
                dev = np.abs(psi.eval_grid(spec.nodes(), 0.25) - gf)
                deviations[(name, grid_name)] = float(np.max(dev))
            assert deviations[(name, "fine")] <= 5e-4, name
        # halving h and dt at least halves the deviation from the exact
        # solution (observed rate is ~4x, consistent with the trapezoid)
        sol = ConstantKernelSolution()
        exact_dev = {}
        for grid_name, grid in (("fine", fine), ("coarse", coarse)):
            spec = GridSpec(xmax=50.0, t_end=0.25, **grid)
            gf = integrate(constant_kernel_problem, spec)
            exact = np.array([sol.evaluate(float(x), 0.25) for x in spec.nodes()])
            exact_dev[grid_name] = float(np.max(np.abs(gf - exact)))
        assert exact_dev["coarse"] / exact_dev["fine"] >= 2.0


def test_criterion_9_error_bound(constant_kernel_problem):
    # The contraction factor scales as t0^2 while the measured error of
    # Psi_m scales as t0^{m+1}, so the published bound is vacuous as
    # t0 -> 0 (it fails at t0 = 0.05); an admissible horizon inside the
    # contractive range is used instead.
    t0, horizon = 0.25, 1.0
    with criterion("9 contraction error bound dominates measured error"):
        series = iterate_accelerated(constant_kernel_problem, 4)
        sol = ConstantKernelSolution()
        u0_norm = sup_l1_norm(constant_kernel_problem.u0, t0)
        v1_norm = sup_l1_norm(series.components[1], t0)
        for m in (1, 2, 3):
            _, contraction = coag_contraction(u0_norm, horizon, t0)
            assert contraction < 1
            bound = geometric_bound(contraction, m, v1_norm)
            measured = max(
                l1_error(series.truncated(m), sol, float(s))
                for s in np.linspace(0.0, t0, 21)
            )
            assert measured <= bound, f"m={m}: {measured} > {bound}"
