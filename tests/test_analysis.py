"""Tests for error norms, series moments, bounds and tables."""

import json
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from scipy import integrate

from pbeseries import analysis
from pbeseries.analysis import (
    ErrorTable,
    InvalidSpecError,
    coag2d_bounds,
    coag_bound,
    error_table_l1,
    error_table_pointwise,
    frag_bound,
    l1_error,
    pointwise,
    series_moment,
    sup_l1_norm,
)
from pbeseries.cli import main
from pbeseries.exact import ConstantKernelSolution, SumKernelSolution
from pbeseries.polyexp import PolyExp1D
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
        approx, ex, err = pointwise(psi4, sol, 5.0, 0.2)
        assert abs(ex - 0.0129) < 1e-4
        assert abs(err - 2.71288e-5) <= 2e-10
        _, _, err = pointwise(psi4, sol, 5.0, 1.0)
        assert abs(err - 0.0102) <= 2e-4

    def test_zero_at_initial_time(self, constant_series):
        _, _, err = pointwise(constant_series.truncated(3), ConstantKernelSolution(), 1.3, 0.0)
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
        b = coag_bound(1.0, 1.0, 0.05, 3, 1.0)
        assert b.lipschitz == 2.0
        assert abs(b.contraction - 0.05**2 * math.exp(0.2) * 1.6) <= 1e-15
        assert abs(b.contraction - 4.886e-3) <= 2e-6
        assert b.contractive

    def test_vanishing_horizon(self):
        for t0 in (1e-3, 1e-5):
            b = coag_bound(1.0, 1.0, t0, 1, 1.0)
            assert b.contraction < 4 * t0**2
            assert b.bound < 5 * t0**2

    def test_zeroth_order_bound(self):
        b = coag_bound(1.0, 1.0, 0.05, 0, 2.0)
        assert abs(b.bound - 2.0 / (1.0 - b.contraction)) <= 1e-15

    def test_frag_quarter(self):
        b = frag_bound(1, 1.0, 0.5, 1, 1.0)
        assert b.contraction == 0.25

    def test_frag_boundary_not_contractive(self):
        b = frag_bound(1, 1.0, 1.0, 2, 1.0)
        assert not b.contractive
        assert math.isinf(b.bound)

    def test_frag_rational_case(self):
        b = frag_bound(2, 2.0, 0.5, 3, 1.0)
        assert abs(b.contraction - 1.0 / 16.0) <= 1e-15
        assert abs(b.bound - (1.0 / 16.0) ** 3 / (15.0 / 16.0)) <= 1e-18

    def test_monotone_in_t0_and_m(self):
        bounds = [coag_bound(1.0, 1.0, t0, 2, 1.0) for t0 in (0.05, 0.10, 0.15)]
        assert bounds[0].contraction < bounds[1].contraction < bounds[2].contraction
        assert bounds[0].bound < bounds[1].bound < bounds[2].bound
        by_m = [coag_bound(1.0, 1.0, 0.1, m, 1.0).bound for m in (1, 2, 3)]
        assert by_m[0] > by_m[1] > by_m[2]
        thetas = [frag_bound(1, 1.0, t0, 2, 1.0).contraction for t0 in (0.3, 0.5, 0.7)]
        assert thetas[0] < thetas[1] < thetas[2]

    def test_2d_variants(self):
        pair = coag2d_bounds(1.0, 1.0, 0.05, 3, 1.0)
        assert abs(pair["statement"].contraction - 2 * pair["derived"].contraction) <= 1e-18
        assert pair["derived"].contraction == coag_bound(1.0, 1.0, 0.05, 3, 1.0).contraction

    def test_input_validation(self):
        with pytest.raises(InvalidSpecError):
            coag_bound(-1.0, 1.0, 0.1, 1, 1.0)
        with pytest.raises(InvalidSpecError):
            frag_bound(0, 1.0, 0.1, 1, 1.0)


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

    def test_invalid(self):
        with pytest.raises(InvalidSpecError):
            sup_l1_norm(PolyExp1D.monomial(1, rate=1), -1.0)


def _no_quad(*args, **kwargs):
    raise AssertionError("quad called on a single-rate value")


def _counting_quad(calls):
    def quad(*args, **kwargs):
        calls.append(args[1:3])
        return integrate.quad(*args, **kwargs)

    return SimpleNamespace(quad=quad)


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
        # (x^2 - 2x + 5)(x - 3): Descartes allows three positive roots,
        # Sturm certifies the single one at x = 3
        monkeypatch.setattr(analysis, "integrate", SimpleNamespace(quad=_no_quad))
        f = PolyExp1D({1: {(3, 0): 1, (2, 0): -5, (1, 0): 11, (0, 0): -15}})
        ref, _ = integrate.quad(
            lambda x: abs((x * x - 2 * x + 5) * (x - 3)) * math.exp(-x), 0, 3, epsrel=1e-13)
        tail, _ = integrate.quad(
            lambda x: abs((x * x - 2 * x + 5) * (x - 3)) * math.exp(-x), 3, math.inf,
            epsrel=1e-13)
        assert sup_l1_norm(f, 0.0) == pytest.approx(ref + tail, rel=1e-12)

    def test_repeated_root_falls_back_to_quad(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "integrate", _counting_quad(calls))
        roots = [F(1), F(1), F(3)]
        got = sup_l1_norm(_from_roots(1, roots, 1, tpow=0), 0.0)
        assert calls == [(0.0, 50.0)]
        assert got == pytest.approx(_split_quad(1.0, roots, 1), rel=1e-9)

    def test_two_rates_go_through_quad(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "integrate", _counting_quad(calls))
        f = PolyExp1D({1: {(1, 0): 1, (0, 0): -1}, 2: {(0, 0): F(1, 2)}})
        got = sup_l1_norm(f, 0.0)
        assert calls == [(0.0, 50.0)]
        ref, _ = integrate.quad(
            lambda x: abs((x - 1) * math.exp(-x) + 0.5 * math.exp(-2 * x)), 0, 50,
            points=[0.5, 1.0], epsrel=1e-12, limit=200)
        assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("t0", [0.05, 0.25, 1.0])
    def test_first_components_in_closed_form(
        self, constant_kernel_problem, binary_breakage_problem, t0
    ):
        # v_1 = t (x/2 - 1) e^{-x} and t (2 - x) e^{-x}
        v1 = iterate_accelerated(constant_kernel_problem, 1).components[1]
        assert sup_l1_norm(v1, t0) == pytest.approx(t0 * (0.5 + math.exp(-2)), rel=1e-14)
        v1 = iterate_accelerated(binary_breakage_problem, 1).components[1]
        assert sup_l1_norm(v1, t0) == pytest.approx(t0 * (1 + 2 * math.exp(-2)), rel=1e-14)


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
        frag = iterate_accelerated(binary_breakage_problem, 2)
        for f in (*constant_series.components, *frag.components):
            assert sup_l1_norm(f, 0.25) >= 0.0
        for argv in BOUNDS_1D:
            assert main(["bounds", *argv]) == 0
        assert capsys.readouterr().err == ""

    def test_error_table_samples_exact_solution_once_per_time(self, constant_series):
        calls = []

        class Counting:
            def evaluate(self, x, t):
                calls.append(t)
                return ConstantKernelSolution().evaluate(x, t)

        times = [0.5, 1.0]
        table = error_table_l1(constant_series, Counting(), [1, 2, 3], times)
        assert len(calls) == len(times) * 5001
        # the shared grids reproduce the per-cell l1_error exactly
        sol = ConstantKernelSolution()
        assert table.cells == tuple(
            tuple(l1_error(constant_series.truncated(n), sol, t) for t in times)
            for n in (1, 2, 3)
        )


class TestErrorTables:
    def test_l1_table_shape(self, constant_series):
        table = error_table_l1(
            constant_series, ConstantKernelSolution(), [2, 3], [0.5, 1.0], step=0.05
        )
        assert table.row_labels == (2, 3)
        assert table.col_labels == (0.5, 1.0)
        assert len(table.cells) == 2 and len(table.cells[0]) == 2
        csv = table.to_csv()
        assert csv.startswith("# norm = L1[0,50]")
        assert csv.count("\n") == 4

    def test_pointwise_table_columns(self, sum_series):
        table = error_table_pointwise(sum_series, SumKernelSolution(), 5.0, [0.2, 0.4])
        assert table.col_labels == ("exact", "approx", "abs_error")
        obj = table.to_json_obj()
        assert json.dumps(obj)  # serializable
        assert obj["row_labels"] == [0.2, 0.4]

    def test_empty_axes_rejected(self, constant_series):
        with pytest.raises(InvalidSpecError):
            error_table_l1(constant_series, ConstantKernelSolution(), [], [1.0])
        with pytest.raises(InvalidSpecError):
            error_table_pointwise(sum_series, SumKernelSolution(), 5.0, [])

    def test_nonfinite_cells_rejected(self):
        with pytest.raises(InvalidSpecError):
            ErrorTable("n", "t", (1,), (1.0,), ((math.inf,),), "test")

    def test_ragged_cells_rejected(self):
        with pytest.raises(InvalidSpecError):
            ErrorTable("n", "t", (1, 2), (1.0,), ((0.1,),), "test")