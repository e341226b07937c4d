"""Tests for the grid-based reference solver."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbeseries.exact import ConstantKernelSolution
from pbeseries.polyexp import PolyExp1D
from pbeseries.problems import CoagKernel, FragSpec, Model, exponential_ic
from pbeseries import refsolver
from pbeseries.refsolver import (
    MAX_CELL_STEPS,
    GridBudgetError,
    GridSpec,
    InstabilityError,
    Unsupported2DError,
    _coag_rhs,
    discrete_rhs,
    integrate,
    sample_initial,
)
from pbeseries.series import iterate_accelerated


SPEC = GridSpec(xmax=50.0, n_cells=2000, dt=1e-3, t_end=0.5)


def all_problems():
    return [
        Model(exponential_ic(1), CoagKernel.CONSTANT),
        Model(exponential_ic(1), CoagKernel.SUM),
        Model(exponential_ic(1), CoagKernel.PRODUCT),
        Model(PolyExp1D.monomial(4, xpow=1, rate=2), CoagKernel.CONSTANT,
              FragSpec(F(2), 1, F(1, 2), 1)),
        Model(PolyExp1D.monomial(32, xpow=1, rate=4), CoagKernel.CONSTANT,
              FragSpec(F(2), 1, F(2), 1)),
    ]


def _spy_on_correlate(monkeypatch, calls):
    """Record (a, v, result) of every np.correlate call."""
    real = np.correlate

    def spy(a, v, mode="valid"):
        out = real(a, v, mode)
        calls.append((a, v, out))
        return out

    monkeypatch.setattr(np, "correlate", spy)


# both signs, zeros (so -0.0 too) and magnitudes whose products overflow or underflow
_SIGNED = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e-301, 1e-299),
              st.floats(1e299, 1e301)),
    st.booleans(),
).map(lambda m: -m[0] if m[1] else m[0])


@st.composite
def conv_operands(draw):
    """A dense operand: normal draws at one scale, some zeros, some drawn values."""
    n = draw(st.integers(17, 4001))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal(n) * draw(st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]))
    g[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), _SIGNED), max_size=24)):
        g[i] = value
    return g


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 100, 1e-3, 1.0)
        with pytest.raises(ValueError):
            GridSpec(50.0, 8, 1e-3, 1.0)
        with pytest.raises(ValueError):
            GridSpec(50.0, 100, 0.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(50.0, 100, 1e-3, -1.0)

    def test_budget_counts_steps_times_nodes_squared(self):
        assert SPEC.steps() == 500
        # the benchmark's largest run: 4001^2 * 250 = 4.0e9, about a 25th of the cap
        assert 24 * GridSpec(50.0, 4000, 1e-3, 0.25).steps() * 4001**2 < MAX_CELL_STEPS
        # 10^5 nodes: 10 steps are the cap itself, 11 pass it
        assert GridSpec(50.0, 99_999, 0.1, 1.0).steps() == 10
        for spec in (GridSpec(50.0, 99_999, 0.1, 1.1), GridSpec(50.0, 16, 1e-320, 1e-300),
                     GridSpec(50.0, 4000, 1e-3, 100.0), GridSpec(50.0, 10**6, 1e-3, 0.0)):
            with pytest.raises(GridBudgetError, match="exceed the grid budget"):
                spec.steps()

    def test_nodes(self):
        spec = GridSpec(10.0, 20, 0.1, 1.0)
        xs = spec.nodes()
        assert len(xs) == 21 and xs[0] == 0.0 and xs[-1] == 10.0
        assert abs(spec.h - 0.5) <= 1e-15


def rhs_at(problem, u, spec=SPEC):
    return discrete_rhs(problem, u, spec.nodes(), spec.h)


def trapezoid_moment(u, j, spec=SPEC):
    """int x^j u dx over the node values u by the trapezoid rule."""
    return float(np.trapezoid(spec.nodes() ** j * u, dx=spec.h))


class TestDiscreteRhs:
    def test_symbolic_consistency_at_unit_size(self):
        # trapezoid loss carries an h^2/12 floor (~1.9e-5 at h = 0.025),
        # so agreement with the exact operator sits just above it
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        r = rhs_at(problem, sample_initial(problem, SPEC))
        i = round(1.0 / SPEC.h)
        target = math.exp(-1.0) * (0.5 - 1.0)
        assert abs(r[i] - target) <= 5e-5

    def test_zero_state(self):
        problem = Model(exponential_ic(1), CoagKernel.SUM)
        assert np.all(rhs_at(problem, np.zeros(SPEC.n_cells + 1)) == 0.0)

    @pytest.mark.parametrize("problem", all_problems())
    def test_discrete_mass_balance(self, problem):
        assert abs(trapezoid_moment(rhs_at(problem, sample_initial(problem, SPEC)), 1)) <= 1e-6

    def test_rejects_2d(self, bivariate_problem):
        with pytest.raises(Unsupported2DError):
            sample_initial(bivariate_problem, SPEC)


class TestConvolution:
    @given(conv_operands())
    def test_bit_identical_to_np_convolve(self, g):
        # np.convolve(g, g) reads g in place, so place it at every 8-byte offset mod 64
        n = len(g)
        xs = np.linspace(0.0, 1.0, n)
        buf = np.empty(n + 16)
        base = (-buf.ctypes.data % 64) // 8
        for offset in range(8):
            placed = buf[base + offset : base + offset + n]
            placed[...] = g
            calls = []
            with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                _spy_on_correlate(mp, calls)
                _coag_rhs(CoagKernel.CONSTANT, placed, xs, 1.0)
                (_, _, conv), = calls
                expected = np.convolve(placed, placed)
            assert conv[:n].tobytes() == expected[:n].tobytes()

    @pytest.mark.parametrize("kernel", [CoagKernel.CONSTANT, CoagKernel.SUM, CoagKernel.PRODUCT])
    def test_operands_are_64_byte_aligned(self, kernel, monkeypatch):
        calls = []
        _spy_on_correlate(monkeypatch, calls)
        integrate(Model(exponential_ic(1), kernel), GridSpec(50.0, 200, 1e-2, 2e-2))
        assert len(calls) == 8  # four RK4 stages on each of two steps
        for a, v, _ in calls:
            assert a.ctypes.data % 64 == 0 and v.ctypes.data % 64 == 0


class TestIntegrate:
    def test_zero_horizon_returns_sample(self):
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        spec = GridSpec(50.0, 500, 1e-2, 0.0)
        gf = integrate(problem, spec)
        assert np.array_equal(gf, sample_initial(problem, spec))

    @pytest.mark.parametrize(
        "problem", all_problems() + [Model(exponential_ic(1), frag=FragSpec(2, 1, 1, 1))]
    )
    def test_step_is_rk4_over_discrete_rhs(self, problem):
        # integrate steps the same right-hand side that discrete_rhs exposes
        spec = GridSpec(50.0, 200, 1e-2, 1e-2)
        u = sample_initial(problem, spec)
        k1 = rhs_at(problem, u, spec)
        k2 = rhs_at(problem, u + 0.5 * spec.dt * k1, spec)
        k3 = rhs_at(problem, u + 0.5 * spec.dt * k2, spec)
        k4 = rhs_at(problem, u + spec.dt * k3, spec)
        by_hand = u + (spec.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(integrate(problem, spec), by_hand)

    def test_against_exact_solution(self):
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        gf = integrate(problem, SPEC)
        sol = ConstantKernelSolution()
        exact = np.array([sol.evaluate(float(x), 0.5) for x in SPEC.nodes()])
        assert np.max(np.abs(gf - exact)) <= 1e-4

    def test_steady_count_coupled(self):
        problem = Model(PolyExp1D.monomial(4, xpow=1, rate=2), CoagKernel.CONSTANT,
                        FragSpec(F(2), 1, F(1, 2), 1))
        assert abs(trapezoid_moment(integrate(problem, SPEC), 0) - 1.0) <= 1e-3

    @pytest.mark.parametrize("problem", all_problems())
    def test_mass_drift(self, problem):
        # the product kernel transports mass toward large sizes quickly,
        # so its box is widened to keep the truncation flux out of the test
        wide = problem.kernel is CoagKernel.PRODUCT
        spec = GridSpec(100.0 if wide else 50.0, 4000 if wide else 2000, 1e-3, 0.2)
        m0 = trapezoid_moment(sample_initial(problem, spec), 1, spec)
        mf = trapezoid_moment(integrate(problem, spec), 1, spec)
        assert abs(mf - m0) / m0 <= 1e-4

    def test_refinement_improves_accuracy(self):
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        sol = ConstantKernelSolution()
        devs = {}
        for cells, dt in ((500, 4e-3), (1000, 2e-3)):
            spec = GridSpec(50.0, cells, dt, 0.25)
            gf = integrate(problem, spec)
            exact = np.array([sol.evaluate(float(x), 0.25) for x in spec.nodes()])
            devs[cells] = np.max(np.abs(gf - exact))
        assert devs[500] / devs[1000] >= 2.0

    def test_series_agreement(self):
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        psi = iterate_accelerated(problem, 4).truncated(4)
        spec = GridSpec(50.0, 2000, 1e-3, 0.25)
        gf = integrate(problem, spec)
        dev = np.abs(psi.eval_grid(spec.nodes(), 0.25) - gf)
        assert np.max(dev) <= 5e-4

    def test_instability_guard(self):
        problem = Model(PolyExp1D.monomial(100000, xpow=0, rate=1), CoagKernel.SUM)
        with pytest.raises(InstabilityError):
            integrate(problem, GridSpec(50.0, 64, 0.5, 5.0))

    def test_rejects_2d(self, bivariate_problem):
        with pytest.raises(Unsupported2DError):
            integrate(bivariate_problem, SPEC)

    def test_budget_trips_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled u0 past the budget")

        monkeypatch.setattr(refsolver, "sample_initial", refuse)
        with pytest.raises(GridBudgetError):
            integrate(Model(exponential_ic(1), CoagKernel.CONSTANT),
                      GridSpec(50.0, 16, 1e-320, 1e-300))
