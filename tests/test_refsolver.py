"""Tests for the grid-based reference solver."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbeseries.exact import ConstantKernelSolution
from pbeseries.problems import (
    CoagKernel,
    FragSpec,
    Model,
    exponential_ic,
    mono_exponential_ic,
)
from pbeseries.refsolver import (
    GridFunction,
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
        Model(mono_exponential_ic(4, 1, 2), CoagKernel.CONSTANT, FragSpec(F(2), 1, F(1, 2), 1)),
        Model(mono_exponential_ic(32, 1, 4), CoagKernel.CONSTANT, FragSpec(F(2), 1, F(2), 1)),
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

    def test_nodes(self):
        spec = GridSpec(10.0, 20, 0.1, 1.0)
        xs = spec.nodes()
        assert len(xs) == 21 and xs[0] == 0.0 and xs[-1] == 10.0
        assert abs(spec.h - 0.5) <= 1e-15


class TestDiscreteRhs:
    def test_symbolic_consistency_at_unit_size(self):
        # trapezoid loss carries an h^2/12 floor (~1.9e-5 at h = 0.025),
        # so agreement with the exact operator sits just above it
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        r = discrete_rhs(problem, sample_initial(problem, SPEC))
        i = round(1.0 / SPEC.h)
        target = math.exp(-1.0) * (0.5 - 1.0)
        assert abs(r.values[i] - target) <= 5e-5

    def test_zero_state(self):
        problem = Model(exponential_ic(1), CoagKernel.SUM)
        zero = GridFunction(SPEC, np.zeros(SPEC.n_cells + 1), 0.0)
        assert np.all(discrete_rhs(problem, zero).values == 0.0)

    @pytest.mark.parametrize("problem", all_problems())
    def test_discrete_mass_balance(self, problem):
        r = discrete_rhs(problem, sample_initial(problem, SPEC))
        xs = SPEC.nodes()
        assert abs(np.trapezoid(xs * r.values, dx=SPEC.h)) <= 1e-6

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
        assert np.array_equal(gf.values, sample_initial(problem, spec).values)

    @pytest.mark.parametrize(
        "problem", all_problems() + [Model(exponential_ic(1), frag=FragSpec(2, 1, 1, 1))]
    )
    def test_step_is_rk4_over_discrete_rhs(self, problem):
        # integrate steps the same right-hand side that discrete_rhs exposes
        spec = GridSpec(50.0, 200, 1e-2, 1e-2)
        u = sample_initial(problem, spec)

        def rhs(vals):
            return discrete_rhs(problem, GridFunction(spec, vals, 0.0)).values

        k1 = rhs(u.values)
        k2 = rhs(u.values + 0.5 * spec.dt * k1)
        k3 = rhs(u.values + 0.5 * spec.dt * k2)
        k4 = rhs(u.values + spec.dt * k3)
        by_hand = u.values + (spec.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(integrate(problem, spec).values, by_hand)

    def test_against_exact_solution(self):
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        gf = integrate(problem, SPEC)
        sol = ConstantKernelSolution()
        exact = np.array([sol.evaluate(float(x), 0.5) for x in SPEC.nodes()])
        assert np.max(np.abs(gf.values - exact)) <= 1e-4

    def test_steady_count_coupled(self):
        problem = Model(
            mono_exponential_ic(4, 1, 2), CoagKernel.CONSTANT, FragSpec(F(2), 1, F(1, 2), 1)
        )
        gf = integrate(problem, SPEC)
        assert abs(gf.moment(0) - 1.0) <= 1e-3

    @pytest.mark.parametrize("problem", all_problems())
    def test_mass_drift(self, problem):
        # the product kernel transports mass toward large sizes quickly,
        # so its box is widened to keep the truncation flux out of the test
        wide = problem.kernel is CoagKernel.PRODUCT
        spec = GridSpec(100.0 if wide else 50.0, 4000 if wide else 2000, 1e-3, 0.2)
        g0 = sample_initial(problem, spec)
        gf = integrate(problem, spec)
        assert abs(gf.moment(1) - g0.moment(1)) / g0.moment(1) <= 1e-4

    def test_refinement_improves_accuracy(self):
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        sol = ConstantKernelSolution()
        devs = {}
        for cells, dt in ((500, 4e-3), (1000, 2e-3)):
            spec = GridSpec(50.0, cells, dt, 0.25)
            gf = integrate(problem, spec)
            exact = np.array([sol.evaluate(float(x), 0.25) for x in spec.nodes()])
            devs[cells] = np.max(np.abs(gf.values - exact))
        assert devs[500] / devs[1000] >= 2.0

    def test_series_agreement(self):
        problem = Model(exponential_ic(1), CoagKernel.CONSTANT)
        psi = iterate_accelerated(problem, 4).truncated(4)
        spec = GridSpec(50.0, 2000, 1e-3, 0.25)
        gf = integrate(problem, spec)
        dev = np.abs(psi.eval_grid(spec.nodes(), 0.25) - gf.values)
        assert np.max(dev) <= 5e-4

    def test_instability_guard(self):
        problem = Model(mono_exponential_ic(100000, 0, 1), CoagKernel.SUM)
        with pytest.raises(InstabilityError):
            integrate(problem, GridSpec(50.0, 64, 0.5, 5.0))

    def test_rejects_2d(self, bivariate_problem):
        with pytest.raises(Unsupported2DError):
            integrate(bivariate_problem, SPEC)


class TestGridFunction:
    def test_shape_check(self):
        spec = GridSpec(1.0, 16, 0.5, 1.0)
        with pytest.raises(ValueError):
            GridFunction(spec, np.zeros(5), 0.0)

    def test_value_and_time_validation(self):
        spec = GridSpec(1.0, 16, 0.5, 1.0)
        bad = np.zeros(17)
        bad[3] = math.nan
        with pytest.raises(ValueError):
            GridFunction(spec, bad, 0.0)
        with pytest.raises(ValueError):
            GridFunction(spec, np.zeros(17), 2.0)
