"""Independent fixed-grid oracle for the 1-D models.

The right-hand sides are discretised with plain trapezoid quadrature on a
uniform size grid truncated at xmax (no tail correction; the supported initial
data decay exponentially, so the discarded tail is negligible), and stepped in
time with classical fourth-order Runge-Kutta; the product kernel x y runs as
the constant kernel on x u.  The self-convolution is ``np.correlate`` on
64-byte-aligned copies, bit-identical to ``np.convolve``.  No symbolic integral
code is reused: agreement with the series engine is evidence, not a tautology.

Grid functions are bare arrays of node values: ``sample_initial`` gives u0 at
``GridSpec.nodes()``, ``discrete_rhs`` the right-hand side RK4 steps, and
``integrate`` the values at t_end.  ``GridSpec.steps`` refuses a run whose
steps x (cells + 1)^2 passes ``MAX_CELL_STEPS`` before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import CoagKernel, Model

VALUE_BLOWUP_LIMIT = 1e6

# Cap on RK4 steps x (cells + 1)^2, the convolution work of a run (a run of 0
# steps counts as 1): 25 times the largest benchmark job, 4,000 cells for 250
# steps (4001^2 * 250 = 4.0e9).
MAX_CELL_STEPS = 1e11


class Unsupported2DError(ValueError):
    """The grid oracle covers the 1-D models only."""


class GridBudgetError(RuntimeError):
    """The run would pass ``MAX_CELL_STEPS``."""


class InstabilityError(RuntimeError):
    """Time stepping exceeded the blow-up guard."""

    def __init__(self, time: float):
        super().__init__(
            f"grid values exceeded {VALUE_BLOWUP_LIMIT:g} at t={time:g}; "
            "reduce dt or the time horizon"
        )
        self.time = time


@dataclass(frozen=True)
class GridSpec:
    xmax: float
    n_cells: int
    dt: float
    t_end: float

    def __post_init__(self):
        if self.xmax <= 0:
            raise ValueError("xmax must be positive")
        if self.n_cells < 16:
            raise ValueError("need at least 16 cells")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")

    @property
    def h(self) -> float:
        return self.xmax / self.n_cells

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.xmax, self.n_cells + 1)

    def steps(self) -> int:
        """The RK4 steps to t_end; GridBudgetError past ``MAX_CELL_STEPS``, before any work."""
        steps = max(1, int(round(self.t_end / self.dt))) if self.t_end else 0
        if max(steps, 1) * (self.n_cells + 1) ** 2 > MAX_CELL_STEPS:
            raise GridBudgetError(
                f"{steps:.3g} RK4 steps on {self.n_cells + 1} nodes exceed the grid budget of "
                f"{MAX_CELL_STEPS:g} steps x nodes^2; raise dt or lower t_end or the cell count")
        return steps


def _aligned(v: np.ndarray) -> np.ndarray:
    """A copy of v starting on a 64-byte boundary, where each ddot runs ~20% faster."""
    buf = np.empty(len(v) + 8)
    out = buf[(-buf.ctypes.data % 64) // 8 :][: len(v)]
    out[...] = v
    return out


def _coag_rhs(kernel: CoagKernel, u: np.ndarray, xs: np.ndarray, h: float) -> np.ndarray:
    g = xs * u if kernel is CoagKernel.PRODUCT else u  # x y is the constant kernel on x u
    # np.convolve(g, g) is this correlate on g and a reversed copy wherever malloc puts them
    conv = np.correlate(_aligned(g), _aligned(g[::-1]), "full")[: len(g)]
    trap = h * (conv - g[0] * g)  # halve both endpoint products
    if kernel is CoagKernel.SUM:  # K(x-y, y) = x inside the gain integral
        gain = 0.5 * xs * trap
        loss = u * (xs * np.trapezoid(u, dx=h) + np.trapezoid(xs * u, dx=h))
    else:
        gain = 0.5 * trap
        loss = g * np.trapezoid(g, dx=h)
    return gain - loss


def _frag_rhs(frag, u: np.ndarray, xs: np.ndarray, h: float) -> np.ndarray:
    p = frag.k - frag.r
    g = np.empty_like(u)
    g[1:] = xs[1:] ** p * u[1:]
    g[0] = u[0] if p == 0 else 0.0
    # right-to-left cumulative trapezoid: T_i = int_{x_i}^{xmax} g dy
    seg = 0.5 * h * (g[:-1] + g[1:])
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    birth = float(frag.c * frag.s) * xs ** (frag.r - 1) * tail
    death = float(frag.s) * xs**frag.k * u
    return birth - death


def discrete_rhs(problem: Model, u: np.ndarray, xs: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid discretisation of the model right-hand side at the node values u."""
    out = np.zeros_like(u)
    if problem.kernel is not None:
        out += _coag_rhs(problem.kernel, u, xs, h)
    if problem.frag is not None:
        out += _frag_rhs(problem.frag, u, xs, h)
    return out


def sample_initial(problem: Model, spec: GridSpec) -> np.ndarray:
    """u0 at the nodes of spec."""
    if problem.dim == 2:
        raise Unsupported2DError("the reference solver does not handle 2-D problems")
    vals = problem.u0.eval_grid(spec.nodes(), 0.0)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("u0 sampled on the grid is not finite")
    return vals


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is InstabilityError's to report
def integrate(problem: Model, spec: GridSpec) -> np.ndarray:
    """The node values at t_end, from the sampled u0 by classical RK4 over ``discrete_rhs``."""
    steps = spec.steps()
    u = sample_initial(problem, spec)
    if not steps:
        return u
    dt = spec.t_end / steps
    xs = spec.nodes()
    h = spec.h
    t = 0.0
    for _ in range(steps):
        k1 = discrete_rhs(problem, u, xs, h)
        k2 = discrete_rhs(problem, u + 0.5 * dt * k1, xs, h)
        k3 = discrete_rhs(problem, u + 0.5 * dt * k2, xs, h)
        k4 = discrete_rhs(problem, u + dt * k3, xs, h)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > VALUE_BLOWUP_LIMIT:
            raise InstabilityError(t)
    return u
