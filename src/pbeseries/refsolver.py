"""Independent fixed-grid oracle for the 1-D models.

The right-hand sides are discretised with plain trapezoid quadrature on a
uniform size grid truncated at xmax (no tail correction; the supported
initial data decay exponentially, so the discarded tail is negligible),
and stepped in time with classical fourth-order Runge-Kutta; the product
kernel x y runs as the constant kernel on x u.  No symbolic integral code
is reused: agreement with the series engine is evidence, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import CoagKernel, Model

VALUE_BLOWUP_LIMIT = 1e6


class Unsupported2DError(ValueError):
    """The grid oracle covers the 1-D models only."""


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


@dataclass
class GridFunction:
    spec: GridSpec
    values: np.ndarray
    time: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.spec.n_cells + 1,):
            raise ValueError("values must live on the node grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if not 0.0 <= self.time <= self.spec.t_end:
            raise ValueError("time stamp outside [0, t_end]")

    def moment(self, j: int) -> float:
        """Trapezoid moment int x^j u dx over the grid."""
        xs = self.spec.nodes()
        return float(np.trapezoid(xs**j * self.values, dx=self.spec.h))


def _require_1d(problem: Model) -> None:
    if problem.dim == 2:
        raise Unsupported2DError("the reference solver does not handle 2-D problems")


def _coag_rhs(kernel: CoagKernel, u: np.ndarray, xs: np.ndarray, h: float) -> np.ndarray:
    g = xs * u if kernel is CoagKernel.PRODUCT else u  # x y is the constant kernel on x u
    conv = np.convolve(g, g)[: len(g)]
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


def _rhs_values(problem: Model, u: np.ndarray, xs: np.ndarray, h: float) -> np.ndarray:
    """Right-hand side on bare node values: the one path RK4 and discrete_rhs share."""
    out = np.zeros_like(u)
    if problem.kernel is not None:
        out += _coag_rhs(problem.kernel, u, xs, h)
    if problem.frag is not None:
        out += _frag_rhs(problem.frag, u, xs, h)
    return out


def discrete_rhs(problem: Model, u: GridFunction) -> GridFunction:
    """Trapezoid discretisation of the model right-hand side."""
    _require_1d(problem)
    return GridFunction(u.spec, _rhs_values(problem, u.values, u.spec.nodes(), u.spec.h), u.time)


def sample_initial(problem: Model, spec: GridSpec) -> GridFunction:
    _require_1d(problem)
    xs = spec.nodes()
    vals = problem.u0.eval_grid(xs, 0.0)
    return GridFunction(spec, vals, 0.0)


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is InstabilityError's to report
def integrate(problem: Model, spec: GridSpec) -> GridFunction:
    """March the sampled initial state to t_end with classical RK4."""
    _require_1d(problem)
    state = sample_initial(problem, spec)
    if spec.t_end == 0:
        return state
    steps = max(1, int(round(spec.t_end / spec.dt)))
    dt = spec.t_end / steps
    xs = spec.nodes()
    h = spec.h

    u = state.values
    t = 0.0
    for _ in range(steps):
        k1 = _rhs_values(problem, u, xs, h)
        k2 = _rhs_values(problem, u + 0.5 * dt * k1, xs, h)
        k3 = _rhs_values(problem, u + 0.5 * dt * k2, xs, h)
        k4 = _rhs_values(problem, u + dt * k3, xs, h)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > VALUE_BLOWUP_LIMIT:
            raise InstabilityError(t)
    return GridFunction(spec, u, spec.t_end)
