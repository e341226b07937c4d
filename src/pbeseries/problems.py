"""Population balance models and their right-hand sides on the symbolic class.

One ``Model(u0, kernel=None, frag=None)`` covers the paper's four
variants; its right-hand side is the sum of the operators it carries:

  * coagulation (kernel)  du/dt = 1/2 int_0^x K(x-y,y) u(x-y) u(y) dy
                                  - int_0^inf K(x,y) u(x) u(y) dy
  * breakage (frag)       du/dt = int_x^inf B(x,y) S(y) u(y) dy - S(x) u(x)

so pure coagulation sets ``kernel``, pure fragmentation sets ``frag``, the
coupled model sets both, and bivariate coagulation is the constant kernel
on a 2-D ``u0`` (the dimension is ``u0.dim``).

Coagulation kernels form a closed enum (constant, sum, product): each
carries a closed-form reduction of its gain and loss integrals to the
convolution/moment operators, which keeps the symbolic path total.  The
product kernel x y is the constant kernel on x u (``coag_operand``): its gain
is (x u) * (x w) and its loss (x u) mu_1(w) = (x u) mu_0(x w).
Breakage is the two-parameter power family B(x,y) = c x^{r-1} / y^r with
selection S(x) = s x^k; the family is mass-conserving exactly when
c = r + 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .polyexp import (
    OutOfClassError,
    PolyExp,
    PolyExp1D,
    PolyExp2D,
    RationalLike,
    as_fraction,
)


class CoagKernel(Enum):
    CONSTANT = "constant"  # K(x, y) = 1
    SUM = "sum"            # K(x, y) = x + y
    PRODUCT = "product"    # K(x, y) = x y


@dataclass(frozen=True)
class FragSpec:
    """Breakage family B(x,y) = c x^{r-1}/y^r with selection S(x) = s x^k."""

    c: Fraction
    r: int
    s: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "c", as_fraction(self.c))
        object.__setattr__(self, "s", as_fraction(self.s))
        object.__setattr__(self, "r", operator.index(self.r))
        object.__setattr__(self, "k", operator.index(self.k))
        if self.c <= 0 or self.s <= 0:
            raise ValueError("breakage constants c and s must be positive")
        if self.r < 1:
            raise ValueError("breakage exponent r must be a positive integer")
        if self.k < 0:
            raise ValueError("selection exponent k must be a nonnegative integer")

    @property
    def mass_conserving(self) -> bool:
        """True when int_0^y x B(x, y) dx = y exactly, i.e. c = r + 1."""
        return self.c == self.r + 1


@dataclass(frozen=True)
class Model:
    """A population balance model: coagulation, breakage or both, from u0."""

    u0: PolyExp
    kernel: CoagKernel | None = None
    frag: FragSpec | None = None

    def __post_init__(self):
        if self.kernel is None and self.frag is None:
            raise ValueError("a model needs a coagulation kernel, a breakage family or both")
        if self.dim == 2 and (self.kernel is not CoagKernel.CONSTANT or self.frag is not None):
            raise ValueError("a bivariate u0 takes constant-kernel coagulation only")
        if self.u0.is_zero():
            raise ValueError("initial condition must be nonzero")
        if self.u0.has_zero_rate():
            raise ValueError("initial condition needs strictly positive rates")
        if self.u0.t_degree() > 0:
            raise ValueError("initial condition must not depend on t")

    @property
    def dim(self) -> int:
        """Number of size variables, 1 or 2, as declared by u0's class."""
        return self.u0.dim


def coag_operand(kernel: CoagKernel, u: PolyExp) -> PolyExp:
    """What ``coag_gain`` and ``coag_loss`` take for u: x u on the product kernel, else u."""
    return u.mul_x() if kernel is CoagKernel.PRODUCT else u


def coag_gain(kernel: CoagKernel, u: PolyExp, w: PolyExp) -> PolyExp:
    """Gain int_0^x K(x-y, y) u(x-y) w(y) dy of two operands, symmetric; K = 1 serves 2-D too."""
    gain = u.convolve(w)
    return gain.mul_x() if kernel is CoagKernel.SUM else gain


def coag_loss(kernel: CoagKernel, u: PolyExp, moment) -> PolyExp:
    """Loss u(x) int_0^inf K(x, y) w(y) dy of an operand; ``moment(j)`` is w's operand's j-th."""
    if kernel is CoagKernel.SUM:
        return u.mul_x().mul_tpoly(moment(0)) + u.mul_tpoly(moment(1))
    return u.mul_tpoly(moment(0))


def coag_bilinear(kernel: CoagKernel, u: PolyExp1D, w: PolyExp1D) -> PolyExp1D:
    """Bilinear coagulation form Q(u, w) = 1/2 gain(u, w) - loss(u, w); the rhs is Q(u, u)."""
    xu = coag_operand(kernel, u)
    xw = xu if w is u else coag_operand(kernel, w)  # Q(u, u): one operand, a self-product gain
    return coag_gain(kernel, xu, xw).scale(Fraction(1, 2)) - coag_loss(kernel, xu, xw.moment)


def frag_rhs(spec: FragSpec, u: PolyExp1D) -> PolyExp1D:
    """Linear breakage operator: birth tail integral minus selection death.

    birth = c s x^{r-1} int_x^inf y^{k-r} u(y, t) dy, which stays in class
    only if every monomial power m of u satisfies m + k - r >= 0.
    """
    try:
        birth = u.tail_integral(spec.k - spec.r).mul_x(spec.r - 1).scale(spec.c * spec.s)
    except OutOfClassError as exc:
        raise OutOfClassError(
            f"breakage birth integral left the function class: {exc}"
        ) from exc
    death = u.mul_x(spec.k).scale(spec.s)
    return birth - death


def coag2d_bilinear(u: PolyExp2D, w: PolyExp2D) -> PolyExp2D:
    """Constant-kernel bivariate form: 1/2 convolution minus count loss."""
    gain = coag_gain(CoagKernel.CONSTANT, u, w)
    return gain.scale(Fraction(1, 2)) - coag_loss(CoagKernel.CONSTANT, u, w.moment)


def bilinear(model: Model, u, w):
    """The model's coagulation form Q(u, w); its right-hand side uses Q(u, u)."""
    if model.dim == 2:
        return coag2d_bilinear(u, w)
    return coag_bilinear(model.kernel, u, w)


def rhs(model: Model, u):
    """Model right-hand side applied to a symbolic state."""
    if model.kernel is None:
        return frag_rhs(model.frag, u)
    out = bilinear(model, u, u)
    return out if model.frag is None else out + frag_rhs(model.frag, u)


def exponential_ic(rate: RationalLike = 1) -> PolyExp1D:
    """e^{-a x}, the workhorse initial condition."""
    return PolyExp1D.monomial(1, rate=rate)


def mono_exponential_ic(
    coeff: RationalLike, xpow: int, rate: RationalLike
) -> PolyExp1D:
    """c x^p e^{-a x}."""
    return PolyExp1D.monomial(coeff, xpow=xpow, rate=rate)
