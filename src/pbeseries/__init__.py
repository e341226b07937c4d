"""Semi-analytical series solutions for population balance equations.

The package computes truncated series solutions of coagulation,
fragmentation, coupled and bivariate population balance models over an
exact rational polynomial-exponential algebra, and validates them
against closed-form solutions, moment laws, contraction-based error
bounds and an independent grid solver.
"""

from .polyexp import (
    DegreeOverflowError,
    MixedRatesError,
    OutOfClassError,
    PolyExp1D,
    PolyExp2D,
    PolyExpError,
    ZeroRateError,
    from_obj,
)
from .problems import (
    CoagKernel,
    FragSpec,
    Model,
    coag2d_bilinear,
    coag_bilinear,
    exponential_ic,
    frag_rhs,
    rhs,
)
from .series import (
    Method,
    SeriesSolution,
    TermBudgetError,
    iterate,
    iterate_accelerated,
    iterate_classical,
)

__all__ = [
    "CoagKernel",
    "DegreeOverflowError",
    "FragSpec",
    "Method",
    "MixedRatesError",
    "Model",
    "OutOfClassError",
    "PolyExp1D",
    "PolyExp2D",
    "PolyExpError",
    "SeriesSolution",
    "TermBudgetError",
    "ZeroRateError",
    "coag2d_bilinear",
    "coag_bilinear",
    "exponential_ic",
    "frag_rhs",
    "from_obj",
    "iterate",
    "iterate_accelerated",
    "iterate_classical",
    "rhs",
]

__version__ = "0.1.0"
