"""Iteration engines producing the series components v_0, v_1, ..., v_n.

Two schemes are implemented over the same right-hand-side operators:

  * accelerated: v_0 = u_0 and

        v_{k+1} = T[ rhs(Psi_k) - rhs(Psi_{k-1}) ],   rhs(Psi_{-1}) := 0,

    where T integrates from 0 in time and Psi_k = v_0 + ... + v_k.  The
    increments telescope, so the partial sums satisfy the Picard identity
    Psi_{k+1} = u_0 + T[rhs(Psi_k)] exactly; that identity is the main
    structural test of the engine.

  * classical: the familiar decomposition-series recursion
    v_{k+1} = T[A_k] with A_k the bilinear expansion polynomial
    sum_{i+j=k} Q(v_i, v_j) plus the linear breakage applied to v_k,
    convolving each unordered pair {i, j} once.

For purely linear models (fragmentation) the two recursions coincide
component by component.

Both engines check Psi_n's forecast degrees against the exponent cap before
the first step; ``polyexp`` bounds the work of each product as it is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, reduce

from .polyexp import MAX_EXPONENT, DegreeOverflowError
from .problems import CoagKernel, Model, coag_gain, coag_loss, coag_operand, frag_rhs, rhs


class Method(Enum):
    ACCELERATED = "ahpetm"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class SeriesSolution:
    """Ordered components of a truncated series solution."""

    method: Method
    components: tuple

    @property
    def n(self) -> int:
        """Truncation index: components run v_0 ... v_n."""
        return len(self.components) - 1

    def truncated(self, k: int):
        """Partial sum Psi_k = v_0 + ... + v_k."""
        if not 0 <= k <= self.n:
            raise IndexError(f"truncation order {k} outside 0..{self.n}")
        return reduce(lambda a, b: a + b, self.components[: k + 1])


# 1 + e, where the gain term raises each size degree D to 2 D + 1 + e
_SIZE_DEGREE_STEP = {CoagKernel.CONSTANT: 1, CoagKernel.SUM: 2, CoagKernel.PRODUCT: 3}


def _check_degree(problem: Model, method: Method, n: int) -> None:
    """Coagulation pairs the top degrees of earlier orders: check Psi_n up front.

    ahpetm squares Psi_k, so each degree follows D_{k+1} = 2 D_k + step; the
    classical block pairs v_i with v_{k-i}, whose top degrees sum alike, so
    D_{k+1} = D_k + D_0 + step.  The t-degree has D_0 = 0 and step 1.  Without
    breakage each size axis has step 1 + e exactly, since the gain term always
    outgrows the loss; breakage moves the size degrees, so only t is checked then.
    """
    if problem.kernel is None:
        return
    starts, steps = {"t": 0}, {"t": 1}
    if problem.frag is None:
        for axis, name in enumerate("xy"[: problem.dim]):
            starts[name] = max(e[axis] for _, e, _ in problem.u0.terms())
            steps[name] = _SIZE_DEGREE_STEP[problem.kernel]
    degrees = dict(starts)
    partner = degrees if method is Method.ACCELERATED else starts
    for k in range(1, n + 1):
        for name, step in steps.items():
            d = degrees[name] = degrees[name] + partner[name] + step
            if d > MAX_EXPONENT:
                other = " or use the classical method" if partner is degrees else ""
                raise DegreeOverflowError(
                    f"{name}-degree {d} of Psi_{k} exceeds cap {MAX_EXPONENT}: {method.value} "
                    f"with coagulation fits at most {k - 1} terms under the exponent cap "
                    f"{MAX_EXPONENT}; lower the number of terms{other}")


def iterate_accelerated(problem: Model, n: int) -> SeriesSolution:
    """Run the accelerated recursion up to component v_n."""
    if n < 0:
        raise ValueError("number of components must be nonnegative")
    _check_degree(problem, Method.ACCELERATED, n)
    components = [problem.u0]
    psi = problem.u0
    prev_rhs = problem.u0.zero()
    for _ in range(n):
        cur_rhs = rhs(problem, psi)
        v = (cur_rhs - prev_rhs).time_antiderivative()
        components.append(v)
        psi = psi + v
        prev_rhs = cur_rhs
    return SeriesSolution(Method.ACCELERATED, tuple(components))


def _bilinear_block(problem: Model, components, operands, moments, k: int):
    """A_k = sum_{i+j=k} Q(v_i, v_j) (+ linear breakage of v_k).

    ``operands[i]`` is v_i's ``coag_operand`` and ``moments[i]`` its moment.
    The gain is symmetric: for i < j one convolution gives Q(v_i, v_j) + Q(v_j, v_i).
    """
    acc = problem.u0.zero()
    if problem.kernel is not None:
        for i in range(k // 2 + 1):
            j = k - i
            gain = coag_gain(problem.kernel, operands[i], operands[j])
            acc = acc + (gain if i < j else gain.scale(Fraction(1, 2)))
            acc = acc - coag_loss(problem.kernel, operands[i], moments[j])
            if i < j:
                acc = acc - coag_loss(problem.kernel, operands[j], moments[i])
    if problem.frag is not None:
        acc = acc + frag_rhs(problem.frag, components[k])
    return acc


def iterate_classical(problem: Model, n: int) -> SeriesSolution:
    """Run the classical recursion to v_n; step k forms v_k's operand and moment for A_k."""
    if n < 0:
        raise ValueError("number of components must be nonnegative")
    _check_degree(problem, Method.CLASSICAL, n)
    components, operands, moments = [problem.u0], [], []
    for k in range(n):
        operands.append(coag_operand(problem.kernel, components[k]))
        moments.append(cache(operands[k].moment))
        a_k = _bilinear_block(problem, components, operands, moments, k)
        components.append(a_k.time_antiderivative())
    return SeriesSolution(Method.CLASSICAL, tuple(components))


def iterate(problem: Model, method: Method, n: int) -> SeriesSolution:
    if method is Method.ACCELERATED:
        return iterate_accelerated(problem, n)
    return iterate_classical(problem, n)

