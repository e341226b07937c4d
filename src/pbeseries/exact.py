"""Closed-form reference solutions used to validate the series engines.

Each solution evaluates the exact number density pointwise; the series
variants (product-kernel and bivariate cases) are summed until a term
falls below 1e-16 of the running partial sum or of the largest term, with
a cap (read off t x^3 on the product kernel) that turns silent truncation
into an explicit NonConvergenceError.

Every solution also evaluates a whole size grid at one time
(``evaluate_grid``), which is what the error tables and ``density`` call
once per time; the bivariate one is its scalar per point, x-major.  The
1-D grids are bit-identical to the scalar ``evaluate``, which stays the
reference: the arithmetic runs in numpy, whose ``+ - * /`` and ``sqrt``
are correctly rounded like Python's, each exp is the C library's, as in
``math.exp``, through numpy's complex exp, each log is ``math.log`` per
element (numpy's float exp and log may differ in the last bit), and
every series runs under a per-lane mask so that each x stops at the same
term as the scalar loop.  Only the sum kernel's moments import
``scipy.integrate``, when first called, so that it stays off the CLI's
import path; the product kernel's are their own series, the others
closed forms or exact polynomials in t.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from .polyexp import TPoly, as_fraction, tpoly_function
from .problems import CoagKernel, Model, exponential_ic

REL_TOL = 1e-16
MAX_DENSITY_TERMS = 500     # series densities need a longer run at large x
DENSITY_TERM_CEILING = 100_000   # no density series runs longer at one point
MOMENT_TERM_CEILING = 1_000_000  # nor a moment series, which runs long near gelation


class NonConvergenceError(Exception):
    """A series evaluation hit the term cap before reaching tolerance."""


def _term_cap(peak: float, series: str, where: str) -> int:
    """The term cap of a series whose terms peak near index ``peak``.

    Past the peak the terms fall below 1e-16 of it within ~5 sqrt(k) terms
    more, so twice the peak past MAX_DENSITY_TERMS reaches the stop; a cap
    over DENSITY_TERM_CEILING (or a peak that is not finite) is refused
    before the sum runs.
    """
    cap = MAX_DENSITY_TERMS + 2 * math.ceil(peak) if peak < DENSITY_TERM_CEILING else math.inf
    if cap > DENSITY_TERM_CEILING:
        raise NonConvergenceError(f"{series} needs {cap} terms at {where}, "
                                  f"over the ceiling of {DENSITY_TERM_CEILING}")
    return cap


def _product_cap(x: float, t: float) -> int:
    """The product-kernel density's term cap at (x, t): its terms peak near k = (t x^3 / 4)^{1/3}."""
    return _term_cap((t * x**3 / 4.0) ** (1.0 / 3.0), "product-kernel series", f"x={x}, t={t}")


def bessel_i1(z: float) -> float:
    """Modified Bessel function I_1 by its ascending power series.

    I_1(z) = sum_{k>=0} (z/2)^{2k+1} / (k! (k+1)!), summed until the next
    term is below 1e-16 of the partial sum, or is 0 (below |z| ~ 5e-308 both
    underflow, and 0 < 0 would never stop).  The terms peak near k = |z|/2,
    which sets the cap (``_term_cap``).  Past |z| ~ 713 I_1 leaves the float
    range: a sum that reached inf is refused, as one that hit the cap.
    """
    if z == 0.0:
        return 0.0
    half = z / 2.0
    term = half
    total = term
    for k in range(1, _term_cap(abs(half), "Bessel series", f"z={z}")):
        term *= half * half / (k * (k + 1))
        total += term
        if abs(term) < REL_TOL * abs(total) or term == 0.0:
            if math.isinf(total):
                break
            return total
    raise NonConvergenceError(f"Bessel series did not converge at z={z}")


def _math_map(fn: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) on each element of a 1-D array."""
    return np.fromiter(map(fn, a.tolist()), dtype=float, count=a.size)


def _exp_grid(a: np.ndarray) -> np.ndarray:
    """``math.exp`` on each element of a 1-D array, bit for bit.

    The real part of the C library's cexp(x + 0i) is its exp(x), unrounded;
    cexp scales x past ~709, so such grids map ``math.exp`` (and raise as it).
    """
    if (a > 709.0).any():
        return _math_map(math.exp, a)
    return np.exp(a + 0j).real


def _float_semantics(grid):
    """Run a grid evaluator as Python floats run: inf and nan arise silently.

    Where any lane fails, the scalar reference runs over the lanes in
    order instead, so the caller gets the error of the first failing x,
    exactly as from a loop of ``evaluate`` calls.
    """
    @functools.wraps(grid)
    def run(self, xs, t):
        xs = np.asarray(xs, dtype=float)
        try:
            with np.errstate(all="ignore"):
                return grid(self, xs, t)
        except (ArithmeticError, ValueError, NonConvergenceError):
            return np.array([self.evaluate(x, t) for x in xs.tolist()])

    return run


def _bessel_i1_grid(z: np.ndarray) -> np.ndarray:
    """``bessel_i1`` on each element, bit for bit, with no term matrix.

    Lanes run in order of |z|, so the unfinished ones are a suffix view from
    the first lane ``left``; a lane done before those ahead of it rides along.
    The largest |z| sets the cap; a lane that finishes does so within its own.
    """
    total = np.zeros(z.shape)
    lanes = np.flatnonzero(z != 0.0)
    lanes = lanes[np.argsort(np.abs(z[lanes]), kind="stable")]
    half = z[lanes] / 2.0
    step, term, acc = half * half, half.copy(), half.copy()
    left, s = np.ones(lanes.size + 1, dtype=bool), 0  # a last slot, never cleared, stops argmax
    zmax = float(np.abs(z).max(initial=0.0))
    for k in range(1, _term_cap(zmax / 2.0, "Bessel series", f"z={zmax}")):
        tv, av = term[s:], acc[s:]
        np.multiply(tv, step[s:] / (k * (k + 1)), out=tv)
        np.add(av, tv, out=av)
        done = ((np.abs(tv) < REL_TOL * np.abs(av)) | (tv == 0.0)) & left[s:-1]
        total[lanes[s:][done]] = av[done]
        left[s:-1][done] = False
        s += int(left[s:].argmax())
        if s == lanes.size:
            if np.isinf(total).any():  # as in the scalar, a sum that reached inf
                break
            return total
    raise NonConvergenceError("Bessel series did not converge")


@dataclass(frozen=True)
class ConstantKernelSolution:
    """Coagulation with K = 1 and u0 = e^{-x}: u = 4/(2+t)^2 e^{-2x/(2+t)}."""

    def evaluate(self, x: float, t: float) -> float:
        return 4.0 / (2.0 + t) ** 2 * math.exp(-2.0 * x / (2.0 + t))

    @_float_semantics
    def evaluate_grid(self, xs: np.ndarray, t: float) -> np.ndarray:
        return 4.0 / (2.0 + t) ** 2 * _exp_grid(-2.0 * xs / (2.0 + t))

    def moment(self, j: int) -> Callable[[float], float]:
        """mu_j = j! ((2+t)/2)^(j-1): 2/(2+t), 1 and 2+t for j <= 2."""
        if j == 0:
            return lambda t: 2.0 / (2.0 + t)
        return lambda t: math.factorial(j) * ((2.0 + t) / 2.0) ** (j - 1)


@dataclass(frozen=True)
class SumKernelSolution:
    """Coagulation with K = x + y and u0 = e^{-x}.

    u = (1-T) e^{-(1+T)x} I_1(2 x sqrt(T)) / (x sqrt(T)) with T = 1 - e^{-t}.
    """

    def evaluate(self, x: float, t: float) -> float:
        T = -math.expm1(-t)
        if T == 0.0:
            return math.exp(-x)
        rt = math.sqrt(T)
        if abs(x * rt) < sys.float_info.min:
            # I_1(z)/z -> 1/2 as z -> 0, so the x factors cancel to 1; this
            # also holds where x sqrt(T) underflows (e^{-(1+T)x} is then 1).
            return (1.0 - T)
        return (1.0 - T) * math.exp(-(1.0 + T) * x) * bessel_i1(2.0 * x * rt) / (x * rt)

    @_float_semantics
    def evaluate_grid(self, xs: np.ndarray, t: float) -> np.ndarray:
        T = -math.expm1(-t)
        if T == 0.0:
            return _exp_grid(-xs)
        rt = math.sqrt(T)
        out = np.full(xs.shape, 1.0 - T)
        lanes = np.flatnonzero(~(np.abs(xs * rt) < sys.float_info.min))
        x = xs[lanes]
        envelope = (1.0 - T) * _exp_grid(-(1.0 + T) * x)
        out[lanes] = envelope * _bessel_i1_grid(2.0 * x * rt) / (x * rt)
        return out

    def moment(self, j: int) -> Callable[[float], float]:
        def mom(t: float) -> float:
            T = -math.expm1(-t)
            if T == 0.0:
                return float(math.factorial(j))
            # The domain keeps the Bessel argument at z <= 250, a bound set
            # when the series stopped at 200 terms (past z ~ 257), and still
            # covers the e^{-(1-sqrt(T))^2 x} tail where possible.  It cuts
            # that tail off near t = 1, the known defect of these moments.
            decay = max((1.0 - math.sqrt(T)) ** 2, 1e-3)
            xmax = min(250.0 / (2.0 * math.sqrt(T)), max(60.0, (40.0 + 10 * j) / decay))
            from scipy import integrate

            val, _ = integrate.quad(
                lambda xx: xx**j * self.evaluate(xx, t), 0.0, xmax,
                epsabs=1e-12, epsrel=1e-10, limit=200,
            )
            return val

        return mom


@dataclass(frozen=True)
class ProductKernelSolution:
    """Coagulation with K = x y and u0 = e^{-x}.

    u = sum_k t^k x^{3k} e^{-(t+1)x} / ((k+1)! (2k+1)!).  Gelation sits at
    t = 1/mu2(0) = 1/2 for this initial state: past it the density keeps
    solving the equation but total mass is no longer conserved.
    """

    def evaluate(self, x: float, t: float) -> float:
        # Where t x^3 is 0 or underflows to 0, only the k = 0 term is left.
        if t == 0.0 or x == 0.0 or t * x**3 == 0.0:
            return math.exp(-(t + 1.0) * x)
        # Summed in log space: for large t x^3 the terms overflow floats
        # long before the e^{-(t+1)x} envelope is applied.
        log_ratio = math.log(t * x**3)
        log_term = 0.0
        peak = 0.0
        logs = [0.0]
        for k in range(1, _product_cap(x, t)):
            log_term += log_ratio - math.log((k + 1) * (2 * k) * (2 * k + 1))
            logs.append(log_term)
            peak = max(peak, log_term)
            if log_term < peak + math.log(REL_TOL):
                # left to right: the builtin sum() compensates from Python 3.12
                total = 0.0
                for l in logs:
                    total += math.exp(l - peak)
                return math.exp(peak - (t + 1.0) * x) * total
        raise NonConvergenceError(f"product-kernel series stalled at x={x}, t={t}")

    @_float_semantics
    def evaluate_grid(self, xs: np.ndarray, t: float) -> np.ndarray:
        if t == 0.0:
            return _exp_grid(-(t + 1.0) * xs)
        ratio = np.array([t * v**3 for v in xs.tolist()])
        out = np.empty(xs.shape)
        only_k0 = ratio == 0.0  # x = 0, or t x^3 underflows
        out[only_k0] = _exp_grid(-(t + 1.0) * xs[only_k0])
        lanes = np.flatnonzero(~only_k0)
        x = xs[lanes]
        log_ratio = _math_map(math.log, ratio[lanes])
        # Pass 1 finds each lane's final peak and last term, pass 2 repeats
        # the recurrence and adds exp(l_k - peak) in k order from k = 0.
        # Both keep O(lanes) state, never a terms-by-lanes matrix.
        steps = []
        peak, last = np.zeros(x.shape), np.zeros(x.shape, dtype=int)
        live = np.arange(x.size)
        lr, log_term, pk = log_ratio, np.zeros(x.shape), np.zeros(x.shape)
        for k in range(1, _product_cap(float(x.max(initial=0.0)), t)):
            if not live.size:
                break
            steps.append(math.log((k + 1) * (2 * k) * (2 * k + 1)))
            log_term = log_term + (lr - steps[-1])
            pk = np.maximum(pk, log_term)
            done = log_term < pk + math.log(REL_TOL)
            if done.any():
                peak[live[done]], last[live[done]] = pk[done], k
                keep = ~done
                live, lr, log_term, pk = live[keep], lr[keep], log_term[keep], pk[keep]
        if live.size:
            raise NonConvergenceError("product-kernel series stalled")
        total = np.empty(x.shape)
        live = np.arange(x.size)
        lr, log_term, pk = log_ratio, np.zeros(x.shape), peak
        tot = _exp_grid(0.0 - peak)
        for k, step in enumerate(steps, 1):
            keep = last[live] >= k
            if not keep.all():
                total[live[~keep]] = tot[~keep]
                live, lr, log_term, pk, tot = (
                    live[keep], lr[keep], log_term[keep], pk[keep], tot[keep])
            log_term = log_term + (lr - step)
            tot = tot + _exp_grid(log_term - pk)
        total[live] = tot
        out[lanes] = _exp_grid(peak - (t + 1.0) * x) * total
        return out

    def moment(self, j: int) -> Callable[[float], float]:
        """mu_j = sum_k t^k (3k+j)! / ((k+1)! (2k+1)! (1+t)^{3k+j+1}).

        Term by term it is the density's series against x^j, and like it the
        sum runs in units of its largest term, whose logarithm carries the
        scale.  The term ratio tends to r = 27 t / (4 (1+t)^3), which is 1 at
        gelation (t = 1/2) and below 1 on either side.  The terms go like
        k^{j-5/2} r^k, so they have fallen 1e16-fold by k = (3j + 80) / -log r;
        the sum stops once the geometric tail past a term, term / (1 - r), is
        below 1e-16 of the largest.
        """
        def mom(t: float) -> float:
            if t == 0.0:
                return float(math.factorial(j))
            decay = 3.0 * math.log1p(t) - math.log(6.75) - math.log(t)  # -log r
            cap = MAX_DENSITY_TERMS + (3 * j + 80) / decay if decay > 0.0 else math.inf
            if cap > MOMENT_TERM_CEILING:
                raise NonConvergenceError(
                    f"product-kernel moment series needs over {MOMENT_TERM_CEILING} terms "
                    f"at t={t}: its terms stop decaying at gelation, t = 0.5")
            stop = REL_TOL * -math.expm1(-decay)
            # c is t / (1+t)^3 rounded, so term k is off by (1 - d)^k ~ 1 - k d,
            # which near gelation, with 10^4 terms, would cost 1e-12
            exact_c = Fraction(t) / (1 + Fraction(t)) ** 3
            c = float(exact_c)
            d = float(1 - Fraction(c) / exact_c)
            # term and total are in units of e^peak, the largest term so far;
            # comp holds what total's additions round off (Neumaier) and the k d terms
            peak, term, total, comp = math.lgamma(j + 1) - (j + 1) * math.log1p(t), 1.0, 1.0, 0.0
            for k in range(1, int(cap)):
                m = 3 * k + j
                term *= c * (m * (m - 1) * (m - 2)) / ((k + 1) * 2 * k * (2 * k + 1))
                if term > 1.0:  # a new largest term: it becomes the unit
                    peak += math.log(term)
                    total, comp, term = total / term + 1.0, comp / term + k * d, 1.0
                    continue
                s = total + term
                comp += (total - s) + term + k * d * term
                total = s
                if term < stop:
                    return math.exp(peak) * (total + comp)
            raise NonConvergenceError(f"product-kernel moment series stalled at t={t}")

        return mom


@dataclass(frozen=True)
class LinearBreakageSolution:
    """Binary breakage B = 2/y with S = x and u0 = e^{-x}.

    u = (1+t)^2 e^{-x(1+t)}; kept as an oracle for the fragmentation
    engine, whose components must match this density's Taylor blocks.
    """

    def evaluate(self, x: float, t: float) -> float:
        return (1.0 + t) ** 2 * math.exp(-x * (1.0 + t))

    @_float_semantics
    def evaluate_grid(self, xs: np.ndarray, t: float) -> np.ndarray:
        return (1.0 + t) ** 2 * _exp_grid(-xs * (1.0 + t))

    def moment(self, j: int) -> Callable[[float], float]:
        """mu_j = j! (1+t)^(1-j): 1+t, 1 and 2/(1+t) for j <= 2."""
        if j == 0:
            return lambda t: 1.0 + t
        return lambda t: math.factorial(j) / (1.0 + t) ** (j - 1)


@dataclass(frozen=True)
class BivariateConstantSolution:
    """Bivariate constant-kernel coagulation from u0 = 16 N0 x y e^{-2x/m1 - 2y/m2} / (m1 m2)^2.

    N0 particles of mean sizes m1 and m2; the density is the separable series
    of gamma modes (x y)^{2k+1} whose k-th term carries (t/(t+2))^k.
    """

    N0: Fraction = Fraction(1)
    m1: Fraction = Fraction(1, 25)
    m2: Fraction = Fraction(1, 25)

    def evaluate(self, x: float, y: float, t: float) -> float:
        n0, m1, m2 = float(self.N0), float(self.m1), float(self.m2)
        xs, ys, tau = x / m1, y / m2, n0 * t
        # both gamma modes have shape q = 2, hence the factors q^q = 4
        scale = 4.0 * n0 / (m1 * m2 * (tau + 2.0) ** 2) * 4 * 4
        pref = scale * math.exp(-2 * xs - 2 * ys)
        ratio = tau / (tau + 2.0)
        if xs == 0.0 or ys == 0.0:
            # every term (x y)^{2k+1} vanishes on the axes, where the logs below fail
            return pref * (xs * ys)
        # Terms are formed in log space: the raw powers overflow floats
        # long before the gamma denominators bring them back down.
        log_step = math.log(ratio * 4 * 4) if ratio > 0.0 else None
        lx, ly = math.log(xs), math.log(ys)
        # the terms peak near k = ratio^{1/4} sqrt(xs ys)
        cap = _term_cap(ratio ** 0.25 * math.sqrt(xs * ys), "bivariate series", f"({x}, {y}, {t})")

        def log_term(k: int) -> float:
            return ((0.0 if k == 0 else k * log_step) + (2 * k + 1) * lx + (2 * k + 1) * ly
                    - math.lgamma(2 * k + 2) - math.lgamma(2 * k + 2))

        def series(shift: float) -> float:  # the sum in units of e^shift
            total, prev = 0.0, math.inf
            for k in range(cap):
                contrib = math.exp(log_term(k) - shift)
                total += contrib
                if log_step is None or k > 0 and contrib <= prev and contrib < REL_TOL * total:
                    return total
                prev = contrib
            raise NonConvergenceError(f"bivariate series stalled at ({x}, {y}, {t})")

        if abs(pref) >= sys.float_info.min:
            try:
                return pref * series(0.0)
            except OverflowError:
                pass
        # A term passes the float range, or the envelope falls below it: sum
        # in units of the largest term, whose log the envelope's exponent
        # takes in.  The terms are log-concave in k, so the largest is the
        # last one that grows.
        k = 0
        while log_step is not None and k < cap and log_term(k + 1) > log_term(k):
            k += 1
        peak = log_term(k)
        return scale * math.exp(peak - 2 * xs - 2 * ys) * series(peak)

    def evaluate_grid(self, xs, ys, t: float) -> list[float]:
        """``evaluate`` at every (x, y) of xs x ys, x-major."""
        return [self.evaluate(x, y, t) for x, y in product(xs, ys)]

    def moment(self, jx: int, jy: int) -> Callable[[float], float]:
        """mu_00 = 2 N0 / (2 + N0 t); every other moment is a polynomial in t, built exactly.

        With K = 1 the (0, 0) and (p, q) gain terms cancel the loss, so
        mu_pq' = 1/2 sum C(p, a) C(q, b) mu_ab mu_{p-a,q-b} over 0 < a + b < p + q,
        from mu_pq(0) = N0 (p+1)! (q+1)! (m1/2)^p (m2/2)^q.
        """
        if (jx, jy) == (0, 0):
            n0 = float(self.N0)
            return lambda t: 2.0 * n0 / (2.0 + n0 * t)

        @functools.cache
        def mu(p: int, q: int) -> TPoly:
            out = {0: self.N0 * math.factorial(p + 1) * math.factorial(q + 1)
                   * (self.m1 / 2) ** p * (self.m2 / 2) ** q}
            for a, b in product(range(p + 1), range(q + 1)):
                if 0 < a + b < p + q:
                    w = Fraction(math.comb(p, a) * math.comb(q, b), 2)
                    for (i, c), (k, d) in product(mu(a, b).items(), mu(p - a, q - b).items()):
                        out[i + k + 1] = out.get(i + k + 1, 0) + w * c * d / (i + k + 1)
            return out

        return tpoly_function(mu(jx, jy))


def matching_exact_solution(problem: Model):
    """The problem's closed-form solution (one of the classes above), or None."""
    if problem.dim == 2:
        terms = list(problem.u0.terms())
        if len(terms) != 1:
            return None
        (a, b), (i, k, j), c = terms[0]
        if (i, k, j) != (1, 1, 0):
            return None
        m1 = 2 / as_fraction(a)
        m2 = 2 / as_fraction(b)
        n0 = c * m1**2 * m2**2 / 16
        return BivariateConstantSolution(N0=n0, m1=m1, m2=m2)
    if problem.u0 != exponential_ic():
        return None
    if problem.frag is None:
        return {
            CoagKernel.CONSTANT: ConstantKernelSolution(),
            CoagKernel.SUM: SumKernelSolution(),
            CoagKernel.PRODUCT: ProductKernelSolution(),
        }[problem.kernel]
    f = problem.frag
    if problem.kernel is None and (f.c, f.r, f.s, f.k) == (2, 1, 1, 1):
        return LinearBreakageSolution()
    return None
