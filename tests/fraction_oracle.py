"""Per-pair Fraction reference for the products of the polynomial-exponential algebra.

These are the straightforward loops the fraction-free kernel in
``pbeseries.polyexp`` replaced: every term pair costs a Fraction multiply,
a Fraction add and, for convolutions, a beta-function weight.  They are
slow and obviously right, which is what a differential oracle needs.  Each
returns a value built in the same rate order as the kernel's.
"""

from __future__ import annotations

import math
from fractions import Fraction

from pbeseries.polyexp import MixedRatesError


def _add_to(tgt: dict, e: tuple, c: Fraction) -> None:
    s = tgt.get(e, Fraction(0)) + c
    if s == 0:
        tgt.pop(e, None)
    else:
        tgt[e] = s


def _beta(i: int, j: int) -> Fraction:
    return Fraction(math.factorial(i) * math.factorial(j), math.factorial(i + j + 1))


def convolve(f, g):
    """Size convolution on every size axis (1-D or 2-D), pair by pair."""
    nsize = f._NVARS - 1
    out: dict = {}
    for ra, pa in f._terms.items():
        for rb, pb in g._terms.items():
            if ra != rb:
                raise MixedRatesError(f"convolution of distinct rates {ra} and {rb}")
            tgt = out.setdefault(ra, {})
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    w = Fraction(1)
                    for axis in range(nsize):
                        w *= _beta(ea[axis], eb[axis])
                    e = tuple(
                        i + j + (axis < nsize) for axis, (i, j) in enumerate(zip(ea, eb))
                    )
                    _add_to(tgt, e, ca * cb * w)
            if not tgt:
                out.pop(ra, None)
    return type(f)(out)


def mul(f, g):
    """Pointwise product: rates add, exponents add."""
    out: dict = {}
    for ra, pa in f._terms.items():
        for rb, pb in g._terms.items():
            rate = f._rate_sum(ra, rb)
            tgt = out.setdefault(rate, {})
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    _add_to(tgt, tuple(i + j for i, j in zip(ea, eb)), ca * cb)
            if not tgt:
                out.pop(rate, None)
    return type(f)(out)


def mul_tpoly(f, tp: dict):
    """Product with a polynomial in t alone."""
    out: dict = {}
    for r, p in f._terms.items():
        tgt = out.setdefault(r, {})
        for e, c in p.items():
            for j, k in tp.items():
                _add_to(tgt, e[:-1] + (e[-1] + j,), c * k)
        if not tgt:
            out.pop(r, None)
    return type(f)(out)
