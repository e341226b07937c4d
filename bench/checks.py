"""Output checks: each job's stdout against facts the benchmark knows itself.

The checks avoid the package under test wherever they can.  Symbolic
dumps are parsed here with ``fractions.Fraction`` and checked for exact
mass conservation and criterion 1's published coefficients.  Numeric
``exact`` columns are compared with closed forms written here in numpy and
``scipy.special``, not with ``pbeseries.exact``.  Bounds are recomputed from
their published formulas and the closed-form norms of v_1.  Oracle runs
must stay within criterion 8's 5e-4 of the series and of the closed form.

For the default seed, ``fingerprint`` also pins every output to the
reference captured from the parent commit: dumps byte-identical, every
other number to 1e-12 relative.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, i1e, logsumexp


class CheckError(Exception):
    """A job's output disagrees with what the benchmark knows about it."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ---------------------------------------------------------------------------
# closed forms (u0 = e^{-x} for the 1-D kernels and breakage)


def density_1d(kind: str, x: np.ndarray, t: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if kind == "constant":
        return 4.0 / (2.0 + t) ** 2 * np.exp(-2.0 * x / (2.0 + t))
    if kind == "breakage":
        return (1.0 + t) ** 2 * np.exp(-x * (1.0 + t))
    if kind == "sum":
        T = -math.expm1(-t)
        if T == 0.0:
            return np.exp(-x)
        rt = math.sqrt(T)
        z = 2.0 * x * rt
        safe = np.where(x > 0, x, 1.0)
        # I_1(z) = i1e(z) e^z, folded into the exponent to stay finite
        val = (1.0 - T) * np.exp(-(1.0 + T) * x + z) * i1e(z) / (safe * rt)
        return np.where(x > 0, val, 1.0 - T)
    if kind == "product":
        # sum_k t^k x^{3k} e^{-(t+1)x} / ((k+1)! (2k+1)!), in log space
        if t == 0.0:
            return np.exp(-x)
        k = np.arange(400.0)[:, None]
        logx = np.log(np.where(x > 0, x, 1.0))[None, :]
        logs = k * math.log(t) + 3.0 * k * logx - gammaln(k + 2.0) - gammaln(2.0 * k + 2.0)
        val = np.exp(logsumexp(logs, axis=0) - (t + 1.0) * x)
        return np.where(x > 0, val, 1.0)
    raise ValueError(kind)


def _coag2d_u0(argv) -> tuple:
    spec = argv[argv.index("--u0") + 1].partition(":")[2]
    c, px, py, ax, ay = (float(Fraction(v)) for v in spec.split(","))
    return c, ax, ay


def density_2d(c: float, a: float, b: float, x: float, y: float, t: float) -> float:
    """Constant-kernel solution for u0 = c x y e^{-ax-by}.

    u = (N/N0)^2 sum_{k>=1} (1 - N/N0)^{k-1} u0^{*k} / N0^{k-1} with
    N = 2 N0/(2 + N0 t), and u0^{*k} = c^k (xy)^{2k-1} e^{-ax-by}/((2k-1)!)^2.
    """
    if x == 0.0 or y == 0.0:
        return 0.0
    n0 = c / (a * a * b * b)
    ratio = 2.0 / (2.0 + n0 * t)
    k = np.arange(1.0, 301.0)
    log_r = math.log(1.0 - ratio) if ratio < 1.0 else -math.inf
    with np.errstate(invalid="ignore"):
        steps = np.where(k > 1, (k - 1) * (log_r - math.log(n0)), 0.0)
    logs = (steps + k * math.log(c) + (2 * k - 1) * math.log(x * y)
            - 2.0 * gammaln(2 * k))
    return ratio**2 * math.exp(logsumexp(logs) - a * x - b * y)


def moment_exact(problem: str, j, t: float, u0=None) -> float:
    if problem == "constant":
        return {0: 2.0 / (2.0 + t), 1: 1.0, 2: 2.0 + t}[j]
    if problem == "sum":
        return {0: math.exp(-t), 1: 1.0, 2: 2.0 * math.exp(2.0 * t)}[j]
    if problem == "coag2d":
        c, a, b = u0
        n0 = c / (a * a * b * b)
        return {(0, 0): 2.0 * n0 / (2.0 + n0 * t),
                (1, 0): 2.0 * c / (a**3 * b * b),
                (0, 1): 2.0 * c / (a * a * b**3)}[tuple(j)]
    raise ValueError(problem)


# ---------------------------------------------------------------------------
# output parsing


def parse_csv(text: str):
    """(header dict, column names, rows of strings) of a CSV output."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    _require(columns is not None, "no column header")
    _require(all(len(r) == len(columns) for r in rows), "ragged rows")
    return meta, columns, rows


def _arg(job, flag: str) -> str:
    argv = list(job.argv)
    return argv[argv.index(flag) + 1]


def _values(text: str) -> list:
    """The CLI's value-list grammar: '0.5,1,2' or inclusive 'start:stop:step'."""
    if ":" in text:
        start, stop, step = (float(Fraction(p)) for p in text.split(":"))
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]
    return [float(Fraction(p)) for p in text.split(",")]


# ---------------------------------------------------------------------------
# per-kind checks


def _rational_rate(rate):
    return tuple(Fraction(r) for r in rate) if isinstance(rate, (tuple, list)) else Fraction(rate)


def _components(obj):
    """Each component as {(rate, exponents): Fraction coefficient}."""
    comps = []
    for comp in obj["components"]:
        terms = {}
        for group in comp["terms"]:
            rate = Fraction(group["rate"])
            if comp["dim"] == 2:
                rate = (rate, Fraction(group["yrate"]))
                for m in group["monomials"]:
                    terms[(rate, (m["xpow"], m["ypow"], m["tpow"]))] = Fraction(m["coeff"])
            else:
                for m in group["monomials"]:
                    terms[(rate, (m["xpow"], m["tpow"]))] = Fraction(m["coeff"])
        comps.append(terms)
    return comps


def _mass(terms, axis: int) -> dict:
    """First moment along ``axis`` as {t-power: exact value}.

    int_0^inf x^{i+1} e^{-ax} dx = (i+1)!/a^{i+2}; the other axis of a 2-D
    term contributes its zeroth moment k!/b^{k+1}.
    """
    out: dict = {}
    for (rate, exps), c in terms.items():
        rates = rate if isinstance(rate, tuple) else (rate,)
        val = c
        for ax, (r, p) in enumerate(zip(rates, exps[:-1])):
            q = p + 1 if ax == axis else p
            val = val * math.factorial(q) / r ** (q + 1)
        out[exps[-1]] = out.get(exps[-1], 0) + val
    return {j: v for j, v in out.items() if v != 0}


def _u0_terms(job):
    kind, _, rest = _arg(job, "--u0").partition(":")
    if kind == "exp":
        return {(Fraction(rest), (0, 0)): Fraction(1)}
    if kind == "monoexp":
        c, p, a = rest.split(",")
        return {(Fraction(a), (int(p), 0)): Fraction(c)}
    c, px, py, ax, ay = rest.split(",")
    return {((Fraction(ax), Fraction(ay)), (int(px), int(py), 0)): Fraction(c)}


def check_dump(job, text: str) -> None:
    obj = json.loads(text)
    p = job.params
    _require(obj["method"] == p["method"], "method field")
    _require(obj["terms"] == p["terms"], "terms field")
    comps = _components(obj)
    _require(len(comps) == p["terms"] + 1, "component count")
    _require(comps[0] == _u0_terms(job), "v_0 is not the initial state")
    axes = (0, 1) if p["model"] == "coag2d" else (0,)
    for k, terms in enumerate(comps[1:], start=1):
        for axis in axes:
            _require(not _mass(terms, axis), f"component {k} carries mass")
    for k, rate, exps, value in p["prefactors"]:
        if k <= p["terms"]:
            got = comps[k].get((_rational_rate(rate), tuple(exps)))
            _require(got == Fraction(value), f"v_{k} coefficient of {exps}: {got} != {value}")
    if p["model"] == "coag2d" and p["terms"] >= 1:
        lead = comps[1][((Fraction(50), Fraction(50)), (3, 3, 1))]
        _require(f"{float(lead):.6g}" == "5.42535e+11", "bivariate leading coefficient")


# pbeseries sums its density series to 1e-16 relative; the closed forms
# here agree with it far below this tolerance.
EXACT_REL = 1e-9


def check_density(job, text: str) -> None:
    meta, cols, rows = parse_csv(text)
    p = job.params
    t = float(_arg(job, "--t"))
    xs = _values(_arg(job, "--x"))
    if p["model"] == "coag2d":
        ys = _values(_arg(job, "--y"))
        _require(len(rows) == len(xs) * len(ys), "row count")
        u0 = _coag2d_u0(job.argv)
        for r in rows:
            x, y, tt, approx, ex, err = map(float, r)
            want = density_2d(*u0, x, y, t)
            _require(_close(ex, want, EXACT_REL, 1e-300), f"exact({x},{y}) {ex} != {want}")
            _require(_close(err, abs(approx - ex), 1e-12, 1e-300), "abs_error column")
        return
    _require(len(rows) == len(xs), "row count")
    data = np.array([[float(v) for v in r] for r in rows])
    want = density_1d(p["kernel"], data[:, 0], t)
    for x, ex, w in zip(data[:, 0], data[:, 3], want):
        _require(_close(ex, w, EXACT_REL, 1e-300), f"exact({x}) {ex} != {w}")
    _require(np.allclose(data[:, 4], np.abs(data[:, 2] - data[:, 3]), rtol=1e-12, atol=0),
             "abs_error column")


def check_pointwise(job, text: str) -> None:
    _, cols, rows = parse_csv(text)
    _require(cols == ["t", "exact", "approx", "abs_error"], f"columns {cols}")
    ts = _values(_arg(job, "--t"))
    _require(len(rows) == len(ts), "row count")
    x = float(_arg(job, "--x"))
    for t, r in zip(ts, rows):
        ex, approx, err = (float(v) for v in r[1:])
        want = float(density_1d(job.params["kernel"], np.array([x]), t)[0])
        _require(_close(ex, want, EXACT_REL), f"exact({x},{t}) {ex} != {want}")
        _require(_close(err, abs(approx - ex), 1e-12, 1e-300), "abs_error column")


# Criterion 3: the published L1 table of the constant kernel, cell values
# reproduced within a factor of 2.
PUBLISHED_L1 = {
    (3, 0.5): 0.0014, (3, 1.0): 0.0153, (3, 1.5): 0.0543, (3, 2.0): 0.1239,
    (4, 0.5): 1.366e-4, (4, 1.0): 2.656e-3, (4, 1.5): 1.294e-2, (4, 2.0): 3.632e-2,
    (5, 0.5): 1.072e-5, (5, 1.0): 3.7972e-4, (5, 1.5): 2.5718e-3, (5, 2.0): 9.0682e-3,
    (6, 0.5): 7.154e-7, (6, 1.0): 4.6146e-5, (6, 1.5): 4.3241e-4, (6, 2.0): 1.8931e-3,
}


def check_l1(job, text: str) -> None:
    _, cols, rows = parse_csv(text)
    lo, hi = (int(v) for v in _arg(job, "--terms").split(":"))
    ts = _values(_arg(job, "--t"))
    _require(cols == ["n"] + [f"t={t:g}" for t in ts], f"columns {cols}")
    _require([int(r[0]) for r in rows] == list(range(lo, hi + 1)), "row labels")
    cells = {(int(r[0]), t): float(v) for r in rows for t, v in zip(ts, r[1:])}
    _require(all(math.isfinite(v) and v >= 0 for v in cells.values()), "non-finite cell")
    if job.params["kernel"] == "constant":
        # criterion 3: the error falls with the order at every time
        for t in ts:
            col = [cells[(n, t)] for n in range(lo, hi + 1)]
            _require(all(a > b for a, b in zip(col, col[1:])), f"column t={t:g}")
        for key, target in PUBLISHED_L1.items():
            if key in cells:
                _require(target / 2 <= cells[key] <= target * 2, f"published cell {key}")


def check_moments(job, text: str) -> None:
    _, cols, rows = parse_csv(text)
    p = job.params
    ts = _values(_arg(job, "--t"))
    js = _arg(job, "--j")
    dim2 = p["model"] == "coag2d"
    orders = [tuple(int(v) for v in c.split(",")) for c in js.split(";")] if dim2 \
        else [int(v) for v in js.split(",")]
    _require(len(rows) == len(ts) * len(orders), "row count")
    u0 = _coag2d_u0(job.argv) if dim2 else None
    compare = "--compare" in job.argv
    _require((cols[-1] == "mu_exact") == compare, "mu_exact column")
    for r in rows:
        t = float(r[0])
        j = (int(r[1]), int(r[2])) if dim2 else int(r[1])
        approx = float(r[3 if dim2 else 2])
        if p["model"] == "ccfe":
            # the coupled problems keep count and mass exactly steady
            want = p["count"] if j == 0 else 1.0
            _require(_close(approx, want, 1e-12), f"mu_{j}({t}) {approx} != {want}")
            continue
        want = moment_exact(p["problem"], j, t, u0)
        if compare:
            exact = float(r[-1])
            # the package integrates the sum kernel's moments numerically
            rel = 1e-7 if p["problem"] == "sum" else 1e-12
            _require(_close(exact, want, rel), f"mu_exact {j} at t={t}: {exact} != {want}")
        if j in (1, (1, 0), (0, 1)):
            _require(_close(approx, want, 1e-12), f"mass moment {j} at t={t}")


def check_bounds(job, text: str) -> None:
    _, _, rows = parse_csv(text)
    q = {k: v for k, v in rows}
    p = job.params
    t0 = float(_arg(job, "--t0"))
    m = int(_arg(job, "--m"))

    def num(key):
        return float(q[key])

    def geometric(delta, v1):
        return math.inf if delta >= 1 else delta**m / (1 - delta) * v1

    def coag_contraction(u0, L):
        return t0**2 * math.exp(2 * t0 * L) * (u0 + 2 * t0 * L**2 + 2 * t0 * L)

    if p["model"] == "frag":
        # v_1 = t (2 - x) e^{-x}: int |2 - x| e^{-x} dx = 1 + 2 e^{-2}
        _require(_close(num("v1_norm"), t0 * (1 + 2 * math.exp(-2)), 1e-8), "v1_norm")
        lam = float(_arg(job, "--lam"))
        theta = math.factorial(1) * t0**2 / lam**2
        _require(_close(num("contraction"), theta, 1e-12), "contraction")
        _require(_close(num("bound"), geometric(theta, num("v1_norm")), 1e-12), "bound")
        _require(q["contractive"] == str(theta < 1).lower(), "contractive flag")
        return
    T = float(_arg(job, "--T"))
    _require(_close(num("u0_norm"), 1.0, 1e-12), "u0_norm")
    L = num("u0_norm") * (T + 1)
    _require(_close(num("L"), L, 1e-12), "L")
    delta = coag_contraction(num("u0_norm"), L)
    if p["model"] == "coag2d":
        # mu_00(v_1) = -t/2 for this initial state
        _require(_close(num("v1_norm"), t0 / 2, 1e-12), "v1_norm")
        for label, factor in (("statement", 2.0), ("derived", 1.0)):
            d = factor * delta
            _require(_close(num(f"contraction_{label}"), d, 1e-12), f"contraction_{label}")
            _require(_close(num(f"bound_{label}"), geometric(d, num("v1_norm")), 1e-12),
                     f"bound_{label}")
            _require(q[f"contractive_{label}"] == str(d < 1).lower(), f"contractive_{label}")
        return
    # v_1 = t (x/2 - 1) e^{-x}: int |x/2 - 1| e^{-x} dx = 1/2 + e^{-2}
    _require(_close(num("v1_norm"), t0 * (0.5 + math.exp(-2)), 1e-8), "v1_norm")
    _require(_close(num("contraction"), delta, 1e-12), "contraction")
    _require(_close(num("bound"), geometric(delta, num("v1_norm")), 1e-12), "bound")
    _require(q["contractive"] == str(delta < 1).lower(), "contractive flag")


# Criterion 8: series and grid oracle agree within 5e-4 at the README
# setting; the coarse grid halves h, so its trapezoid error may be 4x.
ORACLE_TOL = 5e-4


def check_oracle(job, text: str) -> None:
    meta, cols, rows = parse_csv(text)
    _require(cols == ["x", "series", "grid", "deviation"], f"columns {cols}")
    cells = job.params["cells"]
    _require(len(rows) == cells + 1, "row count")
    data = np.array(rows, dtype=float)
    _require(np.allclose(data[:, 0], np.linspace(0.0, 50.0, cells + 1), rtol=1e-15, atol=0),
             "x nodes")
    _require(np.allclose(data[:, 3], np.abs(data[:, 1] - data[:, 2]), rtol=1e-12, atol=0),
             "deviation column")
    max_dev = float(meta["max_deviation"])
    _require(max_dev == float(np.max(data[:, 3])), "max_deviation header")
    tol = ORACLE_TOL if job.params["fine"] else 4 * ORACLE_TOL
    _require(max_dev <= tol, f"max_deviation {max_dev:g} > {tol:g}")
    kind = job.params.get("kernel")
    if kind in ("constant", "sum", "product", "breakage"):
        ref = density_1d(kind, data[:, 0], float(_arg(job, "--t-end")))
        err = float(np.max(np.abs(data[:, 2] - ref)))
        _require(err <= tol, f"grid vs closed form {err:g} > {tol:g}")


CHECKS = {
    "dump": check_dump,
    "density": check_density,
    "pointwise": check_pointwise,
    "l1": check_l1,
    "moments": check_moments,
    "bounds": check_bounds,
    "oracle": check_oracle,
}


def check_output(job, text: str) -> None:
    """Raise CheckError unless ``text`` is a correct output for ``job``."""
    try:
        CHECKS[job.check](job, text)
    except CheckError:
        raise
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise CheckError(f"unparseable output: {exc!r}") from exc


# ---------------------------------------------------------------------------
# reference outputs (default seed)

_NUMBER = re.compile(r"(?<![\w.=])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")

# Oracle tables have 1000s of rows; every 10th row is kept in the reference.
ROW_STRIDE_OVER = 500
ROW_STRIDE = 10


def fingerprint(job, text: str) -> dict:
    """What the reference keeps of an output: a digest or its numbers."""
    if job.check == "dump":
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    skip = set(data) - set(data[::ROW_STRIDE] if len(data) > ROW_STRIDE_OVER else data)
    numbers = [
        [float(tok) for tok in _NUMBER.findall(line)]
        for i, line in enumerate(lines)
        if i not in skip
    ]
    return {"lines": len(lines), "numbers": numbers}


def compare_reference(job, text: str, ref: dict) -> None:
    got = fingerprint(job, text)
    if "sha256" in ref:
        _require(got == ref, "dump differs from the reference bytes")
        return
    _require(got["lines"] == ref["lines"], "line count differs from the reference")
    for a_row, b_row in zip(got["numbers"], ref["numbers"]):
        _require(len(a_row) == len(b_row), "number count differs from the reference")
        for a, b in zip(a_row, b_row):
            same = (math.isnan(a) and math.isnan(b)) or _close(a, b, 1e-12, 1e-300)
            _require(same, f"value {a!r} differs from the reference {b!r}")
