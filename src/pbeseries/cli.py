"""Command-line front end.

Subcommands
-----------
density          sampled truncated-series density, optionally against the
                 known exact solution (columns: x[, y], t, psi_N[, exact,
                 abs_error]; t-major row order)
error-table      L1-error grid over truncation orders and times, or a
                 pointwise exact/approx/error table at fixed x
moments          series moments (t, j[, jy], mu_approx[, mu_exact])
bounds           contraction constants and geometric error bound
reference-check  grid-solver cross-validation (x, series, grid, deviation)
dump-symbolic    exact rational dump of the series components as JSON

Problem selection is shared: --model {coag|frag|ccfe|coag2d} with
--kernel, --frag c,r,s,k and --u0.  The u0 grammar accepts
``exp:a`` for e^{-ax}, ``monoexp:c,p,a`` for c x^p e^{-ax} and
``monoexp2:c,px,py,ax,ay`` for the bivariate analogue; every number may
be a rational like 1/2.  Flags override an optional ``--config`` file of
flat ``key = value`` lines (same names as the long flags).

Exit status: 0 success, 2 configuration error, 3 engine error
(mixed rates, out-of-class breakage, degree/term overflow, instability),
4 I/O error.  Errors print one diagnostic line on stderr.  Output is
byte-deterministic for a fixed configuration: data values are printed
with 17 significant digits and metadata lives in '#' comment lines.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import analysis, exact, refsolver
from .polyexp import PolyExp1D, PolyExp2D, PolyExpError
from .problems import CoagKernel, FragSpec, Model
from .series import Method, SeriesSolution, iterate


class ConfigError(ValueError):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# value grammars


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}") from exc


def parse_u0(text: str):
    """exp:a | monoexp:c,p,a | monoexp2:c,px,py,ax,ay."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "exp":
            return PolyExp1D.monomial(1, rate=_rational(rest))
        if kind == "monoexp":
            c, p, a = rest.split(",")
            return PolyExp1D.monomial(_rational(c), xpow=int(p), rate=_rational(a))
        if kind == "monoexp2":
            c, px, py, ax, ay = rest.split(",")
            return PolyExp2D.monomial(
                _rational(c), xpow=int(px), ypow=int(py),
                xrate=_rational(ax), yrate=_rational(ay),
            )
    except (ValueError, PolyExpError) as exc:
        raise ConfigError(f"bad u0 spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown u0 form {kind!r} (want exp:, monoexp: or monoexp2:)")


def parse_values(text: str) -> list[float]:
    """Comma list '0.5,1,2' or inclusive range 'start:stop:step'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(Fraction(p)) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad range {text!r}") from exc
        if step <= 0:
            raise ConfigError("range step must be positive")
        n = int(round((stop - start) / step))
        vals = [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]
        if not vals:
            raise ConfigError(f"empty range {text!r}")
        return vals
    try:
        vals = [float(Fraction(p)) for p in text.split(",") if p.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value list {text!r}") from exc
    if not vals:
        raise ConfigError("empty value list")
    return vals


def parse_orders(text: str) -> list[int]:
    """Comma list '3,4,5' or inclusive integer range '3:6'."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            orders = list(range(lo, hi + 1))
        else:
            orders = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad order list {text!r}") from exc
    if any(n < 0 for n in orders):
        raise ConfigError(f"truncation orders must be nonnegative, got {text!r}")
    return orders


def parse_frag(text: str) -> FragSpec:
    try:
        c, r, s, k = text.split(",")
        return FragSpec(_rational(c), int(r), _rational(s), int(k))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad --frag spec {text!r}: {exc}") from exc


def parse_moment_orders(text: str, dim: int) -> list[tuple]:
    """1-D: '0,1,2'; 2-D: semicolon-separated pairs '0,0;1,0;2,0'; as dim-tuples."""
    try:
        if dim == 2:
            orders = []
            for chunk in text.split(";"):
                jx, jy = (int(p) for p in chunk.split(","))
                orders.append((jx, jy))
        else:
            orders = [(int(p),) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad moment orders {text!r}") from exc
    if any(min(j) < 0 for j in orders):
        raise ConfigError(f"moment orders must be nonnegative, got {text!r}")
    return orders


# ---------------------------------------------------------------------------
# configuration plumbing


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                key, _, value = line.partition("=")
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


class _Settings:
    """Flag values with config-file fallback and builtin defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        cfg_path = self._args.get("config")
        self._cfg = _read_config(cfg_path) if cfg_path else {}

    def get(self, key: str, default=None):
        val = self._args.get(key)
        if val is not None:
            return val
        if key in self._cfg:
            return self._cfg[key]
        return default

    def require(self, key: str):
        val = self.get(key)
        if val is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return val


def build_problem(s: _Settings) -> Model:
    name = s.require("model")
    u0 = parse_u0(s.require("u0"))
    if name not in ("coag", "frag", "ccfe", "coag2d"):
        raise ConfigError(f"unknown model {name!r}")
    unused = {"coag": "frag", "coag2d": "frag", "frag": "kernel"}.get(name)
    if unused and s.get(unused) is not None:
        raise ConfigError(f"--model {name} takes no --{unused}")
    try:
        kernel = None
        if name == "coag2d":
            kernel = CoagKernel(s.get("kernel", "constant"))
        elif name != "frag":
            kernel = CoagKernel(s.require("kernel"))
        frag = parse_frag(s.require("frag")) if name in ("frag", "ccfe") else None
        problem = Model(u0, kernel, frag)
    except ValueError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc
    if (problem.dim == 2) != (name == "coag2d"):
        want = "a monoexp2: u0" if name == "coag2d" else "an exp: or monoexp: u0"
        raise ConfigError(f"--model {name} takes {want}, got a {problem.dim}-D one")
    return problem


def _as_int(s: _Settings, key: str, default: int) -> int:
    raw = s.get(key, default)
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--{key.replace('_', '-')} must be an integer, got {raw!r}") from exc


def _as_float(s: _Settings, key: str, default=None) -> float:
    raw = s.require(key) if default is None else s.get(key, default)
    try:
        return float(Fraction(raw)) if isinstance(raw, str) else float(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"--{key.replace('_', '-')} must be numeric, got {raw!r}") from exc


def _method(s: _Settings) -> Method:
    try:
        return Method(s.get("method", "ahpetm"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_series(s: _Settings, problem: Model, min_terms: int = 0) -> SeriesSolution:
    n = _as_int(s, "terms", 3)
    if n < 0:
        raise ConfigError("--terms must be nonnegative")
    return iterate(problem, _method(s), max(n, min_terms))


def require_exact(problem: Model):
    sol = exact.matching_exact_solution(problem)
    if sol is None:
        raise ConfigError("no closed-form exact solution is known for this problem")
    return sol


def compared_solution(s: _Settings, problem: Model, command: str):
    """The exact solution if --compare asks for it, else None."""
    compare = s.get("compare")
    if compare is None:
        return None
    if compare != "exact":
        raise ConfigError(f"{command} supports --compare exact only; "
                          "use the reference-check subcommand for the grid oracle")
    return require_exact(problem)


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _format(s: _Settings) -> str:
    fmt = s.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}")
    return fmt


def emit_rows(columns: list[str], rows: list[tuple], s: _Settings, header: list[str]):
    if _format(s) == "json":
        arrays = {c: [_json_safe(r[i]) for r in rows] for i, c in enumerate(columns)}
        text = json.dumps({"columns": columns, **arrays}, indent=1) + "\n"
    else:
        lines = [f"# {h}" for h in header]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(text, s.get("out"))


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_density(s: _Settings) -> None:
    problem = build_problem(s)
    sol = compared_solution(s, problem, "density")
    series = run_series(s, problem)
    psi = series.truncated(series.n)
    ts = parse_values(s.require("t"))
    xs = parse_values(s.require("x"))
    name = f"psi_{series.n}"
    header = [f"model = {s.require('model')}", f"method = {series.method.value}",
              f"terms = {series.n}"]
    ys = parse_values(s.require("y")) if problem.dim == 2 else None
    points = [(x, y) for x in xs for y in ys] if ys else [(x,) for x in xs]
    columns = ["x", "y"][: problem.dim] + ["t", name]
    if sol is not None:
        columns += ["exact", "abs_error"]
    rows: list[tuple] = []
    for t in ts:
        if ys:
            vals = [psi.evaluate(x, y, t) for x, y in points]
        else:
            vals = psi.eval_grid(np.array(xs), t)
        for point, val in zip(points, vals):
            row = (*point, t, float(val))
            if sol is not None:
                ex = sol.evaluate(*point, t)
                row += (ex, abs(float(val) - ex))
            rows.append(row)
    emit_rows(columns, rows, s, header)


def cmd_error_table(s: _Settings) -> None:
    problem = build_problem(s)
    if problem.dim == 2:
        raise ConfigError("error tables cover the 1-D models only")
    fmt = _format(s)
    sol = require_exact(problem)
    ts = parse_values(s.require("t"))
    x = s.get("x")
    if x is not None:
        xvals = parse_values(x)
        if len(xvals) != 1:
            raise ConfigError("pointwise error table needs a single --x value")
        series = run_series(s, problem)
        table = analysis.error_table_pointwise(series, sol, xvals[0], ts)
    else:
        orders = parse_orders(s.require("terms"))
        if not orders:
            raise ConfigError("--terms gave an empty order list")
        series = iterate(problem, _method(s), max(orders))
        table = analysis.error_table_l1(series, sol, orders, ts)
    if fmt == "json":
        _write(json.dumps(table.to_json_obj(), indent=1) + "\n", s.get("out"))
    else:
        _write(table.to_csv(), s.get("out"))


def cmd_moments(s: _Settings) -> None:
    problem = build_problem(s)
    sol = compared_solution(s, problem, "moments")
    series = run_series(s, problem)
    js = parse_moment_orders(s.require("j"), problem.dim)
    if not js:
        raise ConfigError("empty moment order list")
    ts = parse_values(s.require("t"))
    header = [f"model = {s.require('model')}", f"terms = {series.n}"]
    columns = ["t", *(["jx", "jy"] if problem.dim == 2 else ["j"]), "mu_approx"]
    if sol is not None:
        columns.append("mu_exact")
    tps = {j: analysis.series_moment(series, series.n, *j) for j in js}
    rows = []
    for t in ts:
        for j in js:
            row = (t, *j, analysis.tpoly_eval(tps[j], t))
            if sol is not None:
                row += (sol.moment(*j)(t),)
            rows.append(row)
    emit_rows(columns, rows, s, header)


def _bound_rows(b: analysis.ConvergenceBound, label: str = "") -> list[tuple]:
    return [(f"contraction{label}", b.contraction),
            (f"contractive{label}", str(b.contractive).lower()), (f"bound{label}", b.bound)]


def cmd_bounds(s: _Settings) -> None:
    problem = build_problem(s)
    series = run_series(s, problem, min_terms=1)
    t0 = _as_float(s, "t0")
    m = _as_int(s, "m", 3)
    if problem.dim == 2:
        u0_norm = analysis.tpoly_eval(problem.u0.moment(0, 0), 0.0)
        mu00 = series.components[1].moment(0, 0)
        v1_norm = max(
            abs(analysis.tpoly_eval(mu00, float(ss))) for ss in np.linspace(0.0, t0, 101)
        )
        T = _as_float(s, "T", max(1.0, t0))
        pair = analysis.coag2d_bounds(u0_norm, T, t0, m, v1_norm)
        rows = [("u0_norm", u0_norm), ("v1_norm", v1_norm), ("L", pair["statement"].lipschitz)]
        for label, b in pair.items():
            rows += _bound_rows(b, f"_{label}")
    elif problem.kernel is None:
        lam = _as_float(s, "lam")
        v1_norm = analysis.sup_l1_norm(series.components[1], t0)
        b = analysis.frag_bound(problem.frag.k, lam, t0, m, v1_norm)
        rows = [("v1_norm", v1_norm), ("lambda", lam), *_bound_rows(b)]
    else:
        u0_norm = analysis.sup_l1_norm(problem.u0, t0)
        T = _as_float(s, "T", max(1.0, t0))
        v1_norm = analysis.sup_l1_norm(series.components[1], t0)
        b = analysis.coag_bound(u0_norm, T, t0, m, v1_norm)
        rows = [("u0_norm", u0_norm), ("v1_norm", v1_norm), ("L", b.lipschitz), *_bound_rows(b)]
    emit_rows(["quantity", "value"], rows, s, [f"t0 = {t0:g}", f"m = {m}"])


def cmd_reference_check(s: _Settings) -> None:
    problem = build_problem(s)
    if problem.dim == 2:
        raise ConfigError("reference-check covers the 1-D models only")
    series = run_series(s, problem)
    psi = series.truncated(series.n)
    try:
        spec = refsolver.GridSpec(
            xmax=_as_float(s, "xmax", 50.0),
            n_cells=_as_int(s, "cells", 2000),
            dt=_as_float(s, "dt", 1e-3),
            t_end=_as_float(s, "t_end"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = refsolver.integrate(problem, spec)
    xs = spec.nodes()
    approx = psi.eval_grid(xs, spec.t_end)
    dev = np.abs(approx - grid.values)
    header = [
        f"terms = {series.n}", f"t_end = {spec.t_end:g}",
        f"cells = {spec.n_cells}", f"dt = {spec.dt:g}",
        f"max_deviation = {float(np.max(dev)):.17g}",
    ]
    rows = [
        (float(x), float(a), float(g), float(d))
        for x, a, g, d in zip(xs, approx, grid.values, dev)
    ]
    emit_rows(["x", "series", "grid", "deviation"], rows, s, header)


def cmd_dump_symbolic(s: _Settings) -> None:
    problem = build_problem(s)
    series = run_series(s, problem)
    obj = {
        "method": series.method.value,
        "terms": series.n,
        "components": [c.to_obj() for c in series.components],
    }
    _write(json.dumps(obj, indent=1) + "\n", s.get("out"))


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="pbeseries", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--model", choices=["coag", "frag", "ccfe", "coag2d"])
        p.add_argument("--kernel", choices=[k.value for k in CoagKernel])
        p.add_argument("--frag", help="breakage parameters c,r,s,k")
        p.add_argument("--u0", help="exp:a | monoexp:c,p,a | monoexp2:c,px,py,ax,ay")
        p.add_argument("--method", choices=[m.value for m in Method])
        p.add_argument("--terms", help="truncation order n (error-table: list or lo:hi)")
        p.add_argument("--t", help="time list 0.5,1,2 or range start:stop:step")
        p.add_argument("--x", help="size list or range")
        p.add_argument("--y", help="second size coordinate (2-D)")
        p.add_argument("--compare", help="exact: add the closed-form solution")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help="flat key = value configuration file")

    p = sub.add_parser("density", help="sampled series density")
    common(p)
    p = sub.add_parser("error-table", help="error tables against the exact solution")
    common(p)
    p = sub.add_parser("moments", help="series moments")
    common(p)
    p.add_argument("--j", help="moment orders: 0,1 (1-D) or 0,0;1,0 (2-D)")
    p = sub.add_parser("bounds", help="contraction constants and error bound")
    common(p)
    p.add_argument("--t0", help="norm horizon t0")
    p.add_argument("--T", help="problem horizon T (coagulation bound)")
    p.add_argument("--m", help="bound order m")
    p.add_argument("--lam", help="exponential weight (fragmentation bound)")
    p = sub.add_parser("reference-check", help="grid-oracle cross validation")
    common(p)
    p.add_argument("--t-end", dest="t_end", help="final time")
    p.add_argument("--cells", help="grid cells (default 2000)")
    p.add_argument("--dt", help="time step (default 1e-3)")
    p.add_argument("--xmax", help="domain truncation (default 50)")
    p = sub.add_parser("dump-symbolic", help="exact rational component dump")
    common(p)
    return parser


_COMMANDS = {
    "density": cmd_density,
    "error-table": cmd_error_table,
    "moments": cmd_moments,
    "bounds": cmd_bounds,
    "reference-check": cmd_reference_check,
    "dump-symbolic": cmd_dump_symbolic,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        settings = _Settings(args)
        _COMMANDS[args.command](settings)
        return 0
    except (ConfigError, refsolver.Unsupported2DError, analysis.InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PolyExpError, refsolver.InstabilityError, exact.NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
