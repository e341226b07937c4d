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

Every subcommand takes the problem flags --model {coag|frag|ccfe|coag2d},
--kernel, --frag c,r,s,k and --u0, plus --out and --config; all but bounds,
which reads only u0 and v_1, take --method and --terms, and all but
dump-symbolic, which always writes JSON, take --format csv|json.  Their own
flags: density --t --x --y --compare; error-table --t --x; moments --t --j
--compare; bounds --t0 --T (default max(1, t0)) --m --lam; reference-check
--t-end --cells --dt --xmax.  Any other flag is a usage error, and so is a
setting the chosen model does not use (``_UNUSED``: --y on a 1-D model, --lam
with a coagulation kernel, --T on frag, --frag or --kernel on the wrong
model), checked right after the model is built, before the subcommand's own
settings.  A negative time in --t or size in --x or --y, or a --t0 <= 0, is a
configuration error.  The u0 grammar accepts ``exp:a`` for e^{-ax},
``monoexp:c,p,a`` for c x^p e^{-ax} and ``monoexp2:c,px,py,ax,ay`` for the
bivariate analogue; every number may be a rational like 1/2.

``--config`` names a file of flat ``key = value`` lines with the long flag
names as keys.  A flag overrides its config value, which overrides the
default.  Keys the subcommand does not take are ignored, so one file can
serve several subcommands; a key no subcommand takes is an error.  Config
values are checked like flags, and every setting is checked before any
work starts.

This module is the only writer: the numbers come from the numeric modules
(error tables as ``analysis.ErrorTable`` data), and every CSV, error
tables included, is written by ``format_rows``.  It does not import
numpy; reference-check takes its deviation with the arrays' own operators.

Exit status: 0 success, 2 configuration error, 3 engine error
(mixed rates, out-of-class breakage, degree/float overflow, work or grid budget,
instability),
4 I/O error, and an --out path whose directory is missing exits 4 before
any work.  Errors print one diagnostic line on stderr.  Output is
byte-deterministic for a fixed configuration: data values are printed
with 17 significant digits and metadata lives in '#' comment lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import product

from . import analysis, exact, refsolver
from .polyexp import PolyExp1D, PolyExp2D, PolyExpError, tpoly_function
from .problems import CoagKernel, FragSpec, Model
from .series import Method, iterate


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 as a configuration error does
        raise ConfigError(message)


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


def _nonnegative_values(text: str, what: str) -> list[float]:
    """A list or range as ``parse_values`` reads it; no value may be negative."""
    vals = parse_values(text)
    if min(vals) < 0:
        raise ConfigError(f"{what} must be nonnegative, got {text!r}")
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
# settings: one reader, flag over config value over default

_REQUIRED, _TABLE = object(), object()

# key: (parser, default, --help text or argparse choices).  The reader
# checks choices and the int/float grammar itself and the other parsers
# raise ConfigError, so a flag and a config line of the same key take the
# same path.
_KEYS = {
    "model": (str, _REQUIRED, ["coag", "frag", "ccfe", "coag2d"]),
    "kernel": (CoagKernel, _REQUIRED, [k.value for k in CoagKernel]),
    "frag": (parse_frag, _REQUIRED, "breakage parameters c,r,s,k"),
    "u0": (parse_u0, _REQUIRED, "exp:a | monoexp:c,p,a | monoexp2:c,px,py,ax,ay"),
    "method": (Method, Method.ACCELERATED, [m.value for m in Method]),
    "terms": (int, 3, "truncation order n (error-table: list or lo:hi)"),
    "t": (partial(_nonnegative_values, what="times"), _REQUIRED,
          "time list 0.5,1,2 or range start:stop:step"),
    "x": (partial(_nonnegative_values, what="sizes"), _REQUIRED, "size list or range"),
    "y": (partial(_nonnegative_values, what="sizes"), _REQUIRED, "second size coordinate (2-D)"),
    "compare": (str, None, "exact: add the closed-form solution"),
    "j": (str, _REQUIRED, "moment orders: 0,1 (1-D) or 0,0;1,0 (2-D)"),
    "t0": (float, _REQUIRED, "norm horizon t0"),
    "T": (float, None, "problem horizon T (coagulation bound)"),
    "m": (int, 3, "bound order m"),
    "lam": (float, _REQUIRED, "exponential weight (fragmentation bound)"),
    "t_end": (float, _REQUIRED, "final time"),
    "cells": (int, 2000, "grid cells (default 2000)"),
    "dt": (float, 1e-3, "time step (default 1e-3)"),
    "xmax": (float, 50.0, "domain truncation (default 50)"),
    "format": (str, "csv", ["csv", "json"]),
    "out": (str, "-", "output path (default: stdout)"),
    "config": (str, None, "flat key = value configuration file"),
}


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a leading byte order mark
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if not any(key in flags for *_, flags in _COMMANDS.values()):
                    raise ConfigError(f"unknown config key {key!r}")
                cfg[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


class _Settings:
    """The settings of one subcommand; keys it does not take read as absent."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self._args = vars(args)
        cfg = _read_config(args.config) if args.config else {}
        self._cfg = {k: v for k, v in cfg.items() if k in self._args}
        self.format = self.get("format")

    def get(self, key: str, default=_TABLE, parse=None):
        """Flag over config value over default, checked; keywords override ``_KEYS``."""
        table_parse, table_default, choices = _KEYS[key]
        parse = parse or table_parse
        flag = "--" + key.replace("_", "-")
        raw = self._args.get(key)
        if raw is None:
            raw = self._cfg.get(key)
        if raw is None:
            default = table_default if default is _TABLE else default
            if default is _REQUIRED:
                raise ConfigError(f"missing required option {flag}")
            return default
        if isinstance(choices, list) and raw not in choices:
            raise ConfigError(f"unknown {key} {raw!r}")
        if parse not in (int, float):
            return parse(raw)
        try:
            value = int(raw) if parse is int else float(Fraction(raw))
        except (ValueError, ZeroDivisionError) as exc:
            what = "an integer" if parse is int else "numeric"
            raise ConfigError(f"{flag} must be {what}, got {raw!r}") from exc
        if parse is int and value < 0:
            raise ConfigError(f"{flag} must be nonnegative")
        return value


# the settings each model does not use, checked after the model so a wrong u0 is named first
_UNUSED = {"coag": ("frag", "y", "lam"), "ccfe": ("y", "lam"),
           "frag": ("kernel", "y", "T"), "coag2d": ("frag", "lam")}


def build_problem(s: _Settings) -> Model:
    name = s.get("model")
    u0 = s.get("u0")
    kernel = None
    if name != "frag":
        kernel = s.get("kernel", default=CoagKernel.CONSTANT if name == "coag2d" else _TABLE)
    frag = s.get("frag") if name in ("frag", "ccfe") else None
    try:
        problem = Model(u0, kernel, frag)
    except ValueError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc
    if (problem.dim == 2) != (name == "coag2d"):
        want = "a monoexp2: u0" if name == "coag2d" else "an exp: or monoexp: u0"
        raise ConfigError(f"--model {name} takes {want}, got a {problem.dim}-D one")
    for key in _UNUSED[name]:
        if s.get(key, default=None, parse=str) is not None:
            raise ConfigError(f"--model {name} takes no --{key}")
    return problem


def require_exact(problem: Model):
    sol = exact.matching_exact_solution(problem)
    if sol is None:
        raise ConfigError("no closed-form exact solution is known for this problem")
    return sol


def compared_solution(s: _Settings, problem: Model):
    """The exact solution if --compare asks for it, else None."""
    compare = s.get("compare")
    if compare is None:
        return None
    if compare != "exact":
        raise ConfigError(f"{s.command} supports --compare exact only; "
                          "use the reference-check subcommand for the grid oracle")
    return require_exact(problem)


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _json_safe(v):
    return str(v) if isinstance(v, float) and not math.isfinite(v) else v


def format_rows(columns: list[str], rows: list[tuple], fmt: str, header: list[str]) -> str:
    if fmt == "json":
        arrays = {c: [_json_safe(r[i]) for r in rows] for i, c in enumerate(columns)}
        return json.dumps({"columns": columns, **arrays}, indent=1) + "\n"
    lines = [f"# {h}" for h in header]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each takes the problem that main has built and checked, reads
# and checks the rest of its settings, then runs the engine, and returns its text


def cmd_density(s: _Settings, problem: Model) -> str:
    sol = compared_solution(s, problem)
    ts = s.get("t")
    axes = [s.get(a) for a in "xy"[: problem.dim]]
    series = iterate(problem, s.get("method"), s.get("terms"))
    psi = series.truncated(series.n)
    name = f"psi_{series.n}"
    header = [f"model = {s.get('model')}", f"method = {series.method.value}",
              f"terms = {series.n}"]
    columns = ["x", "y"][: problem.dim] + ["t", name]
    if sol is not None:
        columns += ["exact", "abs_error"]
    rows: list[tuple] = []
    for t in ts:
        vals = psi.eval_grid(*axes, t)
        exs = sol.evaluate_grid(*axes, t) if sol is not None else vals
        for point, val, ex in zip(product(*axes), map(float, vals), map(float, exs)):
            row = (*point, t, val)
            rows.append(row if sol is None else (*row, ex, abs(val - ex)))
    return format_rows(columns, rows, s.format, header)


def cmd_error_table(s: _Settings, problem: Model) -> str:
    if problem.dim == 2:
        raise ConfigError("error tables cover the 1-D models only")
    sol = require_exact(problem)
    ts = s.get("t")
    xvals = s.get("x", default=None)
    if xvals is not None and len(xvals) != 1:
        raise ConfigError("pointwise error table needs a single --x value")
    if xvals:
        orders = [s.get("terms")]
    else:
        orders = s.get("terms", default=_REQUIRED, parse=parse_orders)
    if not orders:
        raise ConfigError("--terms gave an empty order list")
    series = iterate(problem, s.get("method"), max(orders))
    if xvals:
        table = analysis.error_table_pointwise(series, sol, xvals[0], ts)
    else:
        table = analysis.error_table_l1(series, sol, orders, ts)
    if s.format == "json":  # the table's fields, norm first
        return json.dumps({"norm": table.norm, **dataclasses.asdict(table)}, indent=1) + "\n"
    columns = [table.row_axis, *(c if isinstance(c, str) else f"{table.col_axis}={c:g}"
                                 for c in table.col_labels)]
    rows = [(f"{label:g}", *cells) for label, cells in zip(table.row_labels, table.cells)]
    return format_rows(columns, rows, "csv", [f"norm = {table.norm}"])


def cmd_moments(s: _Settings, problem: Model) -> str:
    sol = compared_solution(s, problem)
    js = parse_moment_orders(s.get("j"), problem.dim)
    if not js:
        raise ConfigError("empty moment order list")
    ts = s.get("t")
    series = iterate(problem, s.get("method"), s.get("terms"))
    header = [f"model = {s.get('model')}", f"terms = {series.n}"]
    columns = ["t", *(["jx", "jy"] if problem.dim == 2 else ["j"]), "mu_approx"]
    if sol is not None:
        columns.append("mu_exact")
    mu_approx = {j: tpoly_function(analysis.series_moment(series, series.n, *j)) for j in js}
    mus = {j: sol.moment(*j) for j in js} if sol is not None else {}
    rows = []
    for t in ts:
        for j in js:
            row = (t, *j, mu_approx[j](t))
            if sol is not None:
                row += (mus[j](t),)
            rows.append(row)
    return format_rows(columns, rows, s.format, header)


def cmd_bounds(s: _Settings, problem: Model) -> str:
    t0, m = s.get("t0"), s.get("m")
    if t0 <= 0:
        raise ConfigError(f"--t0 must be positive, got {t0:g}")
    norm = analysis.sup_abs_moment00 if problem.dim == 2 else analysis.sup_l1_norm
    # Theorem 3: the contraction needs u0 alone (or k, lambda and t0), so its
    # overflow exits before the engine runs
    if problem.kernel is None:
        lipschitz = s.get("lam")
        contraction = analysis.frag_contraction(problem.frag.k, lipschitz, t0)
        rows = [("lambda", lipschitz)]
    else:
        T = s.get("T", default=max(1.0, t0))
        u0_norm = norm(problem.u0, t0)
        lipschitz, contraction = analysis.coag_contraction(u0_norm, T, t0)
        rows = [("u0_norm", u0_norm), ("L", lipschitz)]
    # Theorem 4 reads v_1 = T[rhs(u0)] only, which every engine and order shares
    v1_norm = norm(iterate(problem, Method.ACCELERATED, 1).components[1], t0)
    rows.insert(-1, ("v1_norm", v1_norm))  # ahead of lambda or L
    for label, factor in (analysis.COAG2D_FACTORS if problem.dim == 2 else {"": 1.0}).items():
        theta = factor * contraction
        label = label and f"_{label}"
        rows += [(f"contraction{label}", theta), (f"contractive{label}", str(theta < 1).lower()),
                 (f"bound{label}", analysis.geometric_bound(theta, m, v1_norm))]
    return format_rows(["quantity", "value"], rows, s.format, [f"t0 = {t0:g}", f"m = {m}"])


def cmd_reference_check(s: _Settings, problem: Model) -> str:
    if problem.dim == 2:
        raise ConfigError("reference-check covers the 1-D models only")
    try:
        spec = refsolver.GridSpec(
            xmax=s.get("xmax"), n_cells=s.get("cells"), dt=s.get("dt"), t_end=s.get("t_end"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec.steps()  # the grid budget trips before the engine runs
    series = iterate(problem, s.get("method"), s.get("terms"))
    psi = series.truncated(series.n)
    grid = refsolver.integrate(problem, spec)
    xs = spec.nodes()
    approx = psi.eval_grid(xs, spec.t_end)
    dev = abs(approx - grid)
    header = [
        f"terms = {series.n}", f"t_end = {spec.t_end:g}",
        f"cells = {spec.n_cells}", f"dt = {spec.dt:g}",
        f"max_deviation = {float(dev.max()):.17g}",
    ]
    rows = [(float(x), float(a), float(g), float(d))
            for x, a, g, d in zip(xs, approx, grid, dev)]
    return format_rows(["x", "series", "grid", "deviation"], rows, s.format, header)


def cmd_dump_symbolic(s: _Settings, problem: Model) -> str:
    series = iterate(problem, s.get("method"), s.get("terms"))
    try:
        components = [c.to_obj() for c in series.components]
    except ValueError as exc:  # str() of an int past sys.get_int_max_str_digits()
        raise PolyExpError(f"a coefficient exceeds Python's limit of "
                           f"{sys.get_int_max_str_digits()} digits for integer text; "
                           "use fewer --terms") from exc
    obj = {"method": series.method.value, "terms": series.n, "components": components}
    return json.dumps(obj, indent=1) + "\n"


# ---------------------------------------------------------------------------
# argument wiring

_PROBLEM = ("model", "kernel", "frag", "u0")
_SERIES = (*_PROBLEM, "method", "terms")

# subcommand: (function, --help text, the keys it reads)
_COMMANDS = {
    "density": (cmd_density, "sampled series density",
                (*_SERIES, "t", "x", "y", "compare", "format", "out", "config")),
    "error-table": (cmd_error_table, "error tables against the exact solution",
                    (*_SERIES, "t", "x", "format", "out", "config")),
    "moments": (cmd_moments, "series moments",
                (*_SERIES, "t", "compare", "format", "out", "config", "j")),
    "bounds": (cmd_bounds, "contraction constants and error bound",
               (*_PROBLEM, "format", "out", "config", "t0", "T", "m", "lam")),
    "reference-check": (cmd_reference_check, "grid-oracle cross validation",
                        (*_SERIES, "format", "out", "config", "t_end", "cells", "dt", "xmax")),
    "dump-symbolic": (cmd_dump_symbolic, "exact rational component dump",
                      (*_SERIES, "out", "config")),
}


@cache
def build_parser() -> _Parser:
    """The program parser, built once: every subcommand with its own flags."""
    parser = _Parser(prog="pbeseries", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, keys) in _COMMANDS.items():
        # no abbreviations: a flag the subcommand does not take must not
        # pass as the prefix of one it does (--t for --t0, --x for --xmax)
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for key in keys:
            hint = _KEYS[key][2]
            choices, hint = (hint, None) if isinstance(hint, list) else (None, hint)
            p.add_argument("--" + key.replace("_", "-"), dest=key, choices=choices, help=hint)
    return parser


def _check_writable(path: str) -> None:
    """Fail before the work on an --out path that cannot be a file."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OSError(f"cannot write --out {path}: no directory {parent}")
    if os.path.isdir(path):
        raise OSError(f"cannot write --out {path}: it is a directory")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        settings = _Settings(args)
        out = settings.get("out")
        if out != "-":
            _check_writable(out)
        text = _COMMANDS[args.command][0](settings, build_problem(settings))
        if out == "-":
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    except (ConfigError, refsolver.Unsupported2DError, analysis.InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PolyExpError, refsolver.GridBudgetError, refsolver.InstabilityError,
            exact.NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # float ** gives an (errno, text) pair, the rest a text
        print(f"error: a value overflows the float range: {exc.args[-1]}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SystemExit as exc:  # --help has printed its text
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
