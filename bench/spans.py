"""Span recorder and the outside-in instrumentation of ``pbeseries``.

``Tracer.install`` wraps the public functions of each module without
editing the package: module-level functions are replaced in *every*
``pbeseries`` module that holds a reference to them (``cli`` binds
``iterate`` by name and ``series`` binds ``rhs`` by name, so patching only
the defining module would miss those calls), methods are replaced on their
classes, and ``analysis``'s ``scipy.integrate`` is swapped for a proxy whose
``quad`` is wrapped.  ``uninstall`` restores every original.

Each call records a span (name, start, end, parent span, job id) in
memory.  Counts that need the arguments or the result (convolution pairs,
series size, RK4 steps) are taken after the call inside a ``trace.count``
span, so that their cost is not charged to the layer that called.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(int)
        self.job = None
        self._stack: list = []
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.maxima = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            spans_ = self.spans
            idx = len(spans_)
            spans_.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans_[idx] = (name, start, end, parent, self.job)
            if after is not None:
                cidx = len(spans_)
                spans_.append(None)
                cstart = clock()
                after(self, args, result)
                spans_[cidx] = (COUNT_SPAN, cstart, clock(), parent, self.job)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        import sys

        from pbeseries import analysis, cli, exact, polyexp, problems, refsolver, series

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pbeseries" or n.startswith("pbeseries."))]
        functions = [
            ("problems.rhs", problems, "rhs", None),
            ("problems.coag_bilinear", problems, "coag_bilinear", None),
            ("problems.frag_rhs", problems, "frag_rhs", None),
            ("problems.coag2d_bilinear", problems, "coag2d_bilinear", None),
            ("series.iterate", series, "iterate", _count_series),
            ("exact.bessel_i1", exact, "bessel_i1", None),
            ("analysis.l1_error", analysis, "l1_error", None),
            ("analysis.sup_l1_norm", analysis, "sup_l1_norm", None),
            ("analysis.l1_at_time", analysis, "_l1_at_time", None),
            ("analysis.error_table_l1", analysis, "error_table_l1", None),
            ("analysis.series_moment", analysis, "series_moment", None),
            ("refsolver.integrate", refsolver, "integrate", _count_integrate),
            ("refsolver.sample_initial", refsolver, "sample_initial", None),
            ("cli.main", cli, "main", None),
        ]
        for name, mod, attr, after in functions:
            original = getattr(mod, attr)
            self._rebind(modules, original, self.wrap(name, original, after))

        p1, p2, base = polyexp.PolyExp1D, polyexp.PolyExp2D, polyexp._PolyExpBase
        methods = [
            ("polyexp.convolve", p1, "convolve", _count_convolve("polyexp.convolve")),
            ("polyexp.convolve2d", p2, "convolve", _count_convolve("polyexp.convolve2d")),
            ("polyexp.add", base, "__add__", None),
            ("polyexp.sub", base, "__sub__", None),
            ("polyexp.scale", base, "scale", None),
            ("polyexp.mul_tpoly", base, "mul_tpoly", None),
            ("polyexp.time_antiderivative", base, "time_antiderivative", None),
            ("polyexp.mul_x", p1, "mul_x", None),
            ("polyexp.moment", p1, "moment", None),
            ("polyexp.moment", p2, "moment", None),
            ("polyexp.tail_integral", p1, "tail_integral", None),
            ("polyexp.collapse_t", p1, "collapse_t", None),
            ("polyexp.evaluate", p1, "evaluate", None),
            ("polyexp.evaluate", p2, "evaluate", None),
            ("polyexp.eval_grid", p1, "eval_grid", None),
            ("polyexp.to_obj", p1, "to_obj", None),
            ("polyexp.to_obj", p2, "to_obj", None),
            ("series.truncated", series.SeriesSolution, "truncated", None),
        ]
        solutions = [exact.ConstantKernelSolution, exact.SumKernelSolution,
                     exact.ProductKernelSolution, exact.LinearBreakageSolution,
                     exact.BivariateConstantSolution]
        methods += [("exact.evaluate", cls, "evaluate", None) for cls in solutions]
        for name, cls, attr, after in methods:
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr], after))
        for cls in solutions:
            self._set(cls, "moment", self._moment_factory(cls.__dict__["moment"]))
        self._set(analysis, "integrate",
                  _Proxy(analysis.integrate, quad=self.wrap("analysis.quad", analysis.integrate.quad)))

    def _moment_factory(self, factory):
        """exact.moment returns a function of t; that function is the span."""

        def moment(*args, **kwargs):
            return self.wrap("exact.moment", factory(*args, **kwargs))

        return moment

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# counts taken from arguments and results


def _count_convolve(name: str):
    def after(tracer, args, result):
        a, b = args[0], args[1]
        na = Counter(rate for rate, _, _ in a.terms())
        nb = Counter(rate for rate, _, _ in b.terms())
        tracer.counts[f"{name}.pairs"] += sum(n * nb[r] for r, n in na.items())
        tracer.counts[f"{name}.terms_out"] += result.term_count()

    return after


def _count_series(tracer, args, result):
    for comp in result.components:
        tracer.counts["series.terms_out"] += comp.term_count()
        tracer.maxima["series.t_degree_max"] = max(
            tracer.maxima["series.t_degree_max"], comp.t_degree())
        for _, _, c in comp.terms():
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > tracer.maxima["series.coeff_bits_max"]:
                tracer.maxima["series.coeff_bits_max"] = bits


def _count_integrate(tracer, args, result):
    problem, spec = args[0], args[1]
    steps = max(1, int(round(spec.t_end / spec.dt))) if spec.t_end else 0
    nodes = spec.n_cells + 1
    tracer.counts["refsolver.rk4_steps"] += steps
    tracer.counts["refsolver.cell_steps"] += steps * nodes
    if getattr(problem, "kernel", None) is not None:
        # one np.convolve of two node-length arrays per RK4 stage
        tracer.counts["refsolver.conv_ops"] += 4 * nodes * nodes * steps


# ---------------------------------------------------------------------------
# aggregation


def span_totals(spans) -> dict:
    """Per span name: calls, total time and self time.

    Total time counts only spans with no ancestor of the same name, so a
    function that re-enters itself is not counted twice.  Self time is a
    span's duration minus the durations of its direct children, which on
    one thread are nested inside it and do not overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent, _) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
    return dict(out)


def _metric(unit: str, names) -> list:
    return [(n, unit) for n in names]


POLYEXP_OPS = ("convolve", "convolve2d", "add", "sub", "scale", "mul_tpoly", "mul_x",
               "moment", "tail_integral", "time_antiderivative", "collapse_t",
               "evaluate", "eval_grid", "to_obj")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    _metric("s", ["setup.import_numpy_s", "setup.import_scipy_s", "setup.import_pbeseries_s"])
    + [("cli.main.calls", "count"), ("cli.main.s", "s"), ("cli.main.self_s", "s"),
       ("cli.out_bytes", "bytes")]
    + [("series.iterate.calls", "count"), ("series.iterate.s", "s"),
       ("series.iterate.self_s", "s"), ("series.truncated.s", "s")]
    + _metric("count", ["series.terms_out", "series.t_degree_max", "series.coeff_bits_max"])
    + [("problems.rhs.calls", "count"), ("problems.rhs.self_s", "s"),
       ("problems.coag_bilinear.calls", "count"), ("problems.coag_bilinear.self_s", "s"),
       ("problems.frag_rhs.s", "s"), ("problems.coag2d_bilinear.s", "s")]
    + [m for op in POLYEXP_OPS for m in ((f"polyexp.{op}.calls", "count"), (f"polyexp.{op}.s", "s"))]
    + [("polyexp.convolve.self_s", "s"), ("polyexp.convolve2d.self_s", "s")]
    + _metric("count", ["polyexp.convolve.pairs", "polyexp.convolve.terms_out",
                        "polyexp.convolve2d.pairs", "polyexp.convolve2d.terms_out"])
    + [("exact.evaluate.calls", "count"), ("exact.evaluate.s", "s"), ("exact.moment.s", "s"),
       ("exact.bessel_i1.calls", "count")]
    + [("analysis.l1_error.calls", "count"), ("analysis.l1_error.s", "s"),
       ("analysis.l1_error.self_s", "s"), ("analysis.sup_l1_norm.calls", "count"),
       ("analysis.sup_l1_norm.s", "s"), ("analysis.sup_l1_norm.self_s", "s"),
       ("analysis.quad.calls", "count"), ("analysis.quad.s", "s"),
       ("analysis.sup_l1_norm.exact_share", "ratio"), ("analysis.error_table_l1.s", "s"),
       ("analysis.series_moment.s", "s")]
    + [("refsolver.integrate.calls", "count"), ("refsolver.integrate.s", "s"),
       ("refsolver.sample_initial.s", "s"), ("refsolver.rk4_steps", "count"),
       ("refsolver.conv_ops", "computed_ops"), ("refsolver.cell_steps_per_s", "1/s")]
    + [("trace.run_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
)

# The per-layer metrics that are exact counts; they must repeat exactly.
COUNTS = tuple(n for n, u in PER_LAYER
               if u in ("count", "computed_ops") or n == "cli.out_bytes")


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass; setup.* and the trace run times
    are the runner's to add."""
    totals = span_totals(tracer.spans)
    values: dict = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            values[name] = totals.get(base, {}).get(field, 0)
        else:
            values[name] = tracer.counts.get(name, tracer.maxima.get(name, 0))
    # samples of sup_l1_norm settled by the exact moment, not by quad
    samples = quads = 0
    for span in tracer.spans:
        if span[0] in ("analysis.l1_at_time", "analysis.quad") and \
                _has_ancestor(tracer.spans, span, "analysis.sup_l1_norm"):
            samples += span[0] == "analysis.l1_at_time"
            quads += span[0] == "analysis.quad"
    values["analysis.sup_l1_norm.exact_share"] = (samples - quads) / samples if samples else 0.0
    integrate_s = values["refsolver.integrate.s"]
    values["refsolver.cell_steps_per_s"] = (
        tracer.counts["refsolver.cell_steps"] / integrate_s if integrate_s else 0.0)
    values["trace.spans"] = len(tracer.spans)
    for name in ("setup.import_numpy_s", "setup.import_scipy_s", "setup.import_pbeseries_s",
                 "trace.run_s", "trace.overhead_s"):
        del values[name]
    return values


def _has_ancestor(spans, span, name: str) -> bool:
    p = span[3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
