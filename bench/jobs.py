"""Workload generation: the CLI jobs each workload runs, made from a seed.

A job is one ``pbeseries`` command line plus what the output checks need
to know about it.  Seed 0 (the default) reproduces the README commands and
the published-table inputs exactly, in their listed order.  Any other seed
permutes the job order and draws the evaluation points (t lists, x grids,
norm horizons) from each model's valid range, keeping every list length
fixed so that a pass does about the same work whatever the seed.

Workloads
---------
ahpetm-deep   the seven benchmark problems dumped exactly with ``ahpetm``
              at depth: large self-convolutions of operands with hundreds
              to thousands of terms and 100-1100-bit rationals, so the
              algebra kernel (``polyexp.convolve``) and the engine dominate.
              Not in BENCHMARK.json: its median job is one 0.5 s job seen
              two or three times a run, which a shared 2-vCPU host spreads
              by 15-27% between runs.  Run it by hand to see the kernel.
paper-tables  the README commands and the paper's tables: many small
              operands and point evaluations, so the numeric analysis layer
              (``sup_l1_norm``, ``l1_error``, exact-solution evaluation)
              dominates while large convolutions are absent.
grid-oracle   ``reference-check`` on the 1-D benchmark problems: the RK4
              grid solver with O(n^2) ``np.convolve`` dominates, symbolic
              work stays at n <= 4, and the cell count is the input
              property a faster convolution would depend on.  Its seed
              only permutes the order: the step count is the work, and the
              5e-4 deviation bound was established at t_end = 0.25.
known-defects jobs whose output is known to fail its check, kept out of the
              other workloads (which must run clean) so that the defect
              stays visible: the sum kernel's ``moments --compare exact``,
              whose exact column is wrong past t ~ 0.6.  Not in
              BENCHMARK.json; once it runs clean, fold its jobs back into
              paper-tables and re-capture the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

WORKLOADS = ("ahpetm-deep", "paper-tables", "grid-oracle", "known-defects")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the facts its output check relies on."""

    id: str
    argv: tuple
    check: str
    params: dict = field(default_factory=dict)


# The seven benchmark problems: model flags and what the checks know.
PROBLEMS = {
    "constant": (["--model", "coag", "--kernel", "constant", "--u0", "exp:1"],
                 {"model": "coag", "kernel": "constant"}),
    "sum": (["--model", "coag", "--kernel", "sum", "--u0", "exp:1"],
            {"model": "coag", "kernel": "sum"}),
    "product": (["--model", "coag", "--kernel", "product", "--u0", "exp:1"],
                {"model": "coag", "kernel": "product"}),
    "breakage": (["--model", "frag", "--frag", "2,1,1,1", "--u0", "exp:1"],
                 {"model": "frag", "kernel": "breakage"}),
    "halfx": (["--model", "ccfe", "--kernel", "constant", "--frag", "2,1,1/2,1",
               "--u0", "monoexp:4,1,2"],
              {"model": "ccfe", "count": 1.0}),
    "twox": (["--model", "ccfe", "--kernel", "constant", "--frag", "2,1,2,1",
              "--u0", "monoexp:32,1,4"],
             {"model": "ccfe", "count": 2.0}),
    "coag2d": (["--model", "coag2d", "--u0", "monoexp2:6250000,1,1,50,50"],
               {"model": "coag2d"}),
}

# Criterion 1's published coefficients of the ahpetm components:
# (component, rate, exponents, value), rationals written as strings.
PREFACTORS = {
    "constant": [(3, "1", (7, 7), "1/40642560")],
    "product": [(2, "1", (9, 3), "1/544320")],
    "halfx": [(2, "2", (7, 3), "8/3780")],
    "twox": [(2, "4", (7, 3), "8192/945")],
    "coag2d": [(1, ("50", "50"), (3, 3, 1), "4882812500000/9")],
}


def _job(jid, command, problem, extra, check, **params):
    flags, facts = PROBLEMS[problem]
    return Job(jid, tuple([command] + flags + extra), check,
               {**facts, "problem": problem, **params})


def _dump(problem, method, n, jid=None):
    # the README command leaves --method at its default, ahpetm
    flags = ["--terms", str(n)] if jid == "dump-readme-product" else \
        ["--method", method, "--terms", str(n)]
    return _job(jid or f"dump-{method}-{problem}-n{n}", "dump-symbolic", problem, flags, "dump",
                method=method, terms=n,
                prefactors=PREFACTORS.get(problem, []) if method == "ahpetm" else [])


class _Draw:
    """Evaluation points: canonical for the default seed, drawn otherwise."""

    def __init__(self, seed: int):
        self.canonical = seed == DEFAULT_SEED
        self.rng = random.Random(seed)

    def value(self, canonical: str, lo: float, hi: float, digits: int = 3) -> str:
        if self.canonical:
            return canonical
        return repr(round(self.rng.uniform(lo, hi), digits))

    def times(self, canonical: str, count: int, lo: float, hi: float) -> str:
        """A sorted list of ``count`` distinct times in [lo, hi]."""
        if self.canonical:
            return canonical
        grid = [round(lo + (hi - lo) * i / 200, 4) for i in range(201)]
        return ",".join(repr(v) for v in sorted(self.rng.sample(grid, count)))

    def grid(self, canonical: str, count: int, steps: tuple) -> str:
        """A range 0:stop:step of ``count`` points with a drawn step."""
        if self.canonical:
            return canonical
        step = self.rng.choice(steps)
        return f"0:{round(step * (count - 1), 6)!r}:{step!r}"


def _moments_sum(d: _Draw, compare: bool):
    return _job("moments-sum-exact" if compare else "moments-sum", "moments", "sum",
                ["--terms", "4", "--j", "0,1,2",
                 "--t", d.grid("0:1:0.1", 11, (0.05, 0.075, 0.1, 0.125, 0.15))]
                + (["--compare", "exact"] if compare else []), "moments")


def _paper_tables(d: _Draw) -> list:
    x101 = (0.08, 0.09, 0.1, 0.11, 0.12)
    t21 = (0.05, 0.075, 0.1, 0.125, 0.15)
    return [
        # the six non-oracle README commands
        _job("density-constant", "density", "constant",
             ["--terms", "3", "--t", d.value("2", 0.5, 2.0),
              "--x", d.grid("0:10:0.1", 101, x101), "--compare", "exact"], "density"),
        _job("l1-constant", "error-table", "constant",
             ["--terms", "3:6", "--t", d.times("0.5,1,1.5,2", 4, 0.25, 2.0)], "l1"),
        _job("pointwise-sum", "error-table", "sum",
             ["--terms", "4", "--x", d.value("5", 2.0, 8.0, 2),
              "--t", d.times("0.2:1.6:0.2", 8, 0.1, 1.6)], "pointwise"),
        _job("moments-halfx", "moments", "halfx",
             ["--terms", "3", "--j", "0,1", "--t", d.grid("0:2:0.1", 21, t21)], "moments"),
        _job("bounds-constant-a", "bounds", "constant",
             ["--t0", d.value("0.05", 0.03, 0.3), "--T", "1", "--m", "3"], "bounds"),
        _dump("product", "ahpetm", 2, jid="dump-readme-product"),
        # L1 tables (product kept before gelation at t = 0.5)
        _job("l1-sum", "error-table", "sum",
             ["--terms", "2:4", "--t", d.times("0.5,1,1.5,2", 4, 0.25, 2.0)], "l1"),
        _job("l1-product", "error-table", "product",
             ["--terms", "2:4", "--t", d.times("0.1,0.2,0.3,0.4", 4, 0.05, 0.45)], "l1"),
        _job("l1-breakage", "error-table", "breakage",
             ["--terms", "3:6", "--t", d.times("0.5,1,1.5,2", 4, 0.25, 2.0)], "l1"),
        # pointwise table for the product kernel
        _job("pointwise-product", "error-table", "product",
             ["--terms", "4", "--x", d.value("2", 1.0, 3.0, 2),
              "--t", d.times("0.05:0.45:0.05", 9, 0.025, 0.45)], "pointwise"),
        # moments
        _job("moments-twox", "moments", "twox",
             ["--terms", "3", "--j", "0,1", "--t", d.grid("0:2:0.1", 21, t21)], "moments"),
        _job("moments-coag2d", "moments", "coag2d",
             ["--terms", "3", "--j", "0,0;1,0;0,1",
              "--t", d.grid("0:0.02:0.002", 11, (0.001, 0.0015, 0.002, 0.0025, 0.003)),
              "--compare", "exact"], "moments"),
        # the sum kernel's exact moments are wrong past t ~ 0.6: see known-defects
        _moments_sum(d, compare=False),
        # bounds
        _job("bounds-constant-b", "bounds", "constant",
             ["--t0", d.value("0.25", 0.1, 0.3), "--T", "1", "--m", "3"], "bounds"),
        _job("bounds-breakage", "bounds", "breakage",
             ["--t0", d.value("0.25", 0.1, 0.5), "--lam", "1", "--m", "3"], "bounds"),
        _job("bounds-coag2d", "bounds", "coag2d",
             ["--t0", d.value("0.01", 0.005, 0.05), "--T", "1", "--m", "3"], "bounds"),
        # densities
        _job("density-sum", "density", "sum",
             ["--terms", "4", "--t", d.value("1", 0.25, 2.0),
              "--x", d.grid("0:10:0.1", 101, x101), "--compare", "exact"], "density"),
        _job("density-product", "density", "product",
             ["--terms", "4", "--t", d.value("0.3", 0.05, 0.45),
              "--x", d.grid("0:10:0.1", 101, x101), "--compare", "exact"], "density"),
        _job("density-coag2d", "density", "coag2d",
             ["--terms", "3", "--t", d.value("0.005", 0.001, 0.02, 4),
              "--x", d.grid("0:0.2:0.02", 11, (0.015, 0.02, 0.025)),
              "--y", d.grid("0:0.2:0.02", 11, (0.015, 0.02, 0.025)),
              "--compare", "exact"], "density"),
        # classical dumps
        _dump("sum", "classical", 12),
        _dump("halfx", "classical", 12),
        _dump("coag2d", "classical", 12),
    ]


def _ahpetm_deep() -> list:
    return [
        _dump("constant", "ahpetm", 6),
        _dump("sum", "ahpetm", 5),
        _dump("product", "ahpetm", 6),
        _dump("breakage", "ahpetm", 12),
        _dump("halfx", "ahpetm", 5),
        _dump("twox", "ahpetm", 5),
        _dump("coag2d", "ahpetm", 6),
    ]


def _oracle(problem, cells, dt, fine=True):
    return _job(f"oracle-{problem}-{cells}", "reference-check", problem,
                ["--terms", "4", "--t-end", "0.25", "--cells", str(cells), "--dt", dt],
                "oracle", cells=cells, fine=fine)


def _grid_oracle() -> list:
    return [
        # the README setting on the five 1-D problems criterion 8 covers
        _oracle("constant", 2000, "1e-3"),
        _oracle("sum", 2000, "1e-3"),
        _oracle("product", 2000, "1e-3"),
        _oracle("breakage", 2000, "1e-3"),
        _oracle("halfx", 2000, "1e-3"),
        # criterion 8's coarse grid
        _oracle("constant", 1000, "2e-3", fine=False),
        _oracle("halfx", 1000, "2e-3", fine=False),
        # a larger grid, where the O(n^2) convolution weighs most
        _oracle("constant", 4000, "1e-3"),
    ]


def _known_defects(d: _Draw) -> list:
    # exact.SumKernelSolution.moment cuts its quad domain short, so mu_exact
    # drifts from e^{-t}, 1 and 2 e^{2t}: 4e-3 relative for mu_2 at t = 1
    return [_moments_sum(d, compare=True)]


def make_jobs(workload: str, seed: int) -> list:
    """The job list of ``workload`` for ``seed``; deterministic in both."""
    if workload == "ahpetm-deep":
        jobs = _ahpetm_deep()
    elif workload == "paper-tables":
        jobs = _paper_tables(_Draw(seed))
    elif workload == "grid-oracle":
        jobs = _grid_oracle()
    elif workload == "known-defects":
        jobs = _known_defects(_Draw(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed != DEFAULT_SEED:
        random.Random(f"order-{seed}").shuffle(jobs)
    return jobs
