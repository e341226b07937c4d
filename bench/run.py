"""Benchmark of the pbeseries CLI: end-to-end metrics or a traced run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paper-tables --seed 0 --seconds 50 --trace 0

Each job is one CLI command run in this process through
``pbeseries.cli.main(argv)`` with stdout and stderr captured, so the whole
path the README documents is timed.  The load is a closed loop: one
process, one job at a time, no extra threads; numpy/BLAS thread pools are
pinned to one thread.  Whole passes over the workload's jobs run while
the next one is expected to end within ``--seconds`` of the start (at
least one pass).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh-interpreter probes, see probe.py), ``run_s`` (median pass time),
``job_p50_s`` (Harrell-Davis median over jobs of each job's median pass) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of spans.py, the traced pass time and its
overhead over the untraced one, and writes the spans of the last traced
pass to ``.bench_out/``.

Every output is checked (checks.py); for the default seed it must also
match the reference captured from the parent commit (capture.py).  The last
stdout line is the JSON result; the line before it carries provenance.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pbeseries"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("job_p50_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Execution:
    seconds: float
    ok: bool          # exit 0, nothing on stderr, no exception
    digest: str
    out_bytes: int
    text: str | None  # kept for the first pass only
    error: str


def run_job(cli, job, keep_text: bool) -> Execution:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(job.argv))
        except Exception as exc:  # a traceback fails the job, not the benchmark
            rc, error = None, repr(exc)
        seconds = time.perf_counter() - start
    text = out.getvalue()
    if rc != 0 or err.getvalue():
        error = error or f"exit {rc}: {err.getvalue().strip()[:200]}"
    data = text.encode()
    return Execution(seconds, not error, hashlib.sha256(data).hexdigest(), len(data),
                     text if keep_text else None, error)


def run_pass(cli, jobs, keep_text: bool, tracer=None) -> list:
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        # each job starts from a collected heap, as in a fresh CLI process,
        # whatever the jobs before it left behind
        gc.collect()
        results.append(run_job(cli, job, keep_text))
    return results


def probe_setup(workload: str, seed: int) -> dict:
    """One fresh interpreter from start until its first job is ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data.pop("ready") - start
    return data


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sources = sorted(PACKAGE.glob("*.py"))
    blob = b"".join(p.read_bytes() for p in sources)
    return {
        "git_sha": _git_sha(),
        "src_sha256": hashlib.sha256(blob).hexdigest(),
        "src_lines": blob.count(b"\n"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _git_sha():
    """HEAD of the checkout, read from .git (a plain checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def harrell_davis_median(values) -> float:
    """The Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, Beta((n+1)/2, (n+1)/2)-weighted around the middle.

    The plain median of a few jobs of very different sizes jumps whenever
    drawn inputs reorder the two jobs in the middle; this one moves smoothly.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    return float(sum(x * (betainc(a, a, (i + 1) / n) - betainc(a, a, i / n))
                     for i, x in enumerate(xs)))


def failures(jobs, passes, workload: str, seed: int) -> tuple:
    """(failed executions, messages): every execution of every pass.

    The first pass's outputs are checked in full; a later execution fails
    if it errs or its output differs in any byte from the first one.
    """
    from bench.checks import CheckError, check_output, compare_reference
    from bench.jobs import DEFAULT_SEED

    reference = None
    if seed == DEFAULT_SEED:
        with gzip.open(REFERENCE, "rt") as fh:
            reference = json.load(fh)[workload]
    bad_first, messages = set(), []
    for i, (job, ex) in enumerate(zip(jobs, passes[0])):
        if not ex.ok:
            continue
        try:
            check_output(job, ex.text)
            if reference is not None:
                compare_reference(job, ex.text, reference[job.id])
        except CheckError as exc:
            bad_first.add(i)
            messages.append(f"{job.id}: {exc}")
    failed = 0
    for results in passes:
        for i, (job, ex) in enumerate(zip(jobs, results)):
            if not ex.ok:
                messages.append(f"{job.id}: {ex.error}")
            elif ex.digest != passes[0][i].digest:
                messages.append(f"{job.id}: output differs between passes")
            elif i not in bad_first:
                continue
            failed += 1
    return failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no pbeseries sources under {PACKAGE.parent}; "
              "run from the root of a pbeseries checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.jobs import WORKLOADS, make_jobs
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    import pbeseries.cli as cli

    from bench.spans import COUNTS, PER_LAYER, Tracer, pass_metrics

    jobs = make_jobs(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    passes, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results = run_pass(cli, jobs, keep_text=not passes)
        passes.append(results)
        plain.append(results)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                results = run_pass(cli, jobs, keep_text=False, tracer=tracer)
            finally:
                tracer.uninstall()
            values = pass_metrics(tracer)
            values["cli.out_bytes"] = sum(ex.out_bytes for ex in results)
            values["trace.run_s"] = sum(ex.seconds for ex in results)
            passes.append(results)
            traced.append(values)
        now = time.perf_counter()
        if now + (now - round_start) - start > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    failed, messages = failures(jobs, passes, args.workload, args.seed)
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted = len(jobs) * len(passes)
    run_times = [sum(ex.seconds for ex in results) for results in plain]

    def med(key):
        return statistics.median(p[key] for p in probes)

    if tracer is None:
        values = {
            "setup_s": med("setup_s"),
            "run_s": statistics.median(run_times),
            # each job's median pass: the fastest of three or four passes
            # spread more between runs on a shared host
            "job_p50_s": harrell_davis_median(
                [statistics.median(results[i].seconds for results in plain)
                 for i in range(len(jobs))]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        values = {name: (traced[0][name] if name in COUNTS
                         else statistics.median(v[name] for v in traced))
                  for name in traced[0]}
        for name in ("setup.import_numpy_s", "setup.import_scipy_s", "setup.import_pbeseries_s"):
            values[name] = med(name)
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(run_times)
        drift = [n for n in COUNTS if any(v[n] != traced[0][n] for v in traced)]
        if drift:
            print(f"warning: counts differ between traced passes: {drift}", file=sys.stderr)
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    info = {
        "provenance": provenance(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "jobs": len(jobs),
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "pass_seconds": run_times,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    job_seconds = {job.id: [results[i].seconds for results in plain]
                   for i, job in enumerate(jobs)}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(
        json.dumps({**info, "job_seconds": job_seconds, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
