"""Tests of the benchmark itself: workloads, span arithmetic, metric names,
failure accounting and count repeatability.  Run with ``python -m pytest
bench/tests`` from the root of a checkout."""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pbeseries.cli as cli  # noqa: E402
from bench import jobs as jobs_mod  # noqa: E402
from bench import run  # noqa: E402
from bench.jobs import WORKLOADS, make_jobs  # noqa: E402
from bench.spans import PER_LAYER, Tracer, pass_metrics, span_totals  # noqa: E402

README_COMMANDS = [
    "density --model coag --kernel constant --u0 exp:1 --terms 3 --t 2 --x 0:10:0.1 --compare exact",
    "error-table --model coag --kernel constant --u0 exp:1 --terms 3:6 --t 0.5,1,1.5,2",
    "error-table --model coag --kernel sum --u0 exp:1 --terms 4 --x 5 --t 0.2:1.6:0.2",
    "moments --model ccfe --kernel constant --frag 2,1,1/2,1 --u0 monoexp:4,1,2 --terms 3 "
    "--j 0,1 --t 0:2:0.1",
    "bounds --model coag --kernel constant --u0 exp:1 --t0 0.05 --T 1 --m 3",
    "reference-check --model coag --kernel constant --u0 exp:1 --terms 4 --t-end 0.25 "
    "--cells 2000 --dt 1e-3",
    "dump-symbolic --model coag --kernel product --u0 exp:1 --terms 2",
]


def _small_jobs():
    dump = jobs_mod._dump("constant", "ahpetm", 3)
    oracle = jobs_mod._oracle("constant", 400, "5e-3", fine=False)
    bounds = next(j for j in make_jobs("paper-tables", 0) if j.id == "bounds-coag2d")
    l1 = next(j for j in make_jobs("paper-tables", 0) if j.id == "l1-breakage")
    return [dump, oracle, bounds, l1]


def _execute(job_list):
    return [run.run_job(cli, job, keep_text=True) for job in job_list]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_deterministic_for_a_seed(workload):
    assert make_jobs(workload, 11) == make_jobs(workload, 11)
    assert sorted(j.id for j in make_jobs(workload, 11)) == \
        sorted(j.id for j in make_jobs(workload, 0))


def test_default_seed_reproduces_the_readme_commands():
    argvs = {" ".join(j.argv) for w in WORKLOADS for j in make_jobs(w, 0)}
    for command in README_COMMANDS:
        assert command in argvs


def test_other_seeds_draw_other_points():
    assert [j.argv for j in make_jobs("paper-tables", 1)] != \
        [j.argv for j in make_jobs("paper-tables", 2)]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("c", 6.0, 7.0, 3, 0),   # re-entrant call: not counted twice in s
    ]
    totals = span_totals(spans)
    assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert totals["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert totals["b"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert totals["c"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_harrell_davis_median():
    assert run.harrell_davis_median([4.0, 1.0, 3.0, 2.0, 5.0]) == pytest.approx(3.0)
    assert run.harrell_davis_median([0.5] * 8) == pytest.approx(0.5)
    assert 4 < run.harrell_davis_median([1, 2, 3, 4, 8, 9, 10, 20]) < 8


def _emitted(argv, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(jobs_mod, "make_jobs", lambda workload, seed: _small_jobs())
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_emitted_metric_names_match_benchmark_json(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ["--workload", "grid-oracle", "--seed", "5", "--seconds", "0"]
    plain = _emitted(base + ["--trace", "0"], monkeypatch)
    traced = _emitted(base + ["--trace", "1"], monkeypatch)
    assert plain["correct"] and traced["correct"]
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for section, result in (("end_to_end", plain), ("per_layer", traced)):
        for m in spec[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_corrupted_output_is_counted_as_failed():
    job_list = _small_jobs()
    first = _execute(job_list)
    second = _execute(job_list)
    assert run.failures(job_list, [first, second], "grid-oracle", 5)[0] == 0

    # one coefficient of v_1 doubled: mass is no longer conserved
    text = first[0].text
    obj = json.loads(text)
    mono = obj["components"][1]["terms"][0]["monomials"][0]
    mono["coeff"] = str(2 * Fraction(mono["coeff"]))
    first[0].text = json.dumps(obj, indent=1) + "\n"
    failed, messages = run.failures(job_list, [first, second], "grid-oracle", 5)
    # the second pass repeated the first pass's output, so both count
    assert failed == 2
    assert any("carries mass" in m for m in messages)

    # an execution that wrote to stderr or exited non-zero also fails
    first[0].text = text
    second[1].ok = False
    assert run.failures(job_list, [first, second], "grid-oracle", 5)[0] == 1


def test_counts_repeat_and_every_binding_is_wrapped():
    import pbeseries
    from pbeseries import problems, series

    originals = (cli.iterate, series.rhs, problems.rhs, pbeseries.rhs)
    job_list = _small_jobs()
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            assert cli.iterate.__wrapped__ is originals[0]
            assert series.rhs is problems.rhs is pbeseries.rhs
            assert series.rhs.__wrapped__ is originals[1]
            run.run_pass(cli, job_list, keep_text=False, tracer=tracer)
        finally:
            tracer.uninstall()
        values = pass_metrics(tracer)
        counts.append({n: values[n] for n, u in PER_LAYER
                       if u == "count" and n in values})
    assert (cli.iterate, series.rhs, problems.rhs, pbeseries.rhs) == originals
    assert counts[0] == counts[1]
    assert counts[0]["problems.rhs.calls"] > 0
    assert counts[0]["refsolver.rk4_steps"] == 50
    assert counts[0]["series.iterate.calls"] == len(job_list)


@pytest.mark.xfail(strict=True, reason="exact.SumKernelSolution.moment cuts its quad domain "
                   "short; once this passes, fold known-defects back into paper-tables")
def test_known_defects_run_clean():
    job_list = make_jobs("known-defects", 0)
    assert run.failures(job_list, [_execute(job_list)], "known-defects", 5)[0] == 0
