"""End-to-end tests of the command-line interface."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from pbeseries import cli
from pbeseries.cli import main, parse_orders, parse_u0, parse_values
from pbeseries.polyexp import PolyExp1D, PolyExp2D, from_obj
from pbeseries.series import SeriesSolution
from fractions import Fraction as F


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COAG = ["--model", "coag", "--kernel", "constant", "--u0", "exp:1"]

DENSITY_61 = [
    "density", "--model", "coag", "--kernel", "constant", "--u0", "exp:1",
    "--terms", "3", "--t", "2", "--x", "0:10:0.5", "--compare", "exact",
]


class TestGrammars:
    def test_u0_forms(self):
        assert parse_u0("exp:1") == PolyExp1D.monomial(1, rate=1)
        assert parse_u0("monoexp:4,1,2") == PolyExp1D.monomial(4, xpow=1, rate=2)
        assert parse_u0("monoexp:1/2,0,3/2") == PolyExp1D.monomial(F(1, 2), rate=F(3, 2))
        assert parse_u0("monoexp2:6250000,1,1,50,50") == PolyExp2D.monomial(
            6250000, xpow=1, ypow=1, xrate=50, yrate=50
        )

    def test_u0_rejects_garbage(self):
        from pbeseries.cli import ConfigError

        for bad in ("exp:", "exp:-1", "monoexp:1,2", "wave:3", "monoexp:1,x,2"):
            with pytest.raises(ConfigError):
                parse_u0(bad)

    def test_values(self):
        assert parse_values("0.5,1,2") == [0.5, 1.0, 2.0]
        assert parse_values("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_values("1/2") == [0.5]

    def test_orders(self):
        assert parse_orders("3:6") == [3, 4, 5, 6]
        assert parse_orders("2,4") == [2, 4]

    def test_ranges_up_to_the_points_cap(self):
        top = cli.MAX_POINTS
        assert len(parse_values(f"1:{top}:1")) == len(parse_orders(f"1:{top}")) == top
        # a float span of 999999.0000000001 still rounds to 10^6 values
        assert len(parse_values("0:299999.7:3/10")) == top
        # past it, or with an inf count, a range is refused, and not re-worded as a bad order list
        for parse, text in [(parse_values, f"0:{top}:1"), (parse_orders, f"0:{top}"),
                            (parse_values, "0:1e300:1e-300"), (parse_orders, f"0:{10**400}")]:
            with pytest.raises(cli.ConfigError, match=f"^range '.*' has more than the {top} "):
                parse(text)


class TestDensity:
    def test_psi0_is_initial_state(self, capsys):
        code, out, _ = run(
            capsys, "density", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "0", "--t", "0.5", "--x", "0,1,2",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "x,t,psi_0"
        for line in rows[1:]:
            x, _, v = (float(p) for p in line.split(","))
            assert abs(v - math.exp(-x)) <= 1e-15

    def test_exact_comparison_columns(self, capsys):
        code, out, _ = run(capsys, *DENSITY_61)
        assert code == 0
        header = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header == "x,t,psi_3,exact,abs_error"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, *DENSITY_61)
        _, out2, _ = run(capsys, *DENSITY_61)
        assert out1 == out2

    def test_json_mirrors_columns(self, capsys):
        code, out, _ = run(capsys, *DENSITY_61, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["columns"] == ["x", "t", "psi_3", "exact", "abs_error"]
        assert len(obj["x"]) == len(obj["abs_error"]) == 21

    def test_2d_needs_y(self, capsys):
        code, _, err = run(
            capsys, "density", "--model", "coag2d",
            "--u0", "monoexp2:6250000,1,1,50,50", "--terms", "1", "--t", "0.4", "--x", "0.04",
        )
        assert code == 2
        assert err.count("\n") == 1

    def test_reference_compare_redirects(self, capsys):
        code, _, err = run(capsys, *DENSITY_61[:-1], "reference")
        assert code == 2
        assert "reference-check" in err


class TestErrorTable:
    def test_pointwise_reproduces_published_row(self, capsys):
        code, out, _ = run(
            capsys, "error-table", "--model", "coag", "--kernel", "sum",
            "--u0", "exp:1", "--terms", "4", "--x", "5", "--t", "0.2,1.0",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,exact,approx,abs_error"
        first = lines[1].split(",")
        assert abs(float(first[3]) - 2.71288e-5) <= 2e-10

    def test_l1_grid(self, capsys):
        code, out, _ = run(
            capsys, "error-table", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "2:3", "--t", "0.5,1",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,t=0.5,t=1"
        assert len(lines) == 3

    def test_l1_grid_needs_terms(self, capsys):
        code, out, err = run(
            capsys, "error-table", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--t", "0.5",
        )
        assert code == 2 and out == ""
        assert err == "error: missing required option --terms\n"

    def test_empty_times_rejected(self, capsys):
        code, _, err = run(
            capsys, "error-table", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "3", "--t", ",",
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestMoments:
    def test_constant_kernel_count(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "3", "--j", "0,1", "--t", "0,1,2",
            "--compare", "exact",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        # mass rows are exactly 1; count rows match the Taylor polynomial
        for t, j, approx, exact in rows:
            if j == "1":
                assert float(approx) == 1.0 and float(exact) == 1.0
            elif float(t) == 1.0:
                assert abs(float(approx) - (1 - 0.5 + 0.25 - 0.125 + 1/24. - 1/96. + 1/576. - 1/8064.)) <= 1e-12

    def test_one_moment_polynomial_per_order(self, capsys, monkeypatch):
        partial_sums, moments_of_sums = [], []
        truncated, moment = SeriesSolution.truncated, PolyExp1D.moment

        def counting_truncated(self, k):
            partial_sums.append(truncated(self, k))
            return partial_sums[-1]

        def counting_moment(self, j=0):
            moments_of_sums.append(any(self is psi for psi in partial_sums))
            return moment(self, j)

        monkeypatch.setattr(SeriesSolution, "truncated", counting_truncated)
        monkeypatch.setattr(PolyExp1D, "moment", counting_moment)
        code, out, _ = run(
            capsys, "moments", "--model", "ccfe", "--kernel", "constant",
            "--frag", "2,1,1/2,1", "--u0", "monoexp:4,1,2", "--terms", "3",
            "--j", "0,1", "--t", "0:2:0.1",
        )
        assert code == 0 and out.count("\n") == 2 + 1 + 21 * 2
        # one partial sum and one moment polynomial per order, not per row
        assert len(partial_sums) == 2
        assert moments_of_sums.count(True) == 2

    @pytest.mark.parametrize("u0, j, cap", [("exp:1", "100000", 100003),
                                            ("exp:1e300", "600", 603)])
    def test_order_past_the_exponent_cap_exits_3(self, capsys, u0, j, cap):
        # the moment of exp:1 at j = 100000 took 1.1 s before a float overflow,
        # and exp:1e300 at j = 600 printed 0
        code, out, err = run(capsys, "moments", "--model", "coag", "--kernel", "constant",
                             "--u0", u0, "--terms", "2", "--j", j, "--t", "1")
        assert (code, out, err) == (3, "", f"error: exponent {cap} exceeds cap 512\n")

    def test_2d_moment_orders(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--model", "coag2d", "--u0", "monoexp2:6250000,1,1,50,50",
            "--terms", "2", "--j", "0,0;1,0", "--t", "0.4",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,jx,jy,mu_approx"
        assert len(lines) == 3


class TestBounds:
    def test_coag_reference_values(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--t0", "0.05", "--T", "1", "--m", "3",
        )
        assert code == 0
        vals = dict(
            l.split(",") for l in out.splitlines() if not l.startswith("#") and "," in l
        )
        assert float(vals["u0_norm"]) == 1.0
        assert abs(float(vals["contraction"]) - 4.886e-3) <= 2e-6
        assert vals["contractive"] == "true"

    def test_frag_quarter(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--model", "frag", "--frag", "2,1,1,1",
            "--u0", "exp:1", "--t0", "0.5", "--lam", "1", "--m", "1",
        )
        assert code == 0
        vals = dict(
            l.split(",") for l in out.splitlines() if not l.startswith("#") and "," in l
        )
        assert float(vals["contraction"]) == 0.25

    def test_not_contractive_reported_in_band(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--t0", "5", "--T", "1",
        )
        assert code == 0
        vals = dict(
            l.split(",") for l in out.splitlines() if not l.startswith("#") and "," in l
        )
        assert vals["contractive"] == "false"
        assert float(vals["bound"]) == math.inf

    def test_2d_exposes_both_constants(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--model", "coag2d", "--u0", "monoexp2:6250000,1,1,50,50",
            "--t0", "0.05", "--T", "1",
        )
        assert code == 0
        vals = dict(
            l.split(",") for l in out.splitlines() if not l.startswith("#") and "," in l
        )
        ratio = float(vals["contraction_statement"]) / float(vals["contraction_derived"])
        assert abs(ratio - 2.0) <= 1e-12

    def test_contraction_overflow_exits_before_the_engine(self, capsys, monkeypatch):
        # the contraction needs only ||u0||; v_1's norm here took 14 s before it
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        code, out, err = run(
            capsys, "bounds", "--model", "ccfe", "--kernel", "constant", "--frag", "2,1,1,1",
            "--u0", "monoexp:1,60,1", "--t0", "0.05", "--T", "1", "--m", "3",
        )
        assert (code, out) == (3, "")
        assert err == "error: a value overflows the float range: math range error\n"

    def test_frag_contraction_overflow_exits_before_the_engine(self, capsys, monkeypatch):
        # k! = 400! is past the float range; v_1's norm here took 3.3 s before it
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        code, out, err = run(
            capsys, "bounds", "--model", "frag", "--frag", "2,1,1,400", "--u0", "exp:1",
            "--t0", "0.25", "--lam", "1", "--m", "3",
        )
        assert (code, out) == (3, "")
        assert err == ("error: a value overflows the float range: "
                       "int too large to convert to float\n")

    BOUNDS_PROBLEMS = {
        "coag": ["--model", "coag", "--kernel", "constant", "--u0", "exp:1", "--T", "1"],
        "ccfe": ["--model", "ccfe", "--kernel", "constant", "--frag", "2,1,1/2,1",
                 "--u0", "monoexp:4,1,2", "--T", "1"],
        "frag": ["--model", "frag", "--frag", "2,1,1,1", "--u0", "exp:1", "--lam", "1"],
        "coag2d": ["--model", "coag2d", "--u0", "monoexp2:6250000,1,1,50,50", "--T", "1"],
    }

    @pytest.mark.parametrize("problem, t0", [
        *((name, "-0.01") for name in BOUNDS_PROBLEMS),
        *((name, "0") for name in BOUNDS_PROBLEMS),
    ], ids=[*BOUNDS_PROBLEMS, *(f"{name}-t0=0" for name in BOUNDS_PROBLEMS)])
    def test_negative_t0_has_one_message(self, capsys, monkeypatch, problem, t0):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        code, out, err = run(capsys, "bounds", *self.BOUNDS_PROBLEMS[problem], f"--t0={t0}",
                             "--m", "3")
        assert (code, out, err) == (2, "", f"error: --t0 must be positive, got {float(t0):g}\n")


def test_density_far_in_the_tail_is_zero(capsys):
    code, out, err = run(capsys, "density", *COAG, "--terms", "2", "--t", "0.5", "--x", "1e308")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "1e+308,0.5,0"


def test_sum_kernel_density_in_the_bessel_underflow_band(capsys):
    # z = 2 x sqrt(1 - e^{-t}) = 4.6e-308 sums I_1 to its zero term; the density is ~e^{-1}
    code, out, err = run(capsys, "density", "--model", "coag", "--kernel", "sum", "--u0", "exp:1",
                         "--terms", "1", "--t", "1", "--x", "2.9e-308", "--compare", "exact")
    assert code == 0 and err == ""
    exact = float(out.splitlines()[-1].split(",")[3])
    assert exact == pytest.approx(math.exp(-1), rel=1e-15, abs=0.0)


def test_density_with_coefficients_past_the_float_range(capsys):
    # v_1 carries 1e300^2 x, past the float range, against e^{-1e300 x} = 0 at x = 50
    code, out, err = run(capsys, "density", "--model", "coag", "--kernel", "constant",
                         "--u0", "monoexp:1e300,0,1e300", "--terms", "1", "--t", "0.5",
                         "--x", "50")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "50,0.5,0"


def test_pointwise_table_far_in_the_tail_is_zero(capsys):
    # the exact x = 1e308 makes psi_2's integer sum pass the float range; e^{-x} = 0
    code, out, err = run(capsys, "error-table", *COAG, "--terms", "2", "--x", "1e308",
                         "--t", "0.5")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "0.5,0,0,0"


def test_density_past_a_horner_overflow(capsys):
    # Horner forms 1e300 x^7, past the float range, before the factor e^{-x}
    for x, expected, rel in [
        ("50", 1.50683581872181076798e290, 1e-15),  # 1e300 x^7 e^{-x}, 30-digit mpmath
        ("100", 3.72007597602083596296e270, 1e-15),
        ("1000", 5.07595889754945676529e-114, 1e-13),  # e^{-1000} underflows
    ]:
        code, out, err = run(capsys, "density", "--model", "coag", "--kernel", "constant",
                             "--u0", "monoexp:1e300,7,1", "--terms", "1", "--t", "0", "--x", x)
        assert (code, err) == (0, "")
        value = float(out.splitlines()[-1].split(",")[-1])
        assert abs(value - expected) <= rel * expected
    # psi_1's x coefficient is past the float range; at x = 0 psi_1(0) rounds once
    code, out, err = run(capsys, "density", "--model", "coag", "--kernel", "constant",
                         "--u0", "monoexp:1e300,0,1e300", "--terms", "1", "--t", "0.5",
                         "--x", "0")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "0,0.5,5.0000000000000003e+299"


EDGE_U0 = [f"monoexp:{c},{p},{a}" for c in ("1", "1e300", "1e308") for p in (0, 7)
           for a in ("1/1000", "1", "1e300")]


@pytest.mark.parametrize("command", [
    ["density", "--t", "0", "--x", "50,1e308"],
    # v_1's coefficients pass the float range from u0's 1e300 on: exit 3
    ["density", "--t", "0.5", "--x", "50,1e308"],
    ["reference-check", "--t-end", "0", "--cells", "16"],
], ids=["density-t0", "density", "reference-check"])
@pytest.mark.parametrize("u0", EDGE_U0)
def test_u0_edge_grid(capsys, command, u0):
    code, out, err = run(capsys, *command, "--model", "coag", "--kernel", "constant",
                         "--u0", u0, "--terms", "1")
    assert code in (0, 3)
    assert err.count("error:") <= 1 and err.count("\n") <= 1
    assert "nan" not in out


class TestReferenceCheck:
    def test_summary_and_zero_horizon(self, capsys):
        code, out, _ = run(
            capsys, "reference-check", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "2", "--t-end", "0", "--cells", "64", "--dt", "0.01",
        )
        assert code == 0
        summary = [l for l in out.splitlines() if l.startswith("# max_deviation")]
        assert len(summary) == 1
        assert float(summary[0].split("=")[1]) <= 1e-12

    @pytest.mark.parametrize("t_end", ["0", "0.01"])
    def test_u0_past_the_float_range_exits_3(self, capsys, t_end):
        # 1e308 x^7 e^{-x/1000} at x = 50 is about 7e319
        code, out, err = run(
            capsys, "reference-check", "--model=coag", "--kernel=constant",
            "--u0=monoexp:1e308,7,1/1000", "--terms=1", f"--t-end={t_end}", "--cells=16",
            "--dt=0.01", "--xmax=50",
        )
        assert (code, out) == (3, "")
        assert err == "error: a value overflows the float range: math range error\n"

    @pytest.mark.parametrize("timing", [["--t-end", "1e-300", "--dt", "1e-320", "--cells", "16"],
                                        ["--t-end", "100", "--cells", "4000"]])
    def test_over_the_grid_budget_exits_3_before_the_engine(self, capsys, monkeypatch, timing):
        monkeypatch.setattr(cli, "iterate", None)  # a call would raise TypeError
        code, out, err = run(capsys, "reference-check", *COAG, "--terms", "1", *timing)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceed the grid budget of 1e+11 steps x nodes^2" in err

    def test_over_the_work_budget_exits_3_before_the_product(self, capsys):
        # the order-4 square has 666 term pairs of ~226,000-bit numerators,
        # 3.4e13 pair-bits against the budget of 2^44 = 1.76e13
        code, out, err = run(capsys, "density", "--model", "coag", "--kernel", "constant",
                             "--u0", "monoexp:1e12000,10,1", "--terms", "4", "--t", "0.01",
                             "--x", "1")
        assert (code, out) == (3, "")
        assert err.startswith("error: a product of 666 term pairs") and err.count("\n") == 1
        assert "passes the work budget of 1.76e+13" in err

    def test_2d_rejected(self, capsys):
        code, _, err = run(
            capsys, "reference-check", "--model", "coag2d",
            "--u0", "monoexp2:6250000,1,1,50,50", "--terms", "1", "--t-end", "0.1",
        )
        assert code == 2
        assert err.count("\n") == 1


class TestDumpSymbolic:
    def test_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "dump-symbolic", "--model", "ccfe", "--kernel", "constant",
            "--frag", "2,1,1/2,1", "--u0", "monoexp:4,1,2", "--terms", "2",
        )
        assert code == 0
        obj = json.loads(out)
        from pbeseries.series import iterate_accelerated
        from pbeseries.problems import CoagKernel, FragSpec, Model

        problem = Model(PolyExp1D.monomial(4, xpow=1, rate=2), CoagKernel.CONSTANT,
                        FragSpec(F(2), 1, F(1, 2), 1))
        series = iterate_accelerated(problem, 2)
        rebuilt = [from_obj(c) for c in obj["components"]]
        assert tuple(rebuilt) == series.components

    def test_coefficient_past_the_int_text_limit_is_exit_3(self, capsys):
        code, out, err = run(
            capsys, "dump-symbolic", "--model", "coag", "--kernel", "constant",
            "--u0", "monoexp:1e300,0,1", "--method", "classical", "--terms", "16",
        )
        assert (code, out) == (3, "")
        assert err == (f"error: a coefficient exceeds Python's limit of "
                       f"{sys.get_int_max_str_digits()} digits for integer text; "
                       "use fewer --terms\n")


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert err.count("\n") == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "density", "--model", "coag", "--kernel", "constant")
        assert code == 2
        assert err.startswith("error:")

    def test_engine_error_is_exit_3(self, capsys):
        # a very high initial degree overflows the exponent cap at the
        # first order
        code, _, err = run(
            capsys, "density", "--model", "coag", "--kernel", "constant",
            "--u0", "monoexp:1,500,1", "--terms", "1", "--t", "0.5", "--x", "1",
        )
        assert code == 3
        assert "exceeds cap" in err and err.count("\n") == 1

    def test_exact_series_past_its_cap_is_exit_3(self, capsys):
        # at x = 500, t = 1 the Bessel argument 2 x sqrt(1 - e^-1) is 795,
        # where I_1 is past the float range
        code, out, err = run(
            capsys, "density", "--model", "coag", "--kernel", "sum", "--u0", "exp:1",
            "--terms", "1", "--t", "1", "--x", "1,500", "--compare", "exact",
        )
        assert code == 3 and out == ""
        assert err == "error: Bessel series did not converge at z=795.0600976206501\n"

    def test_product_moments_at_gelation_are_exit_3(self, capsys):
        code, out, err = run(
            capsys, "moments", "--model", "coag", "--kernel", "product", "--u0", "exp:1",
            "--terms", "4", "--j", "0,1,2", "--t", "0.4,0.5", "--compare", "exact",
        )
        assert code == 3 and out == ""
        assert err.startswith("error: product-kernel moment series") and err.count("\n") == 1

    @pytest.mark.parametrize("kernel, terms", [
        pytest.param("constant", 12, id="constant"),
        pytest.param("product", 12, id="product"),
        pytest.param("product", 8, id="product-x-degree"),
        pytest.param("sum", 9, id="sum-x-degree"),
    ])
    def test_ahpetm_degree_overflow_is_exit_3_before_any_convolution(
        self, capsys, monkeypatch, kernel, terms
    ):
        def refuse(self, other):
            raise AssertionError("convolve ran before the degree check")

        monkeypatch.setattr(PolyExp1D, "convolve", refuse)
        code, out, err = run(
            capsys, "density", "--model", "coag", "--kernel", kernel,
            "--u0", "exp:1", "--terms", str(terms), "--t", "0.5", "--x", "1",
        )
        assert code == 3 and out == ""
        assert "exponent cap 512" in err and err.count("\n") == 1

    @pytest.mark.parametrize("problem", [
        ["--model", "coag", "--kernel", "constant"],
        ["--model", "coag", "--kernel", "sum"],
        ["--model", "coag", "--kernel", "product"],
        ["--model", "frag", "--frag", "2,1,1,1"],
    ], ids=["constant", "sum", "product", "breakage"])
    @pytest.mark.parametrize("x", ["1e-120", "1e-300", "5e-324"])
    @pytest.mark.parametrize("t", ["0.01", "0.5"])
    def test_exact_solution_at_a_tiny_size_is_its_value_at_zero(self, capsys, problem, x, t):
        # every closed form tends to its x = 0 value, and at these x each
        # e^{-cx} envelope is 1.0 in floats
        def exact_column(xs):
            code, out, err = run(capsys, "density", *problem, "--u0", "exp:1", "--terms", "1",
                                 "--t", t, "--x", xs, "--compare", "exact")
            assert code == 0 and err == ""
            return [line.split(",")[3] for line in out.splitlines()[-2:]]

        at_zero = exact_column("0")[-1]
        assert exact_column(f"0,{x}") == [at_zero, at_zero]

    @pytest.mark.parametrize("argv, t", [
        (["density", *COAG, "--x", "1", "--compare", "exact"], "-1"),
        (["density", "--model", "coag", "--kernel", "sum", "--u0", "exp:1", "--x", "1",
          "--compare", "exact"], "0.5,-1"),
        (["density", "--model", "coag", "--kernel", "product", "--u0", "exp:1", "--x", "1"],
         "-1:1:0.5"),
        (["error-table", "--model", "coag", "--kernel", "product", "--u0", "exp:1",
          "--terms", "1:2"], "-1"),
        (["error-table", "--model", "coag", "--kernel", "sum", "--u0", "exp:1",
          "--terms", "2", "--x", "1"], "-2"),
        (["moments", *COAG, "--j", "0"], "-1/2"),
    ], ids=["density-constant", "density-sum-list", "density-product-range",
            "error-table-l1-product", "error-table-pointwise-sum", "moments"])
    def test_negative_time_is_exit_2_before_the_engine(self, capsys, monkeypatch, argv, t):
        # --t=... because argparse reads "-1/2" or "-1:1:0.5" after --t as a flag
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        code, out, err = run(capsys, *argv, f"--t={t}")
        assert code == 2 and out == ""
        assert err == f"error: times must be nonnegative, got {t!r}\n"

    @pytest.mark.parametrize("argv, key, value", [
        (["density", "--model", "coag", "--kernel", "product", "--u0", "exp:1", "--terms", "1",
          "--t", "0.5", "--compare", "exact"], "x", "-1"),
        (["density", *COAG, "--t", "1"], "x", "0.5,-1"),
        (["density", *COAG, "--t", "1"], "x", "-1:1:0.5"),
        (["error-table", "--model", "coag", "--kernel", "product", "--u0", "exp:1",
          "--terms", "2", "--t", "0.2"], "x", "-1"),
        (["density", "--model", "coag2d", "--u0", "monoexp2:1,0,0,1,1", "--t", "1",
          "--x", "1"], "y", "0.5,-1/2"),
    ], ids=["density-product", "density-list", "density-range", "error-table-pointwise",
            "density-coag2d-y"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_size_is_exit_2_before_the_engine(self, capsys, monkeypatch, tmp_path,
                                                       argv, key, value, via_config):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            setting = ["--config", str(cfg)]
        else:
            # --x=... because argparse reads "-1" after --x as a flag
            setting = [f"--{key}={value}"]
        code, out, err = run(capsys, *argv, *setting)
        assert code == 2 and out == ""
        assert err == f"error: sizes must be nonnegative, got {value!r}\n"

    def test_io_error_is_exit_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, *DENSITY_61, "--out", str(tmp_path / "no" / "such" / "dir" / "f.csv")
        )
        assert code == 4
        assert err.count("\n") == 1

    def test_bad_method_in_config_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = bogus\n")
        code, out, err = run(
            capsys, "error-table", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "2:3", "--t", "0.5", "--config", str(cfg),
        )
        assert code == 2 and out == ""
        assert "bogus" in err and err.count("\n") == 1

    def test_negative_order_range_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "error-table", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms=-1:2", "--t", "0.5",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_moment_order_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "moments", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "2", "--j=-1", "--t", "0.5",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command, extra", [
        ("density", ["--x", "1"]),
        ("moments", ["--j", "0"]),
    ])
    @pytest.mark.parametrize("value", ["reference", "both"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_compare_takes_exact_only(self, capsys, tmp_path, command, extra, value, via_config):
        compare = ["--compare", value]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"compare = {value}\n")
            compare = ["--config", str(cfg)]
        code, out, err = run(
            capsys, command, "--model", "coag", "--kernel", "constant",
            "--u0", "exp:1", "--terms", "1", "--t", "1", *extra, *compare,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {command} supports --compare exact only")
        assert "reference-check" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--model", "coag", "--kernel", "constant"], "--model coag takes an exp:"),
        (["--model", "frag", "--frag", "2,1,1,1"], "constant-kernel coagulation only"),
        (["--model", "ccfe", "--kernel", "constant", "--frag", "2,1,1,1"],
         "constant-kernel coagulation only"),
        (["--model", "coag2d", "--kernel", "product"], "constant-kernel coagulation only"),
        (["--model", "coag2d", "--u0", "exp:1"], "--model coag2d takes a monoexp2:"),
    ])
    def test_model_must_match_u0_dimension(self, capsys, flags, message):
        u0 = [] if "--u0" in flags else ["--u0", "monoexp2:1,1,1,1,1"]
        code, out, err = run(
            capsys, "density", *flags, *u0, "--terms", "1", "--t", "1", "--x", "1", "--y", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("flags, unused", [
        (["--model", "coag", "--kernel", "constant", "--u0", "exp:1"], "frag = 2,1,1,1"),
        (["--model", "coag2d", "--u0", "monoexp2:1,1,1,1,1"], "frag = 2,1,1,1"),
        (["--model", "frag", "--frag", "2,1,1,1", "--u0", "exp:1"], "kernel = sum"),
    ], ids=["coag", "coag2d", "frag"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_flag_the_model_does_not_take_is_exit_2(self, capsys, tmp_path, flags,
                                                    unused, via_config):
        key, _, value = unused.partition(" = ")
        extra = [f"--{key}", value]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(unused + "\n")
            extra = ["--config", str(cfg)]
        code, out, err = run(
            capsys, "density", *flags, *extra, "--terms", "1", "--t", "1", "--x", "1",
            "--y", "1",
        )
        assert code == 2 and out == ""
        assert err == f"error: --model {flags[1]} takes no --{key}\n"

    def test_coag2d_accepts_the_constant_kernel(self, capsys):
        code, out, err = run(
            capsys, "density", "--model", "coag2d", "--kernel", "constant",
            "--u0", "monoexp2:1,1,1,1,1", "--terms", "1", "--t", "1", "--x", "1", "--y", "1",
        )
        assert code == 0 and err == "" and "psi_1" in out

    @pytest.mark.parametrize("command, extra", [
        ("error-table", ["--terms", "1:2"]),
        ("moments", ["--terms", "1", "--j", "0"]),
    ])
    def test_unknown_format_in_config_is_exit_2(self, capsys, tmp_path, command, extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run(
            capsys, command, "--model", "coag", "--kernel", "constant", "--u0", "exp:1",
            "--t", "0.5", *extra, "--config", str(cfg),
        )
        assert code == 2 and out == ""
        assert err == "error: unknown format 'xml'\n"

    def test_unknown_exact_solution(self, capsys):
        code, _, err = run(
            capsys, "density", "--model", "coag", "--kernel", "constant",
            "--u0", "exp:2", "--terms", "1", "--t", "1", "--x", "1",
            "--compare", "exact",
        )
        assert code == 2
        assert "exact solution" in err

    @pytest.mark.parametrize("argv", [
        "moments --model coag --kernel sum --u0 exp:1 --terms 2 --j 0 --t 1e200",
        "density --model coag --kernel sum --u0 exp:1 --terms 2 --t 1e200 --x 1",
        "density --model coag2d --u0 monoexp2:6250000,1,1,50,50 --terms 2 --t 1e200 "
        "--x 0.1 --y 0.1",
        "error-table --model coag --kernel constant --u0 exp:1 --terms 3 --t 1e200",
        "error-table --model coag --kernel sum --u0 exp:1 --terms 3 --x 1 --t 1e200",
        "bounds --model coag --kernel constant --u0 exp:1 --t0 1e200 --T 1e200 --m 3",
    ], ids=["moments", "density", "density-coag2d", "error-table-l1",
            "error-table-pointwise", "bounds"])
    def test_float_overflow_is_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 3 and out == ""
        assert err.startswith("error: a value overflows the float range: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["density", "--help"]])
    def test_help_returns_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: pbeseries")


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = coag\nkernel = constant\nu0 = exp:1\nterms = 1\n"
            "t = 1\nx = 0,1\n# comment\n"
        )
        code, out, _ = run(capsys, "density", "--config", str(cfg))
        assert code == 0
        assert "psi_1" in out
        code, out, _ = run(capsys, "density", "--config", str(cfg), "--terms", "2")
        assert code == 0
        assert "psi_2" in out

    def test_config_with_a_utf8_bom_reads_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfterms = 1\n")
        _, expected, _ = run(capsys, "dump-symbolic", *COAG, "--terms", "1")
        assert run(capsys, "dump-symbolic", *COAG, "--config", str(cfg)) == (0, expected, "")

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "density.csv"
        code, out, _ = run(capsys, *DENSITY_61, "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("# model = coag")


class TestSettingsPath:
    """Each subcommand takes only its own flags and checks them all before the engine."""

    @pytest.mark.parametrize("command, flags, foreign", [
        ("bounds", ["--t0", "0.05", "--T", "1"], ["--compare", "exact"]),
        ("reference-check", ["--t-end", "0", "--cells", "64"], ["--x", "1"]),
        ("dump-symbolic", ["--terms", "1"], ["--t", "1"]),
        ("dump-symbolic", ["--terms", "1"], ["--format", "csv"]),
        ("error-table", ["--terms", "2:3", "--t", "0.5"], ["--compare", "exact"]),
        ("moments", ["--terms", "1", "--j", "0", "--t", "1"], ["--x", "1"]),
    ])
    def test_flag_the_subcommand_does_not_read_is_exit_2(self, capsys, monkeypatch,
                                                         command, flags, foreign):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        code, out, err = run(capsys, command, *COAG, *flags, *foreign)
        assert code == 2 and out == ""
        assert err.startswith("error: unrecognized arguments:") and err.count("\n") == 1
        assert foreign[0] in err

    def test_another_subcommands_flag_is_foreign_and_help_lists_every_subcommand(
            self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        # --t belongs to density, not to the dispatched bounds
        code, out, err = run(capsys, "bounds", *COAG, "--t0", "1", "--t", "1")
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --t 1\n")
        # the program help lists every subcommand, also ahead of a subcommand name
        for argv in (["--help"], ["--help", "bounds"], ["-h", "density", "--t", "1"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "") and out.startswith("usage: pbeseries")
            for name, (_, text, _) in cli._COMMANDS.items():
                assert name in out and text in out

    def test_one_parser_per_process(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        cli.build_parser.cache_clear()
        assert run(capsys, "bounds", *COAG, "--t0", "1", "--m", "x")[0] == 2
        code, out, err = run(capsys, "density", "-h")
        assert (code, err) == (0, "") and out.startswith("usage: pbeseries density")
        assert "--t0" not in out  # a subcommand's help shows its own flags only
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("command, flags, config", [
        ("density", ["--terms", "7", "--t", "bogus", "--x", "1"], ""),
        ("moments", ["--terms", "7", "--j", "x", "--t", "1"], ""),
        ("bounds", ["--t0", "0.05", "--m", "x"], ""),
        ("reference-check", ["--terms", "7", "--t-end", "0.1", "--cells", "4"], ""),
        ("density", ["--terms", "7", "--t", "1", "--x", "1"], "format = xml"),
        ("bounds", ["--t0", "0.05"], "format = xml"),
        ("reference-check", ["--terms", "7", "--t-end", "0.1"], "format = xml"),
    ])
    def test_bad_value_is_exit_2_before_the_engine(self, capsys, monkeypatch, tmp_path,
                                                   command, flags, config):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        extra = []
        if config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config + "\n")
            extra = ["--config", str(cfg)]
        code, out, err = run(capsys, command, *COAG, *flags, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unrecognized arguments" not in err  # the bad value itself was read

    def test_config_typo_is_exit_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tems = 5\n")
        code, out, err = run(capsys, "density", *COAG, "--t", "1", "--x", "1",
                             "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: unknown config key 'tems'\n"

    def test_config_keys_of_other_subcommands_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("terms = 1\nt = 1\nx = 1\nj = 0\nt0 = 0.05\ncells = 64\ncompare = exact\n")
        _, expected, _ = run(capsys, "density", *COAG, "--terms", "1", "--t", "1", "--x", "1",
                             "--compare", "exact")
        code, out, err = run(capsys, "density", *COAG, "--config", str(cfg))
        assert code == 0 and err == "" and out == expected
        code, out, err = run(capsys, "dump-symbolic", *COAG, "--config", str(cfg))
        assert code == 0 and err == "" and json.loads(out)["terms"] == 1

    @pytest.mark.parametrize("command, flags, unused", [
        ("density", [*COAG, "--t", "1", "--x", "1"], ["--y", "bogus"]),
        ("bounds", [*COAG, "--t0", "0.05"], ["--lam", "bogus"]),
        ("bounds", ["--model", "ccfe", "--kernel", "constant", "--frag", "2,1,1,1",
                    "--u0", "exp:1", "--t0", "0.05"], ["--lam", "1"]),
        ("bounds", ["--model", "frag", "--frag", "2,1,1,1", "--u0", "exp:1",
                    "--t0", "0.05", "--lam", "1"], ["--T", "bogus"]),
    ], ids=["density-y-1d", "bounds-lam-coag", "bounds-lam-ccfe", "bounds-T-frag"])
    def test_setting_the_model_does_not_use_is_exit_2(self, capsys, monkeypatch,
                                                       command, flags, unused):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        code, out, err = run(capsys, command, *flags, *unused)
        assert code == 2 and out == ""
        assert err == f"error: --model {flags[1]} takes no {unused[0]}\n"

    # every setting each model does not use, written out here as the reference
    # for cli._UNUSED; each with a subcommand that takes it
    @pytest.mark.parametrize("model, key", [
        ("coag", "frag"), ("coag", "y"), ("coag", "lam"), ("ccfe", "y"), ("ccfe", "lam"),
        ("frag", "kernel"), ("frag", "y"), ("frag", "T"), ("coag2d", "frag"), ("coag2d", "lam"),
    ])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_every_setting_a_model_does_not_use_is_exit_2(self, capsys, monkeypatch, tmp_path,
                                                          model, key, via_config):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        problem = {
            "coag": ["--kernel", "constant", "--u0", "exp:1"],
            "ccfe": ["--kernel", "constant", "--frag", "2,1,1,1", "--u0", "exp:1"],
            "frag": ["--frag", "2,1,1,1", "--u0", "exp:1"],
            "coag2d": ["--u0", "monoexp2:1,1,1,1,1"],
        }[model]
        if key == "lam":
            command, rest = "bounds", ["--t0", "0.05"]
        elif key == "T":
            command, rest = "bounds", ["--t0", "0.05", "--lam", "1"]
        else:
            command, rest = "density", ["--terms", "1", "--t", "1", "--x", "1"]
            if model == "coag2d":
                rest += ["--y", "1"]
        value = {"frag": "2,1,1,1", "kernel": "sum"}.get(key, "1")
        extra = [f"--{key}", value]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            extra = ["--config", str(cfg)]
        code, out, err = run(capsys, command, "--model", model, *problem, *rest, *extra)
        assert (code, out, err) == (2, "", f"error: --model {model} takes no --{key}\n")

    @pytest.mark.parametrize("argv, key", [
        (["bounds", "--model", "frag", "--frag", "2,1,1,1", "--u0", "exp:1",
          "--t0", "0", "--lam", "1", "--T", "1"], "T"),
        (["density", *COAG, "--terms", "1", "--x", "1", "--y", "1"], "y"),
    ], ids=["bounds-t0-0", "density-no-t"])
    def test_unused_setting_is_reported_before_the_subcommands_own(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: --model {argv[2]} takes no --{key}\n")

    @pytest.mark.parametrize("path", ["missing/f.csv", "file.txt/f.csv", "."])
    def test_unwritable_out_is_exit_4_before_the_engine(self, capsys, monkeypatch, tmp_path,
                                                        path):
        monkeypatch.setattr(cli, "iterate", _refuse_iterate)
        (tmp_path / "file.txt").write_text("")
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, "density", *COAG, "--terms", "7", "--t", "1",
                             "--x", "1", "--out", str(tmp_path / path))
        assert code == 4 and out == ""
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before


def _refuse_iterate(*args, **kwargs):
    raise AssertionError("the engine ran before every setting was checked")


def _fresh_python(*args: str, check=True, env=None, **run_args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter, since this one has long imported numpy and scipy."""
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})}, check=check,
                          **run_args)


def _two_gb_address_space():
    # a range or table built before its check then fails fast instead of growing
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


@pytest.mark.parametrize("argv", [
    "density --model coag --kernel constant --u0 exp:1 --terms 1 --t 0 --x 0:1e9:1e-3",
    "moments --model coag --kernel constant --u0 exp:1 --terms 1 --j 0,1 --t 0:1e9:1e-3",
    "error-table --model coag --kernel constant --u0 exp:1 --terms 3:1000000000 --t 1",
    "density --model coag2d --u0 monoexp2:1,1,1,1,1 --terms 1 --t 0.1 --x 0:1:1e-4 "
    "--y 0:1:1e-4",
    "density --model coag --kernel constant --u0 exp:1 --terms 1 --t 0 --x 0:1e300:1e-300",
], ids=["density-range", "moments-range", "error-table-orders", "density-coag2d-table",
        "density-inf-count"])
def test_points_past_the_cap_are_exit_2_before_they_are_built(argv):
    # 1e12 values, 1e9 orders, 10^8 (x, y) points and an inf count
    # one BLAS thread, so that the limit bounds the values built and not the
    # buffers numpy reserves per core when it is imported
    proc = _fresh_python("-m", "pbeseries.cli", *argv.split(), check=False, timeout=30,
                         env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
                         preexec_fn=_two_gb_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(f" {cli.MAX_POINTS} points a range or table may have\n")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_import_leaves_scipy_unloaded():
    code = "import sys, pbeseries.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    assert _fresh_python("-c", code).stdout == "[]\n"


def test_import_leaves_numpy_unloaded():
    code = "import sys, pbeseries; print(sorted(m for m in sys.modules if 'numpy' in m))"
    assert _fresh_python("-c", code).stdout == "[]\n"
    imported = _fresh_python("-X", "importtime", "-c", "import pbeseries.polyexp").stderr
    assert "pbeseries.polyexp" in imported and "numpy" not in imported
