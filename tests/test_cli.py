"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from pbeseries.cli import main, parse_orders, parse_u0, parse_values
from pbeseries.polyexp import PolyExp1D, PolyExp2D, from_obj
from pbeseries.series import SeriesSolution
from fractions import Fraction as F


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        from pbeseries.problems import CoagKernel, FragSpec, Model, mono_exponential_ic

        problem = Model(
            mono_exponential_ic(4, 1, 2), CoagKernel.CONSTANT, FragSpec(F(2), 1, F(1, 2), 1)
        )
        series = iterate_accelerated(problem, 2)
        rebuilt = [from_obj(c) for c in obj["components"]]
        assert tuple(rebuilt) == series.components


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

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "density.csv"
        code, out, _ = run(capsys, *DENSITY_61, "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("# model = coag")
