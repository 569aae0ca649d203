import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcx

import psifrac
from psifrac import (
    FracParams,
    SampledFunction,
    TransformedGrid,
    closed_forms,
    kernel_from_id,
    psi_frac_integral,
    psi_hilfer_derivative,
    psi_integral,
    psi_integral_order1,
    psi_rl_derivative,
)
from psifrac._csv import csv_text
from psifrac.cli import _fmt, build_parser, main
from psifrac.funcs import resolve_spatial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_ml_prints_value_and_terms(self, capsys):
        code, out, _ = run_cli(capsys, "ml", "--alpha", "1", "--beta", "1", "--z", "1")
        assert code == 0
        assert "value = 2.7182818284590455" in out
        assert out.strip().splitlines()[1].startswith("terms = ")

    @pytest.mark.parametrize(
        "alpha,z,terms", [("0.5", "-10", 21), ("0.5", "-1000", 16), ("1", "-10", 1)]
    )
    def test_ml_negative_argument(self, capsys, alpha, z, terms):
        # E_{1/2}(-10) once printed a "cancelled" error
        code, out, err = run_cli(capsys, "ml", "--alpha", alpha, f"--z={z}")
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        x = -float(z)
        ref = erfcx(x) if alpha == "0.5" else math.exp(-x)
        assert abs(float(lines[0].removeprefix("value = ")) - ref) <= 1e-12 * ref
        assert lines[1] == f"terms = {terms}"

    def test_ml_large_beta_sums_the_series(self, capsys):
        # past beta = 4 the contour loses digits; E_{1/2,10}(-5) is summed,
        # 149 terms, within 1.1e-11 of a 60-digit sum
        code, out, err = run_cli(capsys, "ml", "--alpha", "0.5", "--beta", "10", "--z=-5")
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        assert abs(float(lines[0].removeprefix("value = ")) - 1.0490808800261896e-06) <= 1e-10 * 1.05e-6
        assert lines[1] == "terms = 149"

    def test_bounds_prints_three_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--mu", "0.5", "--nu", "0.5",
            "--kernel", "identity", "--a", "0", "--b", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("s = ") and lines[1].startswith("K = ")
        assert lines[2] == "A = 1.3519564801345694"

    def test_kernel_validation_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--kernel", "sqrt_shift:1", "--a", "0", "--b", "3",
            "--samples", "200",
        )
        assert code == 0
        assert out.startswith("check,count,max_error")

    def test_oracle_single_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--which", "power-psifrac", "--delta", "1.5",
            "--mu", "0.5", "--nu", "0.5", "--a", "0", "--x", "1",
            "--kernel", "identity",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.6759782400672847, rel=1e-15)

    def test_op_emits_header_and_17_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "op", "--kind", "rl-deriv", "--mu", "0.5", "--kernel", "identity",
            "--a", "0", "--b", "1", "--n", "64", "--f", "one",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 66
        # value at x = 1 is 1/Gamma(0.5) rendered with 17 significant digits
        assert lines[-1].split(",")[1] == "0.56418958354775628"

    @pytest.mark.parametrize("kind", ["integral", "integral1", "rl-deriv", "hilfer", "psi-frac"])
    def test_op_kind_matches_api(self, capsys, kind):
        code, out, _ = run_cli(
            capsys, "op", "--kind", kind, "--mu", "0.3", "--nu", "0.6",
            "--kernel", "sqrt_shift:1", "--a", "0", "--b", "2", "--n", "64",
            "--f", "ml:0.5",
        )
        assert code == 0
        kernel = kernel_from_id("sqrt_shift:1", (0.0, 2.0))
        grid = TransformedGrid.build(kernel, 0.0, 2.0, 64)
        f = SampledFunction.from_callable(grid, resolve_spatial("ml:0.5", kernel, 0.0))
        ref = {
            "integral": lambda: psi_integral(f, 0.3),
            "integral1": lambda: psi_integral_order1(f),
            "rl-deriv": lambda: psi_rl_derivative(f, 0.3),
            "hilfer": lambda: psi_hilfer_derivative(f, FracParams(0.3, 0.6)),
            "psi-frac": lambda: psi_frac_integral(f, FracParams(0.3, 0.6)),
        }[kind]()
        rows = [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(grid.x_nodes, ref.values)]
        assert out.splitlines() == ["x,value"] + rows

    def test_op_out_file(self, tmp_path, capsys):
        path = tmp_path / "op.csv"
        argv = ("op", "--kind", "integral", "--n", "32", "--f", "sin")
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        _, ref, _ = run_cli(capsys, *argv)
        assert path.read_text(encoding="utf-8") == ref

    @pytest.mark.parametrize(
        "which", ["power-int", "power-hilfer", "power-psifrac", "ml-eigen", "ml-psifrac"]
    )
    def test_oracle_matches_closed_form(self, capsys, which):
        code, out, _ = run_cli(
            capsys, "oracle", "--which", which, "--delta", "2.5", "--mu", "0.4",
            "--nu", "0.6", "--lam", "0.7", "--a", "0", "--x", "1.5",
            "--kernel", "sqrt_shift:1",
        )
        assert code == 0
        kernel = kernel_from_id("sqrt_shift:1", (0.0, 1.5 + 1e-9))
        p = FracParams(0.4, 0.6)
        spec = closed_forms.PowerFunctionSpec(2.5, kernel, 0.0)
        value = {
            "power-int": lambda: closed_forms.power_integral(spec, 0.4, 1.5),
            "power-hilfer": lambda: closed_forms.power_hilfer_derivative(spec, p, 1.5),
            "power-psifrac": lambda: closed_forms.power_psi_frac_integral(spec, p, 1.5),
            "ml-eigen": lambda: closed_forms.ml_hilfer_eigen(0.7, p, kernel, 0.0, 1.5),
            "ml-psifrac": lambda: closed_forms.ml_psi_frac_integral(p, kernel, 0.0, 1.5),
        }[which]()
        assert out == f"{float(value):.17g}\n"

    def test_probe_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--regime", "identity", "--kernel", "identity",
            "--a", "0", "--b", "1", "--n", "256", "--f", "one",
        )
        assert code == 0
        assert "# monotone=True" in out

    def test_op_right_side(self, capsys):
        code, out, _ = run_cli(
            capsys, "op", "--kind", "integral", "--mu", "0.5", "--kernel", "identity",
            "--a", "0", "--b", "1", "--n", "32", "--f", "one", "--side", "right",
        )
        assert code == 0
        lines = out.strip().splitlines()
        # right-sided integral vanishes at b and is largest at a
        assert float(lines[-1].split(",")[1]) == 0.0
        assert float(lines[1].split(",")[1]) > 1.0


class TestErrorPaths:
    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["nonsense"])
        assert info.value.code == 2

    def test_domain_error_single_line(self, capsys):
        code, out, err = run_cli(
            capsys, "op", "--kind", "integral", "--kernel", "log",
            "--a", "0", "--b", "1", "--n", "64", "--f", "one",
        )
        assert code == 1
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_function_id(self, capsys):
        code, _, err = run_cli(
            capsys, "op", "--kind", "integral", "--kernel", "identity",
            "--a", "0", "--b", "1", "--n", "64", "--f", "wiggle",
        )
        assert code == 1
        assert "error:" in err


class TestInputRules:
    @pytest.mark.parametrize("kid", ["identity", "log"])
    @pytest.mark.parametrize("which", ["power-int", "power-hilfer", "power-psifrac"])
    def test_oracle_point_before_base_is_one_error_line(self, capsys, which, kid):
        code, out, err = run_cli(
            capsys, "oracle", "--which", which, "--kernel", kid,
            "--a", "1", "--x", "0.5", "--mu", "0.5",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "z >= 0" in err

    def test_oracle_evaluates_no_kernel_before_base(self, capsys):
        # log at x = -1 would warn; the point is rejected before psi is evaluated
        code, out, err = run_cli(
            capsys, "oracle", "--which", "power-int", "--kernel", "log",
            "--a", "1", "--x", "-1",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "z >= 0" in err

    def test_power_data_infinite_at_base_is_one_error_line(self, capsys):
        # z^(-1/2) at the base node once printed a numpy divide warning first
        code, out, err = run_cli(
            capsys, "op", "--kind", "rl-deriv", "--mu", "0.6", "--kernel", "sqrt_shift:1",
            "--a", "0", "--b", "3", "--n", "200", "--f", "power:0.5",
        )
        assert (code, out) == (1, "")
        assert err == "error: sampled values must all be finite\n"

    def test_nan_kernel_parameter_rejected(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--kernel", "sqrt_shift:nan")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_kernel_parameter_count_checked(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--kernel", "identity:5")
        assert (code, out) == (1, "")
        assert err == "error: identity takes no parameter\n"

    def test_infinite_interval_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--b", "inf")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "infinite domain" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--kernel", "exp", "--b", "800"),
            ("bounds", "--kernel", "power:400", "--a", "1", "--b", "10"),
            ("kernel", "--kernel", "exp", "--b", "800"),
            ("op", "--kind", "integral", "--n", "4", "--kernel", "exp", "--b", "800"),
            ("op", "--kind", "integral", "--n", "4", "--kernel", "exp", "--b", "709"),
            ("bounds", "--kernel", "exp", "--b", "709"),
        ],
        ids=["bounds-exp", "bounds-power", "kernel", "op-psi", "op-scale", "bounds-span"],
    )
    def test_psi_overflow_is_one_error_line(self, capsys, argv):
        # psi(800) = inf printed s = inf, K = inf, A = 0 and exit 0 or numpy
        # warnings; h^s or the span's power overflowing printed warnings or
        # a traceback
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("op", "--kind", "integral", "--mu", "0.5", "--n", "16", "--b", "1e-300",
              "--f", "power:1.5"),
             "operator scale h^s underflows at h = 6.25e-302, s = 1.5"),
            (("volterra", "--b", "1e-300", "--n", "16"),
             "operator scale h^s underflows at h = 6.25e-302, s = 1.5"),
            (("bounds", "--mu", "0.5", "--b", "1e-250"),
             "(psi(b) - psi(a))^1.5 underflows at psi(b) - psi(a) = 1e-250"),
        ],
        ids=["op-scale", "volterra-scale", "bounds-span"],
    )
    def test_underflow_is_one_error_line(self, capsys, argv, message):
        # h^s = 0 once printed a column of 0 (the exact values are about
        # 1e-300) and returned phi as the Volterra solution; a span power of 0
        # ended in a ZeroDivisionError traceback
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,code,line",
        [
            (("kernel", "--kernel", "exp", "--a", "-800", "--b", "1"), 1, "monotonicity,68,0"),
            (("op", "--kind", "integral", "--kernel", "exp", "--a", "-800", "--b", "0",
              "--n", "8"), 0, "-800,0"),
        ],
        ids=["kernel", "op"],
    )
    def test_psi_underflow_at_start_prints_no_warning(self, capsys, argv, code, line):
        # psi(-800) = 0, whose log in the inverse once printed a numpy divide
        # warning; the warnings filter is "error"
        got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, "")
        assert line in out.splitlines()

    @pytest.mark.parametrize("alpha,z", [("0.5", "0"), ("0", "0.5")])
    def test_ml_closed_form_past_gamma_overflow_underflows(self, capsys, alpha, z):
        # 1/Gamma(200) underflows; Gamma(200) once ended in an OverflowError
        code, out, err = run_cli(capsys, "ml", "--alpha", alpha, "--beta", "200", "--z", z)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["value = 0", "terms = 1"]

    @pytest.mark.parametrize(
        "argv,lines",
        [
            (("--alpha", "1e305", "--z", "0.5"), ["value = 1", "terms = 6"]),
            (("--alpha", "0.5", "--beta", "1e308", "--z", "0"), ["value = 0", "terms = 1"]),
            (("--alpha", "0.5", "--beta", "1e308", "--z", "0.5"), ["value = 0", "terms = 6"]),
            (("--alpha", "0.5", "--beta", "1e308", "--z=-5"), ["value = 0", "terms = 6"]),
            (("--alpha", "0", "--beta", "1e308", "--z", "0.5"), ["value = 0", "terms = 1"]),
        ],
    )
    def test_ml_log_gamma_overflow_prints_value(self, capsys, argv, lines):
        # math.lgamma raises OverflowError past about 2.5e305, where 1/Gamma is 0
        code, out, err = run_cli(capsys, "ml", *argv)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines

    def test_oracle_gamma_overflow_is_one_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "--which", "power-int", "--delta", "200", "--x", "0.5"
        )
        assert (code, out) == (1, "")
        assert err == "error: gamma(200) overflows float64\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "--which", "power-int", "--delta", "inf", "--x", "0.5"),
            ("compare", "--op", "integral", "--delta", "inf"),
            ("op", "--kind", "integral", "--f", "power:inf", "--n", "4"),
        ],
        ids=["oracle", "compare", "op"],
    )
    def test_infinite_delta_is_one_error_line(self, capsys, argv):
        # once an OverflowError traceback from gamma (oracle, compare) or a
        # curve of zeros with exit 0 (op)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("malthus", "--lambda", "inf", "--steps", "2"),
            ("op", "--kind", "integral", "--f", "ml:0.5:inf", "--n", "8"),
            ("oracle", "--which", "ml-eigen", "--lam", "inf", "--x", "0.5"),
        ],
        ids=["malthus", "op", "oracle"],
    )
    def test_infinite_lambda_is_one_error_line(self, capsys, argv):
        # inf * 0 at z = 0 once printed a numpy warning before the error line
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: lambda must be finite, got inf\n"

    def test_infinite_initial_population_is_one_error_line(self, capsys):
        # once printed rows of inf and exited 0
        code, out, err = run_cli(capsys, "malthus", "--n0", "inf", "--steps", "2")
        assert (code, out) == (1, "")
        assert err == "error: initial population must be finite and positive, got inf\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("op", "--kind", "integral", "--f", "linear:inf", "--n", "4"),
            ("volterra", "--w", "linear:inf", "--n", "8"),
        ],
        ids=["op", "volterra"],
    )
    def test_infinite_linear_rate_is_one_error_line(self, capsys, argv):
        # inf * 0 at z = 0 once printed a numpy warning before the error line
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: function id 'linear' needs finite arguments, got (inf,)\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("op", "--kind", "integral", "--f", "power:1000", "--b", "5"),
             "sampled values must all be finite"),
            (("op", "--kind", "integral", "--f", "linear:1e308", "--b", "5"),
             "sampled values must all be finite"),
            (("op", "--kind", "integral", "--f", "ml:0.5:1e308", "--b", "5"),
             "z must be finite, got inf"),
            (("oracle", "--which", "ml-eigen", "--lam", "1e308", "--x", "4"),
             "z must be finite, got inf"),
            (("volterra", "--phi", "sin", "--w", "power:-400", "--n", "64"),
             "integrand produced non-finite values (iterate 1)"),
            (("volterra", "--w", "power:1000", "--phi", "linear:3", "--n", "8"),
             "integrand produced non-finite values (iterate 1)"),
        ],
        ids=["op-power", "op-linear", "op-ml", "oracle", "volterra-phi-sin", "volterra-phi-linear"],
    )
    def test_overflowing_values_are_one_error_line(self, capsys, argv, message):
        # an overflow to inf (or inf * 0) once printed a numpy warning first
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("which", ["power-int", "power-hilfer", "power-psifrac"])
    def test_oracle_power_overflow_is_one_error_line(self, capsys, which):
        # z^e past float64 once printed inf after a numpy warning and exited 0
        code, out, err = run_cli(capsys, "oracle", "--which", which, "--x", "1e300", "--delta", "3")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "overflows float64 at z = 1e+300" in err

    def test_oracle_power_zero_exponent_at_large_x(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--which", "power-int", "--x", "1e300", "--delta", "0.5")
        assert (code, out, err) == (0, "1.7724538509055159\n", "")

    def test_zero_rate_ml_past_overflow_is_one(self, capsys):
        # E_mu(0 z^mu) = 1 even where z^mu overflows; 0 * inf once gave NaN
        argv = ("op", "--kind", "integral", "--b", "5")
        one = run_cli(capsys, *argv, "--f", "one")
        assert one[0] == 0 and run_cli(capsys, *argv, "--f", "ml:1000:0") == one

    def test_compare_power_data_infinite_at_base_is_one_error_line(self, capsys):
        # the data are sampled through power:<delta>, which does not warn
        code, out, err = run_cli(capsys, "compare", "--op", "integral", "--delta", "0.5")
        assert (code, out) == (1, "")
        assert err == "error: sampled values must all be finite\n"

    @pytest.mark.parametrize("z", ["inf", "-inf", "nan"])
    def test_non_finite_ml_argument_rejected(self, capsys, z):
        # once summed all 2000 terms before reporting non-convergence
        code, out, err = run_cli(capsys, "ml", "--alpha", "0.5", f"--z={z}")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "finite" in err


class TestDeterminism:
    # n=2048 runs the slope integral's FFT levels
    @pytest.mark.parametrize("n", ["128", "2048"])
    def test_op_byte_identical(self, capsys, n):
        argv = (
            "op", "--kind", "psi-frac", "--mu", "0.3", "--nu", "0.7",
            "--kernel", "sqrt_shift:1", "--a", "0", "--b", "3", "--n", n,
            "--f", "power:1.5",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_figures_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "f1", tmp_path / "f2"
        run_cli(capsys, "figures", "--out-dir", str(d1))
        run_cli(capsys, "figures", "--out-dir", str(d2))
        for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestParserReuse:
    def test_main_is_reentrant(self, tmp_path, capsys):
        # main builds its parsers once per process; a usage error and a
        # config error must leave them fit for the next call
        with pytest.raises(SystemExit) as usage:
            main(["op", "--kind", "nonsense"])
        assert usage.value.code == 2
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength = 3\n", encoding="utf-8")
        assert main(["op", "--kind", "integral", "--config", str(cfg)]) == 1
        capsys.readouterr()
        argv = ["op", "--kind", "hilfer", "--n", "64", "--f", "sin"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(Path(psifrac.__file__).parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-m", "psifrac.cli", *argv], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out == fresh.stdout

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestCsvRows:
    def test_matches_per_row_fmt(self):
        xs = np.array([0.0, -0.0, 5e-324, 1e308, -math.inf, 1.0 / 3.0, math.nan])
        vs = np.array([math.nan, math.inf, -1e308, -5e-324, 0.1, -0.0, 123456.789])
        # the per-row form each CSV command used before the helper
        ref = [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, vs)]
        assert csv_text("x,v", xs, vs).splitlines()[1:] == ref


# The numpy-only contract of the commands: numpy is the only runtime
# dependency, no run warns, and a bad input exits 1 with one error line.
# "ok" is exit 0, empty stderr, and every cell of a CSV output printing back
# as itself under '%.17g', which round-trips a float64, so no reference file
# is needed; "error" is exit 1, empty stdout and one "error: " line.
COMMAND_TABLE = [
    # Mittag-Leffler values on the contour (E_{1/2}(-10), a decay curve)
    ("ok", "malthus --lambda -3 --mu 0.5 --nu 1 --t-max 100 --steps 5"),
    ("ok", "ml --alpha 0.5 --z -10"),
    # the start correction's direct rows up to node 68 and its rows past
    # them, expanded about the cells' midpoint: rows 69-100 at n = 100, a
    # full 4096-row pass of those rows then a one-row pass at n = 4165; the
    # slope integral's direct part alone at n = 128 and its FFT levels with a
    # short last level at n = 5001; the mu = 1 Hilfer derivative's backward
    # difference quotients
    ("ok", "op --kind psi-frac --n 4096 --f sin"),
    ("ok", "op --kind hilfer --n 5001 --f power:2.5"),
    ("ok", "op --kind psi-frac --n 128 --f sin"),
    ("ok", "op --kind hilfer --n 100 --f power:2.5"),
    ("ok", "op --kind hilfer --n 4165 --f power:2.5"),
    ("ok", "op --kind hilfer --mu 1 --nu 0.5 --n 5001 --f sin"),
    ("ok", "compare --op psi-frac --n-list 256,512"),
    # an empty --n-list entry once gave int()'s own message
    ("error", "compare --op psi-frac --n-list 128,,256"),
    ("ok", "volterra --n 256 --w linear:-1 --log volterra.log"),
    # tables cut into equal whole-row chunks of unequal size, formatted in
    # one workspace; the 8193-row table once ended in a one-row chunk
    ("ok", "op --kind hilfer --n 65536 --f power:1.5"),
    ("ok", "op --kind integral --n 12289 --f sin"),
    ("ok", "op --kind psi-frac --n 8192 --f power:2.5"),
    ("ok", "malthus"),
    ("ok", "figures --out-dir ."),
    # every builtin kernel family validates
    ("ok", "kernel --kernel identity --a 0 --b 1.5"),
    ("ok", "kernel --kernel sqrt_shift:1 --a 0 --b 1.5"),
    ("ok", "kernel --kernel exp --a 0 --b 1.5"),
    ("ok", "kernel --kernel log --a 1 --b 2.5"),
    ("ok", "kernel --kernel power:2 --a 1 --b 2.5"),
    # overflowing data, integrands, Mittag-Leffler arguments, populations
    # and power-family oracle values; an operator scale h^s and a bound
    # constant's span power that underflow to 0
    ("error", "op --kind integral --f power:1000 --b 5"),
    ("error", "op --kind integral --f linear:1e308 --b 5"),
    ("error", "op --kind integral --f ml:0.5:1e308 --b 5"),
    ("error", "oracle --which ml-eigen --lam 1e308 --x 4"),
    ("error", "volterra --phi sin --w power:-400 --n 64"),
    ("error", "volterra --w power:1000 --phi linear:3 --n 8"),
    ("error", "malthus --n0 1e308 --lambda 5 --t-max 2"),
    ("error", "oracle --which power-int --x 1e300 --delta 3"),
    ("error", "op --kind integral --mu 0.5 --n 16 --b 1e-300 --f power:1.5"),
    ("error", "bounds --mu 0.5 --b 1e-250"),
    # an exp kernel whose psi underflows to 0 at the start, without a
    # warning from the inverse's log(0)
    ("ok", "op --kind integral --kernel exp --a -800 --b 0 --n 8"),
    # a growth curve and an alternating series; an alpha or beta past
    # log-gamma's float range sums with 1/Gamma = 0 for that term
    ("ok", "malthus --lambda 1.5 --mu 0.5 --nu 1 --t-max 4 --steps 2000"),
    ("ok", "ml --alpha 2 --z -25"),
    ("ok", "ml --alpha 1e305 --z 0.5"),
    ("ok", "ml --alpha 0.5 --beta 1e308 --z -5"),
    # a series that cancels, overflows or runs out of terms
    ("error", "ml --alpha 1 --beta 2 --z -30"),
    ("error", "ml --alpha 0.5 --z 40"),
    ("error", "ml --alpha 0.5 --z 3 --max-terms 10"),
    # oracles at x = a where a 1e-9 margin past x rounds away
    ("ok", "oracle --which power-int --a 0 --x 0"),
    ("ok", "oracle --which power-int --a 1e8 --x 1e8"),
    ("ok", "oracle --which ml-eigen --a 5e7 --x 5e7"),
    ("ok", "oracle --which power-hilfer --a 5e7 --x 5e7"),
    ("ok", "oracle --which ml-psifrac --kernel log --a 2e7 --x 2e7"),
    # a zero rate gives E_mu(0) = 1 even where z^mu overflows
    ("ok", "op --kind integral --f ml:1000:0 --b 5"),
    ("ok", "op --kind integral --f one --b 5"),
]

# runs the table's argv lists, read as JSON from stdin, through main with
# each one's output captured; prints as JSON the exit codes and outputs, the
# scipy modules loaded right after ``import psifrac.cli`` and at the end, and
# in the blocked run two Mittag-Leffler values computed without scipy
TABLE_SCRIPT = """\
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import psifrac
from psifrac.cli import main

def scipy_loaded():
    return sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod)

report = {"scipy_at_import": scipy_loaded(), "rows": []}
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report["rows"].append((code, out.getvalue(), err.getvalue()))
report["scipy"] = scipy_loaded()
if sys.argv[1] == "blocked":
    spec = psifrac.MalthusSpec(100.0, -3.0, psifrac.FracParams(0.5, 1.0),
        psifrac.kernel_from_id("identity", (0.0, 100.0)), 100.0)
    report["values"] = [float(psifrac.malthus_curve(spec, 4)[1][-1]),
        float(psifrac.mittag_leffler(psifrac.MLParams(0.5), -10.0))]
json.dump(report, sys.stdout)
"""


def run_table(cwd, mode):
    """The table script's report from one interpreter under -W error in
    ``cwd``, its rows as (code, stdout, stderr) tuples, plus the files
    written as "files"; ``mode`` "blocked" makes scipy unimportable."""
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(psifrac.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", TABLE_SCRIPT, mode],
        input=json.dumps([argv.split() for _, argv in COMMAND_TABLE]),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert (run.returncode, run.stderr) == (0, "")
    report = json.loads(run.stdout)
    report["rows"] = [tuple(row) for row in report["rows"]]
    report["files"] = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return report


@pytest.fixture(scope="module")
def command_table(tmp_path_factory):
    """``run_table``'s report per mode, "blocked" and "open": the one pair
    of interpreters that the table's and the import-cost checks read."""
    root = tmp_path_factory.mktemp("command_table")
    return {mode: run_table(root / mode, mode) for mode in ("blocked", "open")}


def table_row(report, argv):
    return report["rows"][[line for _, line in COMMAND_TABLE].index(argv)]


def assert_cells_print_back(text, where):
    def prints_back(cell):
        try:
            return "%.17g" % float(cell) == cell
        except ValueError:  # a label, such as a kernel check's name
            return cell.isidentifier()

    rows = [line.split(",") for line in text.splitlines()[1:]]
    bad = [r for r in rows if not all(map(prints_back, r))]
    assert rows and not bad, (where, bad[:3])


class TestCommandTable:
    def test_runs_without_scipy_or_warnings(self, command_table):
        blocked, opened = command_table["blocked"], command_table["open"]
        rows, files = opened["rows"], opened["files"]
        assert (blocked["rows"], blocked["scipy"], blocked["files"]) == (rows, [], files)
        assert opened["scipy"] == []
        for (shape, argv), (code, out, err) in zip(COMMAND_TABLE, rows):
            if shape == "ok":
                assert (code, err) == (0, ""), argv
                if "," in out.partition("\n")[0]:
                    assert_cells_print_back(out, argv)
            else:
                assert (code, out) == (1, ""), argv
                one_line = err.count("\n") == 1 and err.endswith("\n")
                assert err.startswith("error: ") and one_line, (argv, err)
        for name, data in files.items():
            if name.endswith(".csv"):
                assert_cells_print_back(data.decode("ascii"), name)
        stdout = {argv: out for (_, argv), (_, out, _) in zip(COMMAND_TABLE, rows)}
        zero_rate = stdout["op --kind integral --f ml:1000:0 --b 5"]
        assert zero_rate == stdout["op --kind integral --f one --b 5"]
        assert stdout["oracle --which power-int --a 1e8 --x 1e8"] == stdout["oracle --which power-int --a 0 --x 0"]


class TestImportCost:
    """What ``import psifrac.cli`` loads, and what runs with scipy blocked,
    read from the command table's two interpreters."""

    @staticmethod
    def loaded_after_cli_import(command_table, *packages):
        loaded = command_table["open"]["scipy_at_import"]
        return [m for m in loaded if ".".join(m.split(".")[:2]) in packages]

    def test_cli_import_loads_no_scipy_signal_or_fft(self, command_table):
        # scipy.signal roughly doubles the CLI's import time; the slope
        # integral's FFT is numpy.fft, which numpy itself loads
        assert self.loaded_after_cli_import(command_table, "scipy.signal", "scipy.fft") == []

    def test_cli_import_loads_no_scipy_special(self, command_table):
        # scipy.special costs ~0.3 s to import
        assert self.loaded_after_cli_import(command_table, "scipy.special") == []

    def test_mittag_leffler_needs_only_numpy(self, command_table):
        blocked = command_table["blocked"]
        curve_end, ml = blocked["values"]
        assert abs(curve_end - 100.0 * erfcx(30.0)) <= 1e-12 * 100.0 * erfcx(30.0)
        assert abs(ml - erfcx(10.0)) <= 1e-12 * erfcx(10.0)
        code, out, err = table_row(blocked, "ml --alpha 0.5 --z -10")
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"value = {_fmt(ml)}", "terms = 21"]

    @pytest.mark.parametrize(
        "argv",
        [
            # near rows, moment-expansion rows and the FFT slope integral
            "op --kind psi-frac --n 4096 --f sin",
            "volterra --n 256 --w linear:-1 --log volterra.log",
        ],
        ids=["op", "volterra"],
    )
    def test_corrected_operators_need_only_numpy(self, command_table, tmp_path, monkeypatch, capsys, argv):
        # the blocked run's row, against the same command in this process;
        # volterra's iteration log goes to a file, so stderr carries errors only
        blocked = command_table["blocked"]
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert table_row(blocked, argv) == (0, out, "")
        if argv.startswith("volterra"):
            assert (tmp_path / "volterra.log").read_bytes() == blocked["files"]["volterra.log"]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.25\nnu = 0.75\n# comment\nb = 2\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "bounds", "--kernel", "identity", "--config", str(cfg)
        )
        assert code == 0
        from psifrac import FracParams, bound_constant_A, make_builtin

        kernel = make_builtin("identity", (), (0.0, 2.0))
        expected = bound_constant_A(FracParams(0.25, 0.75), kernel, 0.0, 2.0)
        assert out.strip().splitlines()[2] == f"A = {expected:.17g}"

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.25\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "bounds", "--mu", "0.75", "--config", str(cfg),
            "--kernel", "identity",
        )
        assert code == 0
        from psifrac import FracParams, bound_constant_A, make_builtin

        kernel = make_builtin("identity", (), (0.0, 1.0))
        expected = bound_constant_A(FracParams(0.75, 0.5), kernel, 0.0, 1.0)
        assert out.strip().splitlines()[2] == f"A = {expected:.17g}"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelength = 3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 1 and "wavelength" in err


    def test_explicit_flag_equal_to_default_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.75\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "bounds", "--mu", "0.5", "--config", str(cfg))
        assert code == 0
        assert out.strip().splitlines()[2] == "A = 1.3519564801345694"

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("reference = lemmaa", "invalid choice: 'lemmaa'"),
            ("mu = abc", "invalid float value: 'abc'"),
        ],
        ids=["choice", "float"],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, entry, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["compare", "--op", "psi-frac", "--n-list", "128", "--config", str(cfg)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_keys_are_option_dests(self, tmp_path, capsys):
        # --lambda stores to lam; a '-' in a key reads as '_'
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lam = -0.5\nt-max = 3\nsteps = 4\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "malthus", "--config", str(cfg))
        assert code == 0
        _, ref, _ = run_cli(
            capsys, "malthus", "--lambda", "-0.5", "--t-max", "3", "--steps", "4"
        )
        assert out == ref

    def test_config_supplies_required_options(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = integral\nn = 64\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "op", "--config", str(cfg), "--mu", "0.3")
        assert code == 0
        _, ref, _ = run_cli(capsys, "op", "--kind", "integral", "--n", "64", "--mu", "0.3")
        assert out == ref

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu 0.5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestVolterraCommand:
    def test_solution_and_log(self, tmp_path, capsys):
        log = tmp_path / "iters.csv"
        code, out, _ = run_cli(
            capsys, "volterra", "--mu", "0.5", "--nu", "0.5", "--kernel", "identity",
            "--a", "0", "--b", "1", "--n", "64", "--phi", "sin",
            "--w", "linear:0.5", "--tol", "1e-8", "--max-iter", "40",
            "--log", str(log),
        )
        assert code == 0
        assert out.startswith("x,value")
        log_lines = log.read_text().strip().splitlines()
        assert log_lines[0] == "k,sup_diff"
        assert "converged=True" in log_lines[-1]

    def test_max_iter_below_one_is_one_error_line(self, capsys):
        # once printed phi as the solution and exited 1 with no error line
        code, out, err = run_cli(
            capsys, "volterra", "--n", "64", "--phi", "sin", "--w", "linear:0.5",
            "--max-iter", "-3",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "max_iter" in err

    def test_log_defaults_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "volterra", "--n", "64", "--phi", "sin", "--w", "linear:0.5",
        )
        assert code == 0
        assert out.startswith("x,value")
        log_lines = err.strip().splitlines()
        assert log_lines[0] == "k,sup_diff"
        assert "converged=True" in log_lines[-1]


class TestMalthusCommand:
    def test_curve_starts_at_n0(self, capsys):
        code, out, _ = run_cli(
            capsys, "malthus", "--n0", "100", "--lambda", "0.3", "--mu", "1",
            "--nu", "1", "--kernel", "identity", "--t-max", "2", "--steps", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,N"
        assert lines[1] == "0,100"
        assert float(lines[-1].split(",")[1]) == pytest.approx(
            100 * math.exp(0.6), rel=1e-12
        )

    def test_sum_overflow_is_one_error_line(self, capsys):
        # every term of E_1(712) is finite, their sum is not
        code, out, err = run_cli(
            capsys, "malthus", "--lambda", "1", "--mu", "1", "--nu", "1",
            "--t-max", "712", "--steps", "1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "overflows" in err
        assert len(err.strip().splitlines()) == 1

    def test_series_overflow_is_one_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "malthus", "--lambda", "3", "--mu", "0.5", "--nu", "1",
            "--t-max", "1000",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_population_overflow_is_one_error_line(self, capsys):
        # N0 * E_mu past float64 once printed rows of inf after a numpy warning
        argv = ("malthus", "--n0", "1e308", "--t-max", "2", "--steps", "4")
        code, out, err = run_cli(capsys, *argv, "--lambda", "5")
        assert (code, out) == (1, "")
        assert err == "error: N0 * E_mu overflows float64 at t = 0.5\n"
        code, out, err = run_cli(capsys, *argv, "--lambda", "-5")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 5 and all(math.isfinite(float(n)) for _, n in rows)

    def test_negative_steps_is_one_error_line(self, capsys):
        # once printed a bare header and exited 0
        code, out, err = run_cli(capsys, "malthus", "--steps", "-1")
        assert (code, out) == (1, "")
        assert err == "error: steps must be >= 0, got -1\n"

    def test_zero_steps_prints_the_start_row(self, capsys):
        code, out, err = run_cli(capsys, "malthus", "--steps", "0")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["t,N", "0,100"]

    @pytest.mark.parametrize("mu", ["0.5", "1"])
    def test_decay_curve(self, capsys, mu):
        # -3 t^mu reaches -30 and -100; the series once cancelled here
        code, out, err = run_cli(
            capsys, "malthus", "--lambda", "-3", "--mu", mu, "--nu", "1",
            "--t-max", "100", "--steps", "5",
        )
        assert (code, err) == (0, "")
        rows = np.array([line.split(",") for line in out.strip().splitlines()[1:]], dtype=float)
        t, n = rows[:, 0], rows[:, 1]
        ref = 100.0 * (erfcx(3.0 * np.sqrt(t)) if mu == "0.5" else np.exp(-3.0 * t))
        assert np.all(np.abs(n - ref) <= 1e-12 * ref)


class TestFiguresCommand:
    def test_files_and_zero_row(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "figures", "--out-dir", str(tmp_path))
        assert code == 0
        for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert lines[0] == "x,mu_0.1,mu_0.3,mu_0.5,mu_0.8,mu_1,numeric_mu_0.5"
            assert len(lines) == 201
            first = lines[1].split(",")
            # all curve columns vanish at the base point
            assert all(float(tok) == 0.0 for tok in first[1:])


class TestCompareCommand:
    def test_composed_reference_converges(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--op", "psi-frac", "--delta", "1.5",
            "--mu", "0.5", "--nu", "0.5", "--kernel", "identity",
            "--a", "0", "--b", "1", "--n-list", "128,256,512",
            "--reference", "composed",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert float(rows[-1][2]) >= 0.8  # observed order

    @pytest.mark.parametrize("op", ["integral", "hilfer"])
    def test_composed_reference_needs_psi_frac(self, capsys, op):
        # only psi-frac has a composed reference; the lemma form was printed
        code, out, err = run_cli(capsys, "compare", "--op", op, "--reference", "composed")
        assert (code, out) == (1, "")
        assert err == f"error: --reference composed needs --op psi-frac, got --op {op}\n"

    def test_lemma_reference_reports_saturation(self, capsys):
        # against the tabulated four-Gamma form the error cannot shrink:
        # the composition itself converges to the plain order-mu integral
        code, out, _ = run_cli(
            capsys, "compare", "--op", "psi-frac", "--delta", "1.5",
            "--mu", "0.5", "--nu", "0.5", "--kernel", "identity",
            "--a", "0", "--b", "1", "--n-list", "128,256,512",
            "--reference", "lemma",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errs = [float(r[1]) for r in rows]
        assert all(e > 0.1 for e in errs)
        assert abs(float(rows[-1][2])) < 0.1  # order stalls near zero

    def test_integral_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--op", "integral", "--delta", "1.5",
            "--mu", "0.5", "--kernel", "identity", "--a", "0", "--b", "1",
            "--n-list", "256,512",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[-1][2]) >= 1.4

    @pytest.mark.parametrize("n_list,orders", [
        ("128,512,4096", ["nan", 1.5002, 1.5000]),
        ("64,64", ["nan", "nan"]),
        ("512,128", ["nan", 1.5002]),
    ])
    def test_order_scales_with_the_step_in_n(self, capsys, n_list, orders):
        # the order is the slope of log error against log n, whatever the
        # ratio between successive n; a repeated n has none
        code, out, _ = run_cli(
            capsys, "compare", "--op", "integral", "--delta", "1.5",
            "--mu", "0.5", "--kernel", "identity", "--a", "0", "--b", "1",
            "--n-list", n_list,
        )
        assert code == 0
        got = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        for order, want in zip(got, orders, strict=True):
            if want == "nan":
                assert math.isnan(order)
            else:
                assert round(order, 4) == want

    def test_hilfer_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--op", "hilfer", "--delta", "1.5", "--mu", "0.5",
            "--nu", "0.5", "--kernel", "identity", "--a", "0", "--b", "1",
            "--n-list", "256,512",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errs = [float(r[1]) for r in rows]
        assert errs[1] < errs[0] <= 1e-3

    @pytest.mark.parametrize("n_list, bad", [("128,,256", "''"), ("128,2.5", "'2.5'"), ("", "''")])
    def test_bad_n_list_entry_is_named(self, n_list, bad):
        args = build_parser().parse_args(["compare", "--op", "integral", "--n-list", n_list])
        with pytest.raises(ValueError, match=f"^--n-list entry {bad} is not an integer$"):
            args.run(args)

    def test_linear_data_is_exact(self, capsys):
        # the interpolant of linear data is the data: zero quadrature error
        code, out, _ = run_cli(
            capsys, "compare", "--op", "hilfer", "--delta", "2", "--mu", "0.5",
            "--nu", "0.5", "--kernel", "identity", "--a", "0", "--b", "1",
            "--n-list", "256",
        )
        assert code == 0
        err = float(out.strip().splitlines()[1].split(",")[1])
        assert err <= 1e-14
