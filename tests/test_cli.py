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
    psi_hilfer_derivative,
    psi_integral_order1,
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

    @pytest.mark.parametrize("kind", ["integral1", "hilfer"])
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
        if kind == "integral1":
            ref = psi_integral_order1(f)
        else:
            ref = psi_hilfer_derivative(f, FracParams(0.3, 0.6))
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
        "which", ["power-int", "power-hilfer", "ml-eigen", "ml-psifrac"]
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


class TestImportCost:
    @staticmethod
    def loaded_after_cli_import(*packages):
        env = dict(os.environ, PYTHONPATH=str(Path(psifrac.__file__).parents[1]))
        code = (
            "import sys, psifrac, psifrac.cli; "
            "print(sorted(m for m in sys.modules "
            f"if '.'.join(m.split('.')[:2]) in {packages!r}))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        return run.stdout.strip()

    def test_cli_import_loads_no_scipy_signal_or_fft(self):
        # scipy.signal roughly doubles the CLI's import time; the slope
        # integral's FFT is numpy.fft, which numpy itself loads
        assert self.loaded_after_cli_import("scipy.signal", "scipy.fft") == "[]"

    def test_cli_import_loads_no_scipy_special(self):
        # scipy.special costs ~0.3 s to import
        assert self.loaded_after_cli_import("scipy.special") == "[]"

    def test_mittag_leffler_needs_only_numpy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(psifrac.__file__).parents[1]))
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import psifrac\n"
            "from psifrac.cli import main\n"
            "spec = psifrac.MalthusSpec(100.0, -3.0, psifrac.FracParams(0.5, 1.0),\n"
            "    psifrac.kernel_from_id('identity', (0.0, 100.0)), 100.0)\n"
            "print(psifrac.malthus_curve(spec, 4)[1][-1])\n"
            "print(psifrac.mittag_leffler(psifrac.MLParams(0.5), -10.0))\n"
            "sys.exit(main(['ml', '--alpha', '0.5', '--z=-10']))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, "")
        lines = run.stdout.splitlines()
        assert abs(float(lines[0]) - 100.0 * erfcx(30.0)) <= 1e-12 * 100.0 * erfcx(30.0)
        assert abs(float(lines[1]) - erfcx(10.0)) <= 1e-12 * erfcx(10.0)
        assert lines[2:] == [f"value = {_fmt(float(lines[1]))}", "terms = 21"]

    @pytest.mark.parametrize(
        "argv",
        [
            # near rows, moment-expansion rows and the FFT slope integral
            ["op", "--kind", "psi-frac", "--n", "4096", "--f", "sin"],
            ["volterra", "--n", "256", "--w", "linear:-1"],
        ],
        ids=["op", "volterra"],
    )
    def test_corrected_operators_need_only_numpy(self, tmp_path, capsys, argv):
        # volterra's iteration log goes to a file, so stderr carries errors only
        def with_log(name):
            return argv + ["--log", str(tmp_path / name)] if argv[0] == "volterra" else argv

        code, out, err = run_cli(capsys, *with_log("in_process.log"))
        assert (code, err) == (0, "")
        env = dict(os.environ, PYTHONPATH=str(Path(psifrac.__file__).parents[1]))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from psifrac.cli import main\n"
            f"sys.exit(main({with_log('blocked.log')!r}))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == out
        if argv[0] == "volterra":
            logs = [(tmp_path / name).read_text() for name in ("in_process.log", "blocked.log")]
            assert logs[0] == logs[1]


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
