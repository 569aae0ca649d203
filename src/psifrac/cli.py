"""Command-line front end.

Subcommands: kernel, ml, op, oracle, compare, bounds, volterra, malthus,
figures.  All numeric output is CSV (comma separator, LF endings, header
row, 17 significant digits) and deterministic for a fixed configuration.

Options may also come from a flat config file of ``key = value`` lines via
``--config``: each entry is parsed as a flag placed before the command
line's flags, so explicit flags win over file entries.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import closed_forms, funcs, models, spaces, volterra
from .errors import PsifracError
from .frac_ops import (
    FracParams,
    limit_probe,
    psi_frac_integral,
    psi_hilfer_derivative,
    psi_integral,
    psi_integral_order1,
    psi_rl_derivative,
)
from .grids import SampledFunction, TransformedGrid
from .kernels import kernel_from_id, validate
from .specfun import MLParams, mittag_leffler_terms

__all__ = ["main", "build_parser"]


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _csv_rows(xs: np.ndarray, vs: np.ndarray) -> list[str]:
    """Two-column CSV rows, each cell formatted as ``_fmt`` does.

    A memoryview yields the float64 entries as Python floats one at a time:
    faster than per-row ``float()`` calls, and unlike ``tolist()`` it holds
    no second copy of the columns while the rows are built.
    """
    return list(map("{:.17g},{:.17g}".format, memoryview(xs), memoryview(vs)))


def _write_lines(lines, out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _config_tokens(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """``--flag=value`` tokens for the ``key = value`` lines of a config file.

    A key is an option's dest (``-`` read as ``_``); the subcommand's parser
    converts and checks the values like command-line flags.
    """
    flags = {a.dest: a.option_strings[-1] for a in sub._actions if a.option_strings}
    tokens = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not 'key = value': {raw!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in flags:
            raise ValueError(f"config key {key!r} does not match any option")
        tokens.append(f"{flags[key]}={value}")
    return tokens


def _add_common(sub, kernel=True, interval=True, frac=True, grid=False):
    sub.add_argument("--config", default=None, help="key = value config file")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if kernel:
        sub.add_argument("--kernel", default="identity", help="kernel id, e.g. sqrt_shift:1")
    if interval:
        sub.add_argument("--a", type=float, default=0.0)
        sub.add_argument("--b", type=float, default=1.0)
    if frac:
        sub.add_argument("--mu", type=float, default=0.5)
        sub.add_argument("--nu", type=float, default=0.5)
    if grid:
        sub.add_argument("--n", type=int, default=1024)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psifrac",
        description="fractional operators with respect to a kernel function",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parser._psifrac_subs = subs.choices

    p = subs.add_parser("kernel", help="validate a kernel on a sample sweep")
    _add_common(p, frac=False)
    p.add_argument("--samples", type=int, default=1000)

    p = subs.add_parser("ml", help="evaluate the Mittag-Leffler function")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-15)
    p.add_argument("--max-terms", type=int, default=2000)

    p = subs.add_parser("op", help="apply an operator, emit CSV x,value")
    _add_common(p, grid=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=("integral", "integral1", "rl-deriv", "hilfer", "psi-frac"),
    )
    p.add_argument("--f", default="one", help="function id (see README)")
    p.add_argument("--side", default="left", choices=("left", "right"))

    p = subs.add_parser("oracle", help="closed-form value at one point")
    _add_common(p, interval=False)
    p.add_argument(
        "--which",
        required=True,
        choices=("power-int", "power-hilfer", "power-psifrac", "ml-eigen", "ml-psifrac"),
    )
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--delta", type=float, default=1.5)
    p.add_argument("--lam", type=float, default=1.0)

    p = subs.add_parser(
        "compare", help="oracle-vs-numeric sweep, CSV n,rel_error,observed_order"
    )
    _add_common(p)
    p.add_argument("--op", dest="opkind", required=True, choices=("integral", "hilfer", "psi-frac"))
    p.add_argument("--delta", type=float, default=1.5)
    p.add_argument("--n-list", default="128,256,512,1024,2048")
    p.add_argument(
        "--reference",
        default="lemma",
        choices=("lemma", "composed"),
        help="closed form to compare against (composed = contracted index algebra)",
    )

    p = subs.add_parser("bounds", help="print the constants s, K, A")
    _add_common(p)

    p = subs.add_parser("volterra", help="Picard solve, CSV x,value (+ iteration log)")
    _add_common(p, grid=True)
    p.add_argument("--phi", default="one")
    p.add_argument("--w", default="zero", help="integrand id acting on the state")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--log", default=None, help="iteration log path (default: stderr)")

    p = subs.add_parser("malthus", help="population curve, CSV t,N")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--kernel", default="identity")
    p.add_argument("--n0", type=float, default=100.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.3)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=200)

    p = subs.add_parser("figures", help="figure curve data as CSV files")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)

    p = subs.add_parser("probe", help="limit probes of the composed integral")
    _add_common(p, frac=False, grid=True)
    p.add_argument("--regime", required=True, choices=("mu_to_1", "identity"))
    p.add_argument("--f", default="one")

    return parser


def _grid(args) -> TransformedGrid:
    kernel = kernel_from_id(args.kernel, (min(args.a, args.b), max(args.a, args.b)))
    return TransformedGrid.build(kernel, args.a, args.b, args.n)


def _cmd_kernel(args):
    kernel = kernel_from_id(args.kernel, (args.a, args.b))
    report = validate(kernel, args.samples)
    lines = [
        "check,count,max_error",
        f"monotonicity,{len(report.monotonicity_violations)},0",
        f"derivative,{len(report.derivative_mismatches)},{_fmt(report.max_derivative_mismatch)}",
        f"inverse,{len(report.inverse_errors)},{_fmt(report.max_inverse_error)}",
    ]
    _write_lines(lines, args.out)
    return 0 if report.ok else 1


def _cmd_ml(args):
    params = MLParams(alpha=args.alpha, beta=args.beta, tol=args.tol, max_terms=args.max_terms)
    value, terms = mittag_leffler_terms(params, args.z)
    _write_lines([f"value = {_fmt(value)}", f"terms = {terms}"], args.out)
    return 0


def _cmd_op(args):
    grid = _grid(args)
    f = SampledFunction.from_callable(
        grid, funcs.resolve_spatial(args.f, grid.kernel, args.a)
    )
    if args.kind == "integral":
        out = psi_integral(f, args.mu, args.side)
    elif args.kind == "integral1":
        out = psi_integral_order1(f, args.side)
    elif args.kind == "rl-deriv":
        out = psi_rl_derivative(f, args.mu, args.side)
    elif args.kind == "hilfer":
        out = psi_hilfer_derivative(f, FracParams(args.mu, args.nu), args.side)
    else:
        out = psi_frac_integral(f, FracParams(args.mu, args.nu), args.side)
    lines = ["x,value"]
    lines += _csv_rows(grid.x_nodes, out.values)
    _write_lines(lines, args.out)
    return 0


def _cmd_oracle(args):
    kernel = kernel_from_id(args.kernel, (min(args.a, args.x), max(args.a, args.x) + 1e-9))
    p = FracParams(args.mu, args.nu)
    if args.which == "power-int":
        spec = closed_forms.PowerFunctionSpec(args.delta, kernel, args.a)
        value = closed_forms.power_integral(spec, args.mu, args.x)
    elif args.which == "power-hilfer":
        spec = closed_forms.PowerFunctionSpec(args.delta, kernel, args.a)
        value = closed_forms.power_hilfer_derivative(spec, p, args.x)
    elif args.which == "power-psifrac":
        spec = closed_forms.PowerFunctionSpec(args.delta, kernel, args.a)
        value = closed_forms.power_psi_frac_integral(spec, p, args.x)
    elif args.which == "ml-eigen":
        value = closed_forms.ml_hilfer_eigen(args.lam, p, kernel, args.a, args.x)
    else:
        value = closed_forms.ml_psi_frac_integral(p, kernel, args.a, args.x)
    _write_lines([_fmt(float(value))], args.out)
    return 0


def _convergence_error(num: np.ndarray, ref: np.ndarray) -> float:
    """Relative sup over the far half of the grid (away from the base point,
    where the data's own cusp dominates any scheme)."""
    k = num.size // 2
    return float(np.max(np.abs(num[k:] - ref[k:])) / np.max(np.abs(ref[k:])))


def _cmd_compare(args):
    kernel = kernel_from_id(args.kernel, (args.a, args.b))
    p = FracParams(args.mu, args.nu)
    spec = closed_forms.PowerFunctionSpec(args.delta, kernel, args.a)
    n_list = [int(tok) for tok in args.n_list.split(",")]
    lines = ["n,rel_error,observed_order"]
    prev = None
    for n in n_list:
        grid = TransformedGrid.build(kernel, args.a, args.b, n)
        f = SampledFunction(grid, spec.z(grid.x_nodes) ** (args.delta - 1.0))
        if args.opkind == "integral":
            num = psi_integral(f, args.mu)
            ref = closed_forms.power_integral(spec, args.mu, grid.x_nodes)
        elif args.opkind == "hilfer":
            num = psi_hilfer_derivative(f, p)
            ref = closed_forms.power_hilfer_derivative(spec, p, grid.x_nodes)
        else:
            num = psi_frac_integral(f, p)
            if args.reference == "lemma":
                ref = closed_forms.power_psi_frac_integral(spec, p, grid.x_nodes)
            else:
                ref = closed_forms.power_integral(spec, args.mu, grid.x_nodes)
        err = _convergence_error(num.values, np.asarray(ref))
        order = math.log2(prev / err) if (prev and err > 0) else float("nan")
        lines.append(f"{n},{_fmt(err)},{_fmt(order)}")
        prev = err
    _write_lines(lines, args.out)
    return 0


def _cmd_bounds(args):
    kernel = kernel_from_id(args.kernel, (args.a, args.b))
    p = FracParams(args.mu, args.nu)
    lines = [
        f"s = {_fmt(spaces.bound_constant_s(p, kernel, args.a, args.b))}",
        f"K = {_fmt(spaces.bound_constant_K(p, kernel, args.a, args.b))}",
        f"A = {_fmt(spaces.bound_constant_A(p, kernel, args.a, args.b))}",
    ]
    _write_lines(lines, args.out)
    return 0


def _cmd_volterra(args):
    kernel = kernel_from_id(args.kernel, (args.a, args.b))
    problem = volterra.VolterraProblem(
        phi=funcs.resolve_spatial(args.phi, kernel, args.a),
        integrand=funcs.resolve_state(args.w),
        p=FracParams(args.mu, args.nu),
        kernel=kernel,
        a=args.a,
        b=args.b,
        n=args.n,
    )
    trace = volterra.picard_solve(problem, tol=args.tol, max_iter=args.max_iter)
    log_lines = ["k,sup_diff"]
    log_lines += [f"{k + 1},{_fmt(d)}" for k, d in enumerate(trace.sup_diffs)]
    log_lines.append(f"# converged={trace.converged} residual={_fmt(trace.residual)}")
    if args.log:
        Path(args.log).write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    else:
        print("\n".join(log_lines), file=sys.stderr)
    grid = trace.solution.grid
    lines = ["x,value"]
    lines += _csv_rows(grid.x_nodes, trace.solution.values)
    _write_lines(lines, args.out)
    return 0 if trace.converged else 1


def _cmd_malthus(args):
    kernel = kernel_from_id(args.kernel, (0.0, args.t_max))
    spec = models.MalthusSpec(
        n0=args.n0,
        lam=args.lam,
        p=FracParams(args.mu, args.nu),
        kernel=kernel,
        horizon=args.t_max,
    )
    ts, ns = models.malthus_curve(spec, args.steps)
    lines = ["t,N"]
    lines += _csv_rows(ts, ns)
    _write_lines(lines, args.out)
    return 0


FIGURE_MUS = (0.1, 0.3, 0.5, 0.8, 1.0)
FIGURE_DELTA = 1.5
FIGURE_NU = 0.5
FIGURE_SAMPLES = 200


def _figure_rows(kernel, a: float, b: float) -> list[str]:
    """Curve data for the composed-integral closed form, five orders, plus a
    numeric cross-check column for mu = 0.5 at n = 1024."""
    xs = np.linspace(a, b, FIGURE_SAMPLES)
    spec = closed_forms.PowerFunctionSpec(FIGURE_DELTA, kernel, a)
    cols = []
    for mu in FIGURE_MUS:
        if mu == 1.0:
            # boundary value of the tabulated form: M collapses to 1/delta
            vals = spec.z(xs) ** FIGURE_DELTA / FIGURE_DELTA
        else:
            vals = closed_forms.power_psi_frac_integral(
                spec, FracParams(mu, FIGURE_NU), xs
            )
        cols.append(np.asarray(vals))
    grid = TransformedGrid.build(kernel, a, b, 1024)
    f = SampledFunction(grid, spec.z(grid.x_nodes) ** (FIGURE_DELTA - 1.0))
    numeric = psi_frac_integral(f, FracParams(0.5, FIGURE_NU))
    taus = np.asarray(kernel.eval(xs), dtype=float)
    num_interp = np.interp(taus, grid.tau_nodes, numeric.values)
    header = "x," + ",".join(f"mu_{mu:g}" for mu in FIGURE_MUS) + ",numeric_mu_0.5"
    lines = [header]
    for i, x in enumerate(xs):
        row = [_fmt(x)] + [_fmt(c[i]) for c in cols] + [_fmt(num_interp[i])]
        lines.append(",".join(row))
    return lines


def _cmd_figures(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = (
        ("fig1.csv", "identity", 0.0, 1.0),
        ("fig2.csv", "sqrt_shift:1", 0.0, 3.0),
        # a log kernel cannot start at 0 (psi(0) is infinite); start at 1
        ("fig3.csv", "log", 1.0, math.e),
    )
    for fname, kid, a, b in cases:
        kernel = kernel_from_id(kid, (a, b))
        lines = _figure_rows(kernel, a, b)
        (out_dir / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote fig1.csv fig2.csv fig3.csv to {out_dir}")
    return 0


def _cmd_probe(args):
    grid = _grid(args)
    f = SampledFunction.from_callable(
        grid, funcs.resolve_spatial(args.f, grid.kernel, args.a)
    )
    report = limit_probe(f, args.regime)
    lines = ["mu,nu,distance"]
    lines += [
        f"{_fmt(mu)},{_fmt(nu)},{_fmt(d)}"
        for (mu, nu), d in zip(report.parameters, report.distances)
    ]
    lines.append(f"# monotone={report.monotone} reference={report.reference}")
    _write_lines(lines, args.out)
    return 0 if report.monotone else 1


_COMMANDS = {
    "kernel": _cmd_kernel,
    "ml": _cmd_ml,
    "op": _cmd_op,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "bounds": _cmd_bounds,
    "volterra": _cmd_volterra,
    "malthus": _cmd_malthus,
    "figures": _cmd_figures,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file entries go before the command line's flags, which win
            tokens = _config_tokens(args.config, parser._psifrac_subs[args.command])
            args = parser.parse_args([args.command] + tokens + argv[1:])
        return _COMMANDS[args.command](args)
    except (PsifracError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
