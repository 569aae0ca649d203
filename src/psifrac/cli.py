"""Command-line front end.

Subcommands: kernel, ml, op, oracle, compare, bounds, volterra, malthus,
figures.  Tables are CSV (comma separator, LF endings, header row, 17
significant digits); ``ml`` and ``bounds`` print ``key = value`` lines and
``oracle`` one number.  All output is deterministic for a fixed configuration.

Options may also come from a flat config file of ``key = value`` lines via
``--config``: each entry is parsed as a flag placed before the command
line's flags, so explicit flags win over file entries.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import closed_forms, funcs, models, spaces, volterra
from ._csv import csv_text
from .errors import PsifracError
from .frac_ops import (
    FracParams,
    limit_probe,
    psi_frac_integral,
    psi_hilfer_derivative,
    psi_integral,
    psi_integral_order1,
    psi_rl_derivative,
    relative_sup_error,
)
from .grids import SampledFunction, TransformedGrid
from .kernels import _z, kernel_from_id, validate
from .specfun import MLParams, mittag_leffler_terms

__all__ = ["main", "build_parser"]


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_lines(lines, out_path, stream=None):
    """Write ``lines``, a list or one text, to ``out_path`` if given, else to
    ``stream`` (stdout)."""
    text = lines if isinstance(lines, str) else "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        (stream or sys.stdout).write(text)


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


# operator kind -> its values on sampled data f for the parsed args and a side;
# only the two-parameter kinds build (and so check) FracParams
_OPERATORS = {
    "integral": lambda f, args, side: psi_integral(f, args.mu, side),
    "integral1": lambda f, args, side: psi_integral_order1(f, side),
    "rl-deriv": lambda f, args, side: psi_rl_derivative(f, args.mu, side),
    "hilfer": lambda f, args, side: psi_hilfer_derivative(f, FracParams(args.mu, args.nu), side),
    "psi-frac": lambda f, args, side: psi_frac_integral(f, FracParams(args.mu, args.nu), side),
}

# oracle name -> the operator kind ``compare`` checks against it, and the
# closed form on power data from a PowerFunctionSpec, FracParams and x
_POWER_FORMS = {
    "power-int": ("integral", lambda spec, p, x: closed_forms.power_integral(spec, p.mu, x)),
    "power-hilfer": ("hilfer", closed_forms.power_hilfer_derivative),
    "power-psifrac": ("psi-frac", closed_forms.power_psi_frac_integral),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psifrac",
        description="fractional operators with respect to a kernel function",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parser._psifrac_subs = subs.choices

    p = subs.add_parser("kernel", help="validate a kernel on a sample sweep")
    p.set_defaults(run=_cmd_kernel)
    _add_common(p, frac=False)
    p.add_argument("--samples", type=int, default=1000)

    p = subs.add_parser("ml", help="evaluate the Mittag-Leffler function")
    p.set_defaults(run=_cmd_ml)
    _add_common(p, kernel=False, interval=False, frac=False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-15)
    p.add_argument("--max-terms", type=int, default=2000)

    p = subs.add_parser("op", help="apply an operator, emit CSV x,value")
    p.set_defaults(run=_cmd_op)
    _add_common(p, grid=True)
    p.add_argument("--kind", required=True, choices=tuple(_OPERATORS))
    p.add_argument("--f", default="one", help="function id (see README)")
    p.add_argument("--side", default="left", choices=("left", "right"))

    p = subs.add_parser("oracle", help="closed-form value at one point")
    p.set_defaults(run=_cmd_oracle)
    _add_common(p, interval=False)
    p.add_argument("--which", required=True, choices=(*_POWER_FORMS, "ml-eigen", "ml-psifrac"))
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--delta", type=float, default=1.5)
    p.add_argument("--lam", type=float, default=1.0)

    p = subs.add_parser(
        "compare", help="oracle-vs-numeric sweep, CSV n,rel_error,observed_order"
    )
    p.set_defaults(run=_cmd_compare)
    _add_common(p)
    kinds = tuple(kind for kind, _ in _POWER_FORMS.values())
    p.add_argument("--op", dest="opkind", required=True, choices=kinds)
    p.add_argument("--delta", type=float, default=1.5)
    p.add_argument("--n-list", default="128,256,512,1024,2048")
    p.add_argument(
        "--reference",
        default="lemma",
        choices=("lemma", "composed"),
        help="closed form to compare against (composed = contracted index algebra)",
    )

    p = subs.add_parser("bounds", help="print the constants s, K, A")
    p.set_defaults(run=_cmd_bounds)
    _add_common(p)

    p = subs.add_parser("volterra", help="Picard solve, CSV x,value (+ iteration log)")
    p.set_defaults(run=_cmd_volterra)
    _add_common(p, grid=True)
    p.add_argument("--phi", default="one")
    p.add_argument("--w", default="zero", help="integrand id acting on the state")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--log", default=None, help="iteration log path (default: stderr)")

    p = subs.add_parser("malthus", help="population curve, CSV t,N")
    p.set_defaults(run=_cmd_malthus)
    _add_common(p, interval=False, frac=False)
    p.add_argument("--n0", type=float, default=100.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.3)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=200)

    p = subs.add_parser("figures", help="figure curve data as CSV files")
    p.set_defaults(run=_cmd_figures)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)

    p = subs.add_parser("probe", help="limit probes of the composed integral")
    p.set_defaults(run=_cmd_probe)
    _add_common(p, frac=False, grid=True)
    p.add_argument("--regime", required=True, choices=("mu_to_1", "identity"))
    p.add_argument("--f", default="one")

    return parser


def _sampled(args) -> SampledFunction:
    """``--f`` sampled on the grid of ``--kernel``, ``--a``, ``--b`` and ``--n``."""
    kernel = kernel_from_id(args.kernel, (args.a, args.b))
    grid = TransformedGrid.build(kernel, args.a, args.b, args.n)
    return SampledFunction.from_callable(grid, funcs.resolve_spatial(args.f, kernel, args.a))


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
    f = _sampled(args)
    out = _OPERATORS[args.kind](f, args, args.side)
    _write_lines(csv_text("x,value", f.grid.x_nodes, out.values), args.out)
    return 0


def _cmd_oracle(args):
    # past |x| ~ 9e6 the 1e-9 margin rounds away; the next float keeps the
    # domain non-empty there and the end unchanged wherever the margin holds
    end = max(args.a, args.x)
    kernel = kernel_from_id(args.kernel, (args.a, max(end + 1e-9, math.nextafter(end, math.inf))))
    p = FracParams(args.mu, args.nu)
    if args.which in _POWER_FORMS:
        _, form = _POWER_FORMS[args.which]
        value = form(closed_forms.PowerFunctionSpec(args.delta, kernel, args.a), p, args.x)
    elif args.which == "ml-eigen":
        value = closed_forms.ml_hilfer_eigen(args.lam, p, kernel, args.a, args.x)
    else:
        value = closed_forms.ml_psi_frac_integral(p, kernel, args.a, args.x)
    _write_lines([_fmt(float(value))], args.out)
    return 0


def _cmd_compare(args):
    if args.reference == "composed" and args.opkind != "psi-frac":
        raise ValueError(f"--reference composed needs --op psi-frac, got --op {args.opkind}")
    kernel = kernel_from_id(args.kernel, (args.a, args.b))
    p = FracParams(args.mu, args.nu)
    spec = closed_forms.PowerFunctionSpec(args.delta, kernel, args.a)
    power = funcs.resolve_spatial(f"power:{args.delta!r}", kernel, args.a)
    n_list = []
    for tok in args.n_list.split(","):
        try:
            n_list.append(int(tok))
        except ValueError:
            raise ValueError(f"--n-list entry {tok!r} is not an integer") from None
    which = next(w for w, (kind, _) in _POWER_FORMS.items() if kind == args.opkind)
    if args.reference == "composed":
        which = "power-int"
    _, form = _POWER_FORMS[which]
    lines = ["n,rel_error,observed_order"]
    prev = prev_n = None
    for n in n_list:
        grid = TransformedGrid.build(kernel, args.a, args.b, n)
        f = SampledFunction.from_callable(grid, power)
        num = _OPERATORS[args.opkind](f, args, "left")
        ref = form(spec, p, grid.x_nodes)
        # far half of the grid only: next to the base point the data's own
        # cusp dominates any scheme
        err = relative_sup_error(num, ref, skip_base=(n + 1) // 2)
        # the slope of log error against log n: log2(e_prev / e) only where n
        # doubles, and nan where n repeats
        steps = math.log2(n / prev_n) if prev else 0.0
        order = math.log2(prev / err) / steps if (steps and err > 0) else float("nan")
        lines.append(f"{n},{_fmt(err)},{_fmt(order)}")
        prev, prev_n = err, n
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
    _write_lines(log_lines, args.log, sys.stderr)
    x = trace.solution
    _write_lines(csv_text("x,value", x.grid.x_nodes, x.values), args.out)
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
    _write_lines(csv_text("t,N", ts, ns), args.out)
    return 0


FIGURE_MUS = (0.1, 0.3, 0.5, 0.8, 1.0)
FIGURE_DELTA = 1.5
FIGURE_NU = 0.5
FIGURE_SAMPLES = 200


def _figure_columns(kernel, a: float, b: float) -> tuple:
    """Header, then the columns of the curve data for the composed-integral
    closed form, five orders, plus a numeric cross-check column for mu = 0.5
    at n = 1024."""
    xs = np.linspace(a, b, FIGURE_SAMPLES)
    spec = closed_forms.PowerFunctionSpec(FIGURE_DELTA, kernel, a)
    cols = []
    for mu in FIGURE_MUS:
        if mu == 1.0:
            # boundary value of the tabulated form: M collapses to 1/delta
            vals = _z(kernel, a, xs) ** FIGURE_DELTA / FIGURE_DELTA
        else:
            vals = closed_forms.power_psi_frac_integral(
                spec, FracParams(mu, FIGURE_NU), xs
            )
        cols.append(vals)
    grid = TransformedGrid.build(kernel, a, b, 1024)
    power = funcs.resolve_spatial(f"power:{FIGURE_DELTA!r}", kernel, a)
    f = SampledFunction.from_callable(grid, power)
    numeric = psi_frac_integral(f, FracParams(0.5, FIGURE_NU))
    taus = np.asarray(kernel.eval(xs), dtype=float)
    num_interp = np.interp(taus, grid.tau_nodes, numeric.values)
    header = "x," + ",".join(f"mu_{mu:g}" for mu in FIGURE_MUS) + ",numeric_mu_0.5"
    return header, xs, *cols, num_interp


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
        _write_lines(csv_text(*_figure_columns(kernel_from_id(kid, (a, b)), a, b)), out_dir / fname)
    print(f"wrote fig1.csv fig2.csv fig3.csv to {out_dir}")
    return 0


def _cmd_probe(args):
    report = limit_probe(_sampled(args), args.regime)
    lines = ["mu,nu,distance"]
    lines += [
        f"{_fmt(mu)},{_fmt(nu)},{_fmt(d)}"
        for (mu, nu), d in zip(report.parameters, report.distances)
    ]
    lines.append(f"# monotone={report.monotone} reference={report.reference}")
    _write_lines(lines, args.out)
    return 0 if report.monotone else 1


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The full parser and the ``--config`` pre-parser, built once and shared
    by every call: parsing does not change a parser."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # a bare --config fails the full parse
    return build_parser(), pre


def main(argv=None) -> int:
    parser, pre = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    # read --config first, so that the file may also supply required options
    config = pre.parse_known_args(argv[1:])[0].config
    try:
        if config and argv[0] in parser._psifrac_subs:
            # file entries go before the command line's flags, which win
            tokens = _config_tokens(config, parser._psifrac_subs[argv[0]])
            argv = argv[:1] + tokens + argv[1:]
        args = parser.parse_args(argv)
        return args.run(args)
    except (PsifracError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
