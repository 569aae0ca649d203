"""Seeded workloads, their execution against psifrac, and the output checks.

Ops come in blocks.  Every block of a workload holds the same multiset of op
classes (operator, size, solver path); the seed sets the continuous inputs
(see ``Draw``) and the op order.  A run executes whole blocks, so the op
mix, and with it throughput and latency quantiles, is the same for every
seed while the inputs differ.  Block ``b`` is a pure function of
``(seed, b)``, generated before any of its ops runs.

Each op is timed on its own; its output is checked against an analytic
reference afterwards, outside the timed region.
"""

from __future__ import annotations

import functools
import math
import os
import random
import time

import numpy as np
from scipy.special import erfcx, rgamma

import psifrac
import psifrac.cli
from psifrac import closed_forms, funcs

import calibrate

# a run keeps going until it has this many ops, so >= 10 lie beyond p90
MIN_OPS = 100
CAL_EVERY_S = 0.25

# relative error gates.  Operators converge like h^(2-mu) on the far half of
# the grid (h = 1/n on these tau ranges); the worst err/h^(2-mu) over the
# op_fit parameter box is ~22, so 100 leaves headroom and still catches an
# error that does not shrink with the grid.
OP_TOL_FACTOR = 100.0
PICARD_TOL = 1e-3  # linear Picard solves against E_mu, all nodes
RESIDUAL_TOL = 1e-8  # nonlinear Picard solves (tol 1e-10), fixed-point residual
MALTHUS_TOL = 1e-9  # Malthus curves against erfcx / exp

SOLVE_TOL = 1e-10
MALTHUS_STEPS = 2000
MALTHUS_N0 = 100.0


# -- references --------------------------------------------------------------


def ml_series(alpha: float, beta: float, x) -> np.ndarray:
    """E_{alpha,beta}(x) by its power series; accurate in float64 for |x| <= 1.

    Independent of ``psifrac.specfun``, which is one of the measured layers.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    power = np.ones_like(x)
    for k in range(80):
        total += power * rgamma(alpha * k + beta)
        power = power * x
    return total


def far_half_error(num, ref) -> float:
    """Relative sup error over the far half of the grid, as ``psifrac compare``."""
    num, ref = np.asarray(num, dtype=float), np.asarray(ref, dtype=float)
    k = num.size // 2
    return float(np.max(np.abs(num[k:] - ref[k:])) / np.max(np.abs(ref[k:])))


def sup_error(num, ref) -> float:
    num, ref = np.asarray(num, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(num - ref)) / np.max(np.abs(ref)))


def operator_reference(kind: str, data: str, mu: float, nu: float, kernel, a: float, x):
    """Exact value of an operator applied to ``sin`` or ``power:<delta>`` data.

    ``kind`` is a CLI ``--kind``.  The composed integral contracts to I^mu,
    so it is checked against ``power_integral(spec, mu)``, not against the
    tabulated ``power_psi_frac_integral``.
    """
    if data == "sin":
        z = np.asarray(kernel.eval(x), dtype=float) - float(kernel.eval(a))
        if kind == "integral1":
            return 1.0 - np.cos(z)
        if kind in ("integral", "psi-frac"):
            return z ** (mu + 1.0) * ml_series(2.0, mu + 2.0, -z * z)
        return z ** (1.0 - mu) * ml_series(2.0, 2.0 - mu, -z * z)
    spec = closed_forms.PowerFunctionSpec(float(data.split(":")[1]), kernel, a)
    if kind == "integral1":
        return closed_forms.power_integral(spec, 1.0, x)
    if kind in ("integral", "psi-frac"):
        return closed_forms.power_integral(spec, mu, x)
    return closed_forms.power_hilfer_derivative(spec, psifrac.FracParams(mu, nu), x)


def op_tol(n: int, mu: float) -> float:
    return OP_TOL_FACTOR * float(n) ** -(2.0 - mu)


_GOLDEN = (5 ** 0.5 - 1) / 2


class Draw:
    """The seeded inputs of block ``b``: a generator for the op order and
    discrete choices, and the offsets of the evenly spaced parameter grids."""

    def __init__(self, workload: str, seed: int, b: int):
        self.rng = random.Random(f"{workload}:{seed}:{b}")
        self._key = f"{workload}:{seed}"
        self._b = b

    def spaced(self, name: str, count: int, lo: float, hi: float) -> list[float]:
        """``count`` evenly spaced values in [lo, hi), all shifted by one offset.

        The values come in a fixed order per ``name``, so the pairing of
        strata across parameters and op classes is the same in every block.
        The offset of block b is ``v + b * golden`` mod 1 with ``v`` drawn
        from the seed, so successive blocks fill the gaps of earlier ones
        and every op gets a fresh value.  This keeps the error and latency
        quantiles of a run steady across seeds.
        """
        v = random.Random(f"{self._key}:{name}").random()
        u = (v + self._b * _GOLDEN) % 1.0
        width = (hi - lo) / count
        return [lo + (i + u) * width for i in _design_order(name, count)]


@functools.lru_cache(maxsize=None)
def _design_order(name: str, count: int) -> tuple[int, ...]:
    order = list(range(count))
    random.Random(name).shuffle(order)
    return tuple(order)


# -- op_fit: cold tables and start correction ----------------------------------

OPFIT_KERNELS = (
    ("identity", 0.0, 1.0),
    ("sqrt_shift:1", 0.0, 3.0),
    ("log", 1.0, math.e),
    ("power:2", 0.5, 1.5),
)
OPFIT_SIZES = (512, 1024, 2048, 4096)
OPFIT_KINDS = {
    "psi_integral": "integral",
    "psi_rl_derivative": "rl-deriv",
    "psi_hilfer_derivative": "hilfer",
    "psi_frac_integral": "psi-frac",
}


def op_fit_block(draw: Draw) -> list[dict]:
    combos = [(k, n, op) for k in OPFIT_KERNELS for n in OPFIT_SIZES for op in OPFIT_KINDS]
    mus = draw.spaced("mu", len(combos), 0.05, 0.95)
    nus = draw.spaced("nu", len(combos), 0.0, 1.0)
    deltas = draw.spaced("delta", len(combos), 1.2, 3.0)
    ops = [
        {"type": "op_fit", "kernel": k, "a": a, "b": b, "n": n, "op": op,
         "mu": mu, "nu": nu, "delta": delta}
        for ((k, a, b), n, op), mu, nu, delta in zip(combos, mus, nus, deltas)
    ]
    draw.rng.shuffle(ops)
    return ops


def run_op_fit(op: dict, ctx: dict):
    kernel = psifrac.kernel_from_id(op["kernel"], (op["a"], op["b"]))
    grid = psifrac.TransformedGrid.build(kernel, op["a"], op["b"], op["n"])
    fn = funcs.resolve_spatial(f"power:{op['delta']!r}", kernel, op["a"])
    f = psifrac.SampledFunction.from_callable(grid, fn)
    operator = getattr(psifrac, op["op"])
    if op["op"] in ("psi_integral", "psi_rl_derivative"):
        return operator(f, op["mu"])
    return operator(f, psifrac.FracParams(op["mu"], op["nu"]))


def check_op_fit(op: dict, out, ctx: dict):
    grid = out.grid
    ref = operator_reference(
        OPFIT_KINDS[op["op"]], f"power:{op['delta']!r}", op["mu"], op["nu"],
        grid.kernel, op["a"], grid.x_nodes,
    )
    err = far_half_error(out.values, ref)
    return err <= op_tol(op["n"], op["mu"]), err


# -- solve: Picard sweeps and Mittag-Leffler series ----------------------------

SOLVE_KERNELS = (("identity", 0.0, 1.0), ("sqrt_shift:1", 0.0, 3.0), ("log", 1.0, math.e))
# Block mix (42 ops, 35 solves), sized from measured latencies so that p50
# falls mid-way through the ~75 ms band of n = 2048 solves and p90 mid-way
# through the t_dependent n = 64 solves, not on a gap between op classes.
# Orders start at mu = 0.5, below which the error climbs steeply with mu and
# makes err_p50 jump between seeds; the t_dependent ranges are narrow to keep
# their sweep counts close.
LINEAR_SIZES = (1024,) * 5 + (2048,) * 14 + (4096,) * 3
SIN_SIZES = (1024, 2048, 4096) * 2
T_DEPENDENT_SIZES = (32,) + (64,) * 6
# (mu, lambda range, t_max range) of Malthus curves the series handles
MALTHUS_CASES = (
    (0.5, (0.2, 1.5), (1.0, 4.0)),
    (1.0, (0.2, 1.5), (1.0, 4.0)),
    (0.5, (-1.0, -0.2), (1.0, 3.0)),
    (1.0, (-1.0, -0.2), (1.0, 3.0)),
)
# decay curves the Mittag-Leffler series gets wrong at this commit: they stay
# in the workload and count as failed ops, but do not make a run incorrect
KNOWN_DEFECT = "Mittag-Leffler series loses all precision for large negative arguments"
MALTHUS_DEFECT_CASES = ((0.5, -3.0, 10.0), (1.0, -3.0, 10.0), (0.5, -3.0, 100.0))


def _signed(mags: list[float]) -> list[float]:
    return [m if i % 2 else -m for i, m in enumerate(mags)]


def solve_block(draw: Draw) -> list[dict]:
    ops = []
    nus = iter(draw.spaced("nu", len(LINEAR_SIZES + SIN_SIZES + T_DEPENDENT_SIZES), 0.0, 1.0))

    def picard(n, mu, w, lam, kernel, t_dependent):
        k, a, b = kernel
        ops.append({"type": "picard", "n": n, "mu": mu, "nu": next(nus), "w": w,
                    "lam": lam, "kernel": k, "a": a, "b": b, "t_dependent": t_dependent})

    lin_mu = draw.spaced("linear:mu", len(LINEAR_SIZES), 0.5, 1.0)
    lin_lam = _signed(draw.spaced("linear:lam", len(LINEAR_SIZES), 0.25, 1.0))
    for i, n in enumerate(LINEAR_SIZES):
        picard(n, lin_mu[i], "linear", lin_lam[i], SOLVE_KERNELS[i % 3], False)
    sin_mu = draw.spaced("sin:mu", len(SIN_SIZES), 0.5, 1.0)
    for i, n in enumerate(SIN_SIZES):
        picard(n, sin_mu[i], "sin", None, SOLVE_KERNELS[i % 3], False)
    td_mu = draw.spaced("tdep:mu", len(T_DEPENDENT_SIZES), 0.6, 0.9)
    td_lam = _signed(draw.spaced("tdep:lam", len(T_DEPENDENT_SIZES), 0.4, 0.8))
    for i, n in enumerate(T_DEPENDENT_SIZES):
        picard(n, td_mu[i], "linear", td_lam[i], SOLVE_KERNELS[0], True)
    lam_pos = draw.spaced("malthus:lam", len(MALTHUS_CASES), 0.0, 1.0)
    t_pos = draw.spaced("malthus:t", len(MALTHUS_CASES), 0.0, 1.0)
    for (mu, (lam_lo, lam_hi), (t_lo, t_hi)), lp, tp in zip(MALTHUS_CASES, lam_pos, t_pos):
        ops.append({"type": "malthus", "mu": mu, "lam": lam_lo + lp * (lam_hi - lam_lo),
                    "t_max": t_lo + tp * (t_hi - t_lo)})
    for mu, lam, t_max in MALTHUS_DEFECT_CASES:
        ops.append({"type": "malthus", "mu": mu, "lam": lam, "t_max": t_max,
                    "known_defect": KNOWN_DEFECT})
    draw.rng.shuffle(ops)
    return ops


def _run_picard(op: dict):
    kernel = psifrac.kernel_from_id(op["kernel"], (op["a"], op["b"]))
    w = f"linear:{op['lam']!r}" if op["w"] == "linear" else op["w"]
    problem = psifrac.VolterraProblem(
        phi=funcs.resolve_spatial("one", kernel, op["a"]),
        integrand=funcs.resolve_state(w),
        p=psifrac.FracParams(op["mu"], op["nu"]),
        kernel=kernel,
        a=op["a"],
        b=op["b"],
        n=op["n"],
        t_dependent=op["t_dependent"],
    )
    return psifrac.picard_solve(problem, tol=SOLVE_TOL)


def _run_malthus(op: dict):
    spec = psifrac.MalthusSpec(
        n0=MALTHUS_N0,
        lam=op["lam"],
        p=psifrac.FracParams(op["mu"], 1.0),
        kernel=psifrac.kernel_from_id("identity", (0.0, op["t_max"])),
        horizon=op["t_max"],
    )
    return psifrac.malthus_curve(spec, MALTHUS_STEPS)


def run_solve(op: dict, ctx: dict):
    return _run_picard(op) if op["type"] == "picard" else _run_malthus(op)


def check_solve(op: dict, out, ctx: dict):
    if op["type"] == "malthus":
        ts, ns = out
        if op["mu"] == 0.5:
            ref = MALTHUS_N0 * erfcx(-op["lam"] * np.sqrt(ts))
        else:
            ref = MALTHUS_N0 * np.exp(op["lam"] * ts)
        err = sup_error(ns, ref)
        return err <= MALTHUS_TOL, err
    if not out.converged:
        return False, None
    if op["w"] == "sin":
        return out.residual <= RESIDUAL_TOL, None
    grid = out.solution.grid
    z = grid.tau_nodes - grid.tau_nodes[0]
    err = sup_error(out.solution.values, ml_series(op["mu"], 1.0, op["lam"] * z ** op["mu"]))
    return err <= PICARD_TOL, err


def warm_solve(ctx: dict) -> None:
    _run_picard({"n": 64, "mu": 0.5, "nu": 0.5, "w": "linear", "lam": 0.5,
                 "kernel": "identity", "a": 0.0, "b": 1.0, "t_dependent": False})


# -- cli_large: convolution and CSV emission ------------------------------------

CLI_KINDS = ("integral", "integral1", "rl-deriv", "hilfer", "psi-frac")
CLI_CONV_KINDS = ("integral", "rl-deriv", "hilfer", "psi-frac")
CLI_PARAMS = ((0.3, 0.5), (0.5, 0.5), (0.7, 0.2), (0.9, 1.0))
CLI_DATA = ("sin", "power:1.5", "power:2.5")
CLI_SIZES = (8192, 8192, 8192, 16384, 32768)


def cli_large_block(draw: Draw) -> list[dict]:
    classes = [(n, kind) for n in CLI_SIZES for kind in CLI_KINDS]
    classes.append((65536, draw.rng.choice(CLI_CONV_KINDS)))
    inputs = [(f, p) for f in CLI_DATA for p in CLI_PARAMS]
    ops = []
    for i, (n, kind) in enumerate(classes):
        # a fixed assignment: stride 5 is coprime to the 12 inputs, so they
        # spread evenly over the classes, and every block checks the same
        # inputs; the seed sets the op order and the kind of the n = 65536 op
        data, (mu, nu) = inputs[(5 * i) % len(inputs)]
        ops.append({"type": "cli", "n": n, "kind": kind, "mu": mu, "nu": nu, "f": data})
    draw.rng.shuffle(ops)
    return ops


def _cli_argv(op: dict, out_path: str) -> list[str]:
    return ["op", "--kind", op["kind"], "--n", str(op["n"]), "--f", op["f"],
            "--mu", repr(op["mu"]), "--nu", repr(op["nu"]), "--out", out_path]


def run_cli(op: dict, ctx: dict):
    return psifrac.cli.main(_cli_argv(op, ctx["out_path"]))


def check_cli(op: dict, rc, ctx: dict):
    """Parse the CSV back and check it; the file is removed, so a later op
    that fails to write cannot be checked against stale output."""
    path = ctx["out_path"]
    if rc != 0 or not os.path.exists(path):
        return False, None
    ctx["bytes_out"] += os.path.getsize(path)
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline() != "x,value\n":
                return False, None
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    finally:
        os.remove(path)
    n = op["n"]
    x = np.linspace(0.0, 1.0, n + 1)
    if table.shape != (n + 1, 2) or np.max(np.abs(table[:, 0] - x)) > 1e-12:
        return False, None
    kernel = psifrac.kernel_from_id("identity", (0.0, 1.0))
    ref = operator_reference(op["kind"], op["f"], op["mu"], op["nu"], kernel, 0.0, x)
    err = far_half_error(table[:, 1], ref)
    return err <= op_tol(n, op["mu"]), err


def warm_cli(ctx: dict) -> None:
    run_cli({"kind": "psi-frac", "n": 1024, "f": "sin", "mu": 0.5, "nu": 0.5}, ctx)
    os.remove(ctx["out_path"])


# -- registry and the closed loop ------------------------------------------------

# name -> (block generator, run, check, untimed warm-up or None).
# op_fit has no warm-up: it measures cold weight tables by design.
WORKLOADS = {
    "op_fit": (op_fit_block, run_op_fit, check_op_fit, None),
    "solve": (solve_block, run_solve, check_solve, warm_solve),
    "cli_large": (cli_large_block, run_cli, check_cli, warm_cli),
}


def run(workload, seed, seconds, blocks, wall_cap, tmp_dir, tracer=None) -> dict:
    """One client, closed loop: each op starts after the previous one is checked.

    Runs whole blocks until the measured op time reaches ``seconds`` and at
    least MIN_OPS ops are done, or exactly ``blocks`` blocks when given.
    ``wall_cap`` stops the loop between ops whatever the state.

    The calibration kernel runs between ops at least every CAL_EVERY_S and
    at every block end; the result carries the samples and op intervals
    that ``calibrate.at_reference_speed`` needs.
    """
    make_block, run_op, check, warm = WORKLOADS[workload]
    ctx = {"out_path": os.path.join(tmp_dir, f"op-{os.getpid()}.csv"), "bytes_out": 0}
    if warm is not None:
        warm(ctx)
    wall0 = time.perf_counter()
    cal_samples = [calibrate.sample()]
    cal_times = [0.0]
    cal_at = time.perf_counter()
    latencies, starts, errors, failures = [], [], [], []
    attempted = failed = unexpected = 0
    timed = 0.0
    b = 0
    capped = False
    while not capped:
        if blocks is not None:
            if b >= blocks:
                break
        elif timed >= seconds and attempted >= MIN_OPS:
            break
        for op in make_block(Draw(workload, seed, b)):
            if time.perf_counter() - wall0 > wall_cap:
                capped = True
                break
            if time.perf_counter() - cal_at >= CAL_EVERY_S:
                cal_times.append(time.perf_counter() - wall0)
                cal_samples.append(calibrate.sample())
                cal_at = time.perf_counter()
            if tracer is not None:
                tracer.op_id = attempted
                tracer.enabled = True
            exc = None
            t0 = time.perf_counter()
            try:
                out = run_op(op, ctx)
            except Exception as e:  # any exception is a failed op, OverflowError too
                exc = e
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            latencies.append(dt)
            starts.append(t0 - wall0)
            timed += dt
            attempted += 1
            ok, err = False, None
            if exc is None:
                try:
                    ok, err = check(op, out, ctx)
                except Exception as e:
                    exc = e
            if err is not None and math.isfinite(err):
                errors.append(err)
            if not ok:
                failed += 1
                unexpected += "known_defect" not in op
                if len(failures) < 20:
                    why = f"{type(exc).__name__}: {exc}" if exc else f"check failed, err={err}"
                    failures.append({"op": op, "why": why, "known_defect": "known_defect" in op})
        cal_times.append(time.perf_counter() - wall0)
        cal_samples.append(calibrate.sample())
        cal_at = time.perf_counter()
        b += 1
    if os.path.exists(ctx["out_path"]):
        os.remove(ctx["out_path"])
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": unexpected,
        "latencies_s": latencies,
        "starts_s": starts,
        "cal_samples_s": cal_samples,
        "cal_times_s": cal_times,
        "errors": errors,
        "blocks": b,
        "capped": capped,
        "bytes_out": ctx["bytes_out"],
        "failures": failures,
    }
