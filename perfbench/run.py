#!/usr/bin/env python3
"""psifrac benchmark: one seeded workload run per invocation.

    python3 perfbench/run.py --workload op_fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Run it from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nothing is installed.  Every run starts fresh
interpreters only, with BLAS/OpenMP pinned to one thread:

* ``--trace 0``: seven set-up probes (after one discarded probe that writes
  the bytecode cache), then one workload process with one closed-loop
  client.  Prints the end-to-end metrics.  Timings are scaled to reference
  machine speed by ``calibrate``; the raw ones are printed alongside.
* ``--trace 1``: one traced workload process over a fixed number of blocks,
  then one untraced process over the same ops, whose time is the base of
  ``trace.overhead_frac``.  Prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Machine details, the full result
and the trace spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import calibrate

WORKLOADS = ("op_fit", "solve", "cli_large")
SETUP_PROBES = 7
# seconds one block takes at reference speed (see calibrate) at the commit that
# introduced the benchmark; fixes the traced run's work so that its counts
# repeat exactly for a seed and its length is about half of --seconds
NOMINAL_BLOCK_S = {"op_fit": 0.28, "solve": 8.0, "cli_large": 3.4}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_probe(env: dict) -> tuple[float, float]:
    """Start time and seconds from launching a fresh interpreter until
    psifrac and psifrac.cli are imported and the client could start its
    first op."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--probe"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{err}")
    return t0, elapsed


def setup_times(env: dict) -> tuple[list[float], list[float]]:
    """Raw and reference-speed set-up times of SETUP_PROBES probes."""
    setup_probe(env)  # writes the bytecode cache; not measured
    cal_times, cal_samples, starts, raw = [], [], [], []

    def calibrate_now():
        cal_times.append(time.perf_counter())
        cal_samples.append(calibrate.sample())

    calibrate_now()
    for _ in range(SETUP_PROBES):
        t0, elapsed = setup_probe(env)
        starts.append(t0)
        raw.append(elapsed)
        calibrate_now()
    return raw, calibrate.at_reference_speed(starts, raw, cal_times, cal_samples)


def run_worker(env: dict, workload: str, seed: int, seconds: int, *, blocks=None, trace=False) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--wall-cap", str(3 * seconds + 15), "--out-dir", str(OUT_DIR),
    ]
    if blocks is not None:
        cmd += ["--blocks", str(blocks)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=150)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded 150 s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_latencies(res: dict) -> list[float]:
    return calibrate.at_reference_speed(
        res["starts_s"], res["latencies_s"], res["cal_times_s"], res["cal_samples_s"]
    )


def end_to_end(res: dict, setup: list[float], lat: list[float]) -> dict:
    if not res["errors"]:
        raise BenchError("no op was checked against an analytic reference")
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": res["attempted"] / sum(lat),
        "latency_p50_ms": 1e3 * quantile(lat, 50),
        "latency_p90_ms": 1e3 * quantile(lat, 90),
        "pass_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        "err_p50": statistics.median(res["errors"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }


def per_layer(traced: dict, plain: dict) -> dict:
    traced_s = sum(scaled_latencies(traced))
    # span times are scaled by the traced run's mean calibration factor
    factor = traced_s / sum(traced["latencies_s"])
    values = {k: v * factor if k.endswith("_s") else v for k, v in traced["layers"].items()}
    values["trace.overhead_frac"] = traced_s / sum(scaled_latencies(plain)) - 1.0
    return values


def with_units(values: dict, spec: list[dict]) -> dict:
    """The metrics that BENCHMARK.json declares, in its order, with units."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_one(env: dict, spec: dict, workload: str, seed: int, seconds: int, trace: bool, machine: dict) -> dict:
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "machine": machine}
    if trace:
        blocks = max(1, round(seconds / 2 / NOMINAL_BLOCK_S[workload]))
        res = run_worker(env, workload, seed, seconds, blocks=blocks, trace=True)
        plain = run_worker(env, workload, seed, seconds, blocks=blocks)
        if plain["attempted"] != res["attempted"]:
            raise BenchError("traced and untraced runs did not execute the same ops")
        metrics = with_units(per_layer(res, plain), spec["per_layer"])
        detail.update(absent=res["absent"], spans=res["spans"], trace_file=res["trace_file"],
                      raw_untraced_s=sum(plain["latencies_s"]))
    else:
        raw_setup, setup = setup_times(env)
        res = run_worker(env, workload, seed, seconds)
        metrics = with_units(end_to_end(res, setup, scaled_latencies(res)), spec["end_to_end"])
        detail["raw_metrics"] = end_to_end(res, raw_setup, res["latencies_s"])
        detail["setup_probes_s"] = {"raw": raw_setup, "reference": setup}
    detail.update({k: res[k] for k in ("attempted", "failed", "unexpected_failures", "blocks", "capped", "failures")})
    detail["timed_s"] = sum(scaled_latencies(res))
    detail["raw_timed_s"] = sum(res["latencies_s"])
    detail["latency_samples"] = len(res["latencies_s"])
    detail["checked_errors"] = len(res["errors"])
    detail["timeline"] = {k: res[k] for k in ("latencies_s", "starts_s", "cal_samples_s", "cal_times_s")}
    detail["metrics"] = metrics
    with open(OUT_DIR / f"result-{workload}-{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def report(detail: dict) -> None:
    m = detail["machine"]
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
          f"{detail['attempted']} ops in {detail['blocks']} blocks, {detail['raw_timed_s']:.2f} s timed "
          f"({detail['timed_s']:.2f} s at reference speed), "
          f"{detail['failed']} failed ({detail['unexpected_failures']} unexpected)")
    print(f"# machine: {m['cpu']}, nproc={m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}")
    if detail["trace"]:
        print(f"# {detail['spans']} spans written to {detail['trace_file']}")
        if detail["absent"]:
            print(f"# absent layer functions, reported as 0: {', '.join(detail['absent'])}")
    else:
        n = detail["latency_samples"]
        known = detail["failed"] - detail["unexpected_failures"]
        if known:
            reasons = sorted({f["op"]["known_defect"] for f in detail["failures"] if f["known_defect"]})
            print(f"# {known} failed ops are known defects: {'; '.join(reasons)}")
        print(f"# latency samples: {n} ({n - int(0.9 * n)} beyond p90); "
              f"err_p50 over {detail['checked_errors']} checked ops")
    raw = detail.get("raw_metrics", {})
    for name, m in detail["metrics"].items():
        extra = f"   (raw {raw[name]:.6g})" if name in raw and raw[name] != m["value"] else ""
        print(f"{detail['workload']:>10} {name:<28} {m['value']:>14.6g} {m['unit']}{extra}")
    for f in detail["failures"]:
        if not f["known_defect"]:
            print(f"# failed op: {f['why']} :: {json.dumps(f['op'])}", file=sys.stderr)
    print(json.dumps({
        "correct": detail["unexpected_failures"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "psifrac" / "__init__.py").is_file():
        print(f"perfbench: no psifrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    machine = machine_info()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            report(run_one(env, spec, name, args.seed, args.seconds, bool(args.trace), machine))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
