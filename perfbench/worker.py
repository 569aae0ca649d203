"""One workload process: imports psifrac from ``src/`` and runs one client.

Started by ``run.py``; not meant to be run by hand.  With ``--probe`` it only
imports ``psifrac`` and ``psifrac.cli`` and prints ``ready``, which is what
the set-up time measures, so nothing else may be imported before that point.
Otherwise it prints one JSON result line.
"""

import argparse
import json
import os
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--blocks", type=int, default=None)
    parser.add_argument("--wall-cap", type=float)
    parser.add_argument("--out-dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import psifrac
    import psifrac.cli  # noqa: F401

    if args.probe:
        print("ready", flush=True)
        return 0

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(psifrac.__file__).startswith(src + os.sep):
        print(f"perfbench: psifrac was imported from {psifrac.__file__}, not {src}", file=sys.stderr)
        return 2

    import scipy.fft

    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    with scipy.fft.set_workers(1):
        result = workloads.run(
            args.workload, args.seed, args.seconds, args.blocks, args.wall_cap,
            args.out_dir, tracer,
        )
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        values, absent = tracer.metrics(result["bytes_out"])
        result["layers"] = values
        result["absent"] = absent
        result["spans"] = tracer.span_count
        trace_path = os.path.join(args.out_dir, f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(trace_path)
        result["trace_file"] = trace_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
