"""Span tracer for the traced benchmark run.

Spans are recorded from outside the package: every public function of a
traced psifrac module (the names in its ``__all__``, plus public
classmethods of the classes listed there) is replaced by a wrapper at every
place a loaded psifrac module binds it.  ``cli``, ``volterra`` and ``models``
import names directly, so wrapping only the defining module would miss them.

A span carries its name, start and end (``perf_counter_ns``), the index of
its parent span and the id of the benchmark op that caused it.  Spans stay in
memory until ``dump`` writes them out.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import Counter

# traced layers, named after their module with any leading underscore
# dropped; closed_forms (the benchmark's reference) and spaces
# (constant-time) are deliberately not traced
LAYERS = ("quadrature", "grids", "funcs", "frac_ops", "volterra", "specfun", "models", "cli")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.installed: set[str] = set()
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._op = array("i")
        self._error = array("b")
        # open frames: [span index, name, layer, outermost-in-layer, child ns]
        self._stack: list[list] = []
        self._active = dict.fromkeys(LAYERS, 0)
        # name -> [spans, outermost spans, duration ns, self ns, outermost errors]
        self.stats: dict[str, list[int]] = {}
        self.counters: Counter = Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded traced psifrac module."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "psifrac" or name.startswith("psifrac."))
        }
        replacement: dict[int, types.FunctionType] = {}
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1].lstrip("_")
            if layer not in LAYERS:
                continue
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == modname:
                    replacement[id(obj)] = self._wrap(layer, f"{layer}.{public}", obj)
                elif isinstance(obj, type) and obj.__module__ == modname:
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            name = f"{layer}.{obj.__name__}.{attr}"
                            setattr(obj, attr, classmethod(self._wrap(layer, name, raw.__func__)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in replacement:
                    setattr(mod, attr, replacement[id(value)])

    def _wrap(self, layer: str, name: str, fn):
        self.installed.add(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, True)
                raise
            tracer._close(frame, False)
            return hook(tracer, args, result) if hook else result

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        idx = len(self._start)
        nidx = self._name_index.get(name)
        if nidx is None:
            nidx = self._name_index[name] = len(self.names)
            self.names.append(name)
        self._name.append(nidx)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._op.append(self.op_id)
        self._error.append(0)
        self._end.append(0)
        outermost = self._active[layer] == 0
        self._active[layer] += 1
        if layer == "frac_ops" and self._active["volterra"]:
            self.counters["volterra.op_calls"] += 1
        frame = [idx, name, layer, outermost, 0]
        self._stack.append(frame)
        self._start.append(time.perf_counter_ns())
        return frame

    def _close(self, frame: list, error: bool) -> None:
        end = time.perf_counter_ns()
        idx, name, layer, outermost, child_ns = frame
        self._stack.pop()
        self._end[idx] = end
        if error:
            self._error[idx] = 1
        dur = end - self._start[idx]
        self._active[layer] -= 1
        st = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        st[0] += 1
        st[1] += outermost
        st[2] += dur
        st[3] += dur - child_ns
        st[4] += error and outermost
        if self._stack:
            self._stack[-1][4] += dur

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self._name.tolist(),
                    "start_ns": self._start.tolist(),
                    "end_ns": self._end.tolist(),
                    "parent": self._parent.tolist(),
                    "op": self._op.tolist(),
                    "error": self._error.tolist(),
                },
                fh,
            )

    @property
    def span_count(self) -> int:
        return len(self._start)

    # -- per-layer metrics --------------------------------------------------

    def _sum(self, field: int, prefix: str) -> int:
        return sum(st[field] for name, st in self.stats.items() if name.startswith(prefix))

    def _has(self, *names: str) -> bool:
        return all(
            any(inst == n or inst.startswith(n + ".") for inst in self.installed)
            for n in names
        )

    def metrics(self, bytes_out: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values, and the names whose layer function is absent.

        ``bytes_out`` is the size of the CSV files the CLI wrote, which the
        caller measures after each call.

        An absent metric is reported as 0 and listed, so a layer function that
        a later change removes does not stop the traced run.
        """
        s = 1e-9
        c = self.counters
        sweeps = c["volterra.sweeps"]
        table = {
            "quadrature.slopes_s": (("quadrature.fracint_slopes",), lambda: self._sum(2, "quadrature.fracint_slopes") * s),
            "quadrature.values_s": (("quadrature.fracint_values",), lambda: self._sum(2, "quadrature.fracint_values") * s),
            "quadrature.calls": (("quadrature",), lambda: self._sum(1, "quadrature.")),
            "quadrature.nodes": (("quadrature",), lambda: c["quadrature.nodes"]),
            "grids.build_calls": (("grids.TransformedGrid.build",), lambda: self._sum(0, "grids.TransformedGrid.build")),
            "grids.build_s": (("grids.TransformedGrid.build",), lambda: self._sum(2, "grids.TransformedGrid.build") * s),
            "funcs.sample_s": (("funcs",), lambda: self._sum(2, "funcs.sample.") * s),
            "frac_ops.calls": (("frac_ops",), lambda: self._sum(1, "frac_ops.")),
            "frac_ops.self_s": (("frac_ops",), lambda: self._sum(3, "frac_ops.") * s),
            "volterra.solves": (("volterra.picard_solve",), lambda: self._sum(0, "volterra.picard_solve")),
            "volterra.sweeps": (("volterra.picard_solve",), lambda: sweeps),
            "volterra.op_calls_per_sweep": (
                ("volterra.picard_solve", "frac_ops"),
                lambda: c["volterra.op_calls"] / sweeps if sweeps else 0.0,
            ),
            "volterra.self_s": (("volterra",), lambda: self._sum(3, "volterra.") * s),
            "volterra.unconverged": (("volterra.picard_solve",), lambda: c["volterra.unconverged"]),
            "specfun.ml_calls": (("specfun.mittag_leffler_terms",), lambda: self._sum(0, "specfun.mittag_leffler_terms")),
            "specfun.ml_terms": (("specfun.mittag_leffler_terms",), lambda: c["specfun.ml_terms"]),
            "specfun.self_s": (("specfun",), lambda: self._sum(3, "specfun.") * s),
            "specfun.errors": (("specfun",), lambda: self._sum(4, "specfun.")),
            "models.calls": (("models",), lambda: self._sum(1, "models.")),
            "models.self_s": (("models",), lambda: self._sum(3, "models.") * s),
            "cli.calls": (("cli.main",), lambda: self._sum(1, "cli.")),
            "cli.self_s": (("cli.main",), lambda: self._sum(3, "cli.") * s),
            "cli.bytes_out": (("cli.main",), lambda: bytes_out),
        }
        values, absent = {}, []
        for metric, (needs, compute) in table.items():
            if self._has(*needs):
                values[metric] = compute()
            else:
                values[metric] = 0
                absent.append(metric)
        return values, absent


# -- result hooks: counters read from a traced call's arguments or result ----


def _count_nodes(tracer, args, result):
    tracer.counters["quadrature.nodes"] += len(args[0])
    return result


def _count_solve(tracer, args, result):
    tracer.counters["volterra.sweeps"] += getattr(result, "iterations", 0)
    tracer.counters["volterra.unconverged"] += not getattr(result, "converged", True)
    return result


def _count_terms(tracer, args, result):
    tracer.counters["specfun.ml_terms"] += result[1]
    return result


def _trace_sampler(kind):
    """Wrap the function a ``funcs`` resolver returns, so sampling it is a span."""

    def hook(tracer, args, fn):
        return tracer._wrap("funcs", f"funcs.sample.{kind}", fn)

    return hook


_HOOKS = {
    "quadrature.fracint_values": _count_nodes,
    "quadrature.fracint_slopes": _count_nodes,
    "quadrature.trapezoid_cumulative": _count_nodes,
    "volterra.picard_solve": _count_solve,
    "specfun.mittag_leffler_terms": _count_terms,
    "funcs.resolve_spatial": _trace_sampler("spatial"),
    "funcs.resolve_state": _trace_sampler("state"),
}
