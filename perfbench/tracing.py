"""Span tracing of cantorscale's layers, installed from outside the package.

``install`` wraps every public function of each layer module, the
``MapFamily`` and ``MetricChange`` methods, ``scipy.integrate.quad`` as the
metric module sees it, and the pressure root of ``dimension``.  A wrapper
is assigned to every namespace that holds the original object (the layer
module, the package root and each module that imported the name), because
that is where the caller looks the name up at call time.

Each call records a span ``(name, start, end, parent)``; spans stay in
memory until the run writes them out.  A layer's self time is the summed
duration of its spans minus the durations of their direct children.
Counters of work (points inverted, cells built, ...) are kept at the same
boundaries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("families", "branches", "symbolic", "scaling", "geometry",
          "metric", "dimension", "cli")

# span name -> per-layer time metric that its self time is charged to
_TIME_METRIC = {
    "families.MapFamily.inverse_branch": "families.inverse_s",
    "families.MapFamily.eval": "families.eval_deriv_s",
    "families.MapFamily.deriv": "families.eval_deriv_s",
    "families.Tent.deriv": "families.eval_deriv_s",
    "branches.cylinder": "branches.chain_s",
    "branches.map_interval": "branches.chain_s",
    "branches.inverse_branch": "branches.chain_s",
    "branches.partition_levels": "branches.partition_s",
    "branches.partition": "branches.partition_s",
    "branches.decay_rate": "branches.partition_s",
}

TIME_METRICS = ("families.inverse_s", "families.eval_deriv_s",
                "branches.chain_s", "branches.partition_s", "scaling.s",
                "geometry.s", "metric.s", "dimension.s", "symbolic.s",
                "cli.s")

COUNT_METRICS = (
    "families.inverse_calls", "families.inverse_points",
    "families.eval_deriv_calls", "branches.chain_steps",
    "branches.partition_cells", "scaling.estimates",
    "scaling.approximant_steps", "scaling.floor_stops", "scaling.graph_rows",
    "geometry.distortion_checks",
    "metric.h_points", "metric.h_inv_points", "metric.quad_calls",
    "dimension.roots", "dimension.pressure_evals", "symbolic.code_points",
    "cli.commands", "cli.artifact_bytes")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


# span name -> function(counts, args, kwargs, result) adding work counts
def _count_inverse(c, args, kwargs, result):
    c["families.inverse_calls"] += 1
    c["families.inverse_points"] += int(np.size(_arg(args, kwargs, 3, "y")))


def _count_eval_deriv(c, args, kwargs, result):
    c["families.eval_deriv_calls"] += 1


def _count_scale_at(c, args, kwargs, result):
    c["scaling.estimates"] += 1
    c["scaling.approximant_steps"] += len(result.approximant_sequence)
    avail = result.dual_point.available
    n_max = result.depth if avail is None else min(result.depth, avail - 1)
    c["scaling.floor_stops"] += result.effective_depth < n_max


def _count_jump_at(c, args, kwargs, result):
    c["scaling.estimates"] += 1
    c["scaling.approximant_steps"] += len(result.a_n)


def _count_estimate(c, args, kwargs, result):
    c["scaling.estimates"] += 1


def _count_partition_levels(c, args, kwargs, result):
    c["branches.partition_cells"] += sum(len(level) for level in result)


def _count_cli_main(c, args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    c["cli.commands"] += 1
    c["cli.artifact_bytes"] += _dir_bytes(argv[argv.index("--out") + 1])


_COUNTERS = {
    "families.MapFamily.inverse_branch": _count_inverse,
    "families.MapFamily.eval": _count_eval_deriv,
    "families.MapFamily.deriv": _count_eval_deriv,
    "families.Tent.deriv": _count_eval_deriv,
    "branches.cylinder": lambda c, a, k, r: c.update(
        {"branches.chain_steps": len(r.word)}),
    "branches.map_interval": lambda c, a, k, r: c.update(
        {"branches.chain_steps": 1}),
    "branches.partition_levels": _count_partition_levels,
    "scaling.scale_at": _count_scale_at,
    "scaling.jump_at": _count_jump_at,
    "scaling.asymmetry": _count_estimate,
    "scaling.scaling_graph": lambda c, a, k, r: c.update(
        {"scaling.graph_rows": len(r)}),
    "geometry.distortion_check": lambda c, a, k, r: c.update(
        {"geometry.distortion_checks": 1}),
    "metric.MetricChange.h": lambda c, a, k, r: c.update(
        {"metric.h_points": int(np.size(_arg(a, k, 1, "x")))}),
    "metric.MetricChange.h_inv": lambda c, a, k, r: c.update(
        {"metric.h_inv_points": int(np.size(_arg(a, k, 1, "y")))}),
    "metric.quad": lambda c, a, k, r: c.update({"metric.quad_calls": 1}),
    "dimension._solve_delta": lambda c, a, k, r: c.update(
        {"dimension.roots": 1}),
    "dimension.pressure_sum": lambda c, a, k, r: c.update(
        {"dimension.pressure_evals": 1}),
    "symbolic.point_from_code": lambda c, a, k, r: c.update(
        {"symbolic.code_points": 1}),
    "cli.main": _count_cli_main,
}

# methods wrapped on their classes: (module, class, method names)
_METHODS = (
    ("families", "MapFamily", ("inverse_branch", "eval", "deriv")),
    ("families", "Tent", ("deriv",)),
    ("metric", "MetricChange", ("__init__", "h", "h_prime", "h_inv")),
)

# module globals that are not public functions but are layer boundaries
_EXTRA = (("metric", "quad"), ("dimension", "_solve_delta"))


class Tracer:
    """Records spans and counts while ``active``; pass-through otherwise."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer functions of ``package`` (the cantorscale module)."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
            for extra_layer, attr in _EXTRA:
                if extra_layer == layer:
                    obj = getattr(mod, attr)
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self.wrap(name, obj)
                    for key, (obj, name) in originals.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, obj, wrappers[id(obj)])
        for layer, cls_name, methods in _METHODS:
            cls = getattr(importlib.import_module(
                f"{package.__name__}.{layer}"), cls_name)
            for meth in methods:
                obj = cls.__dict__[meth]
                self._set(cls, meth, obj,
                          self.wrap(f"{layer}.{cls_name}.{meth}", obj))

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Per-layer self time of the spans with index in [first, last)."""
        child_time = [0.0] * (last - first)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child_time[parent - first] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, parent) in enumerate(self.spans[first:last]):
            layer = name.split(".", 1)[0]
            if layer not in LAYERS:
                continue
            metric = _TIME_METRIC.get(name, f"{layer}.s")
            if metric in out:
                out[metric] += (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
