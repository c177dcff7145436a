"""Per-layer spans recorded from outside the library.

The library imports names directly (``from .fracops import frac_sum_grid``), so
a function is wrapped by rebinding every ``nablafrac.*`` module attribute that
refers to it.  Each wrapped call records a span (layer, start, end, parent) in
memory; a layer's self time is its span time minus the time of its child spans.
``grid.nabla`` and ``GridFunction.at`` are deliberately left unwrapped: they are
called hundreds of thousands of times and their time stays in the caller's
self time.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# module -> {function name: layer}
LAYERS: Dict[str, Dict[str, str]] = {
    "fracops": {
        "frac_sum_grid": "fracops.frac_sum_grid",
        "frac_sum": "fracops.pointwise",
        "delta_frac_sum": "fracops.pointwise",
        "caputo_nabla": "fracops.pointwise",
        "caputo_nabla_grid": "fracops.caputo_nabla_grid",
        "kernel_weights": "fracops.kernel_weights",
    },
    "ineq": {
        "opial_report": "ineq.opial",
        "ostrowski_report": "ineq.ostrowski",
        "poincare_report": "ineq.poincare",
        "sobolev_report": "ineq.sobolev",
        "avg_sobolev_report": "ineq.avg_sobolev",
    },
    "taylor": {
        "construct_from_taylor_data": "taylor.construct",
        "taylor_fractional_series": "taylor.series",
        "taylor_extended_series": "taylor.series",
        "taylor_fractional": "taylor.point",
        "taylor_extended": "taylor.point",
        "taylor_integer": "taylor.point",
        "remainder_bound": "taylor.point",
        "kernel_sum_closed_form": "taylor.closed_form",
        "sum_rising_closed_form": "taylor.closed_form",
    },
    "harness": {
        "replay_identity_trial": "harness.trial",
        "replay_inequality_trial": "harness.trial",
        "gen_function": "harness.gen_function",
        "run_identity_suite": "harness.suite",
        "run_inequality_suite": "harness.suite",
    },
    "scalars": {"normalized_rising": "scalars.normalized_rising"},
    "gridio": {"read_grid": "gridio.read_grid", "render_report": "gridio.render"},
    "cli": {"main": "cli.main"},
}

CONV_LAYERS = ("fracops.frac_sum_grid", "fracops.pointwise")


_MISSING = object()


def _arg(args, kwargs, position: int, name: str, default=_MISSING):
    if len(args) > position:
        return args[position]
    if default is _MISSING:
        return kwargs[name]
    return kwargs.get(name, default)


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Collects spans and per-layer counters while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.layer_names: List[str] = sorted({l for m in LAYERS.values() for l in m.values()})
        self._layer_id = {name: i for i, name in enumerate(self.layer_names)}
        self.span_layer = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self._stack: List[list] = []  # [span index, child ns]
        self.calls = {name: 0 for name in self.layer_names}
        self.self_ns = {name: 0 for name in self.layer_names}
        self.conv_terms = 0
        self.max_bits = 0
        self.bytes = {"gridio.read_grid": 0, "gridio.render": 0}
        self.shadow_rows: Dict[tuple, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed function and rebind it in every ``nablafrac.*`` module."""
        hooks = {
            "kernel_weights": self._on_kernel_weights,
            "frac_sum_grid": self._on_frac_sum_grid,
            "frac_sum": self._on_point_sum,
            "caputo_nabla": self._on_point_sum,
            "delta_frac_sum": self._on_delta_frac_sum,
            "read_grid": self._on_read_grid,
            "render_report": self._on_render,
        }
        wrapped = {}
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"{package.__name__}.{module_name}"]
            for fn_name, layer in functions.items():
                fn = getattr(module, fn_name)
                wrapped[id(fn)] = self._wrap(fn, layer, hooks.get(fn_name))
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    setattr(module, attr, wrapped[id(value)])

    def _wrap(self, fn: Callable, layer: str, hook: Optional[Callable]) -> Callable:
        layer_id = self._layer_id[layer]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.span_start)
            self.span_layer.append(layer_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                self.calls[layer] += 1
                self.self_ns[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- per-layer counters -------------------------------------------------

    def _on_kernel_weights(self, args, kwargs, result) -> None:
        nu = _arg(args, kwargs, 0, "nu")
        length = _arg(args, kwargs, 1, "length")
        if length == 0:
            return
        key = (Fraction(getattr(nu, "value", nu)), str(_arg(args, kwargs, 2, "backend", "exact")))
        if self.shadow_rows.get(key, 0) >= length:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            self.shadow_rows[key] = length

    def _on_frac_sum_grid(self, args, kwargs, result) -> None:
        n = len(result.values)
        self.conv_terms += n * (n + 1) // 2
        self.max_bits = max(self.max_bits, max(map(_bits, result.values)))

    def _on_point_sum(self, args, kwargs, result) -> None:
        # frac_sum(f, a, nu, t) and caputo_nabla(f, a, mu, t): t-a+1 terms
        self.conv_terms += _arg(args, kwargs, 3, "t") - _arg(args, kwargs, 1, "a") + 1
        self.max_bits = max(self.max_bits, _bits(result))

    def _on_delta_frac_sum(self, args, kwargs, result) -> None:
        # delta_frac_sum(f, a, nu, j): j+1 terms
        self.conv_terms += _arg(args, kwargs, 3, "j") + 1
        self.max_bits = max(self.max_bits, _bits(result))

    def _on_read_grid(self, args, kwargs, result) -> None:
        self.bytes["gridio.read_grid"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _on_render(self, args, kwargs, result) -> None:
        self.bytes["gridio.render"] += len(result)

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in self.layer_names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        conv_ns = sum(self.self_ns[name] for name in CONV_LAYERS)
        out["fracops.conv.terms"] = self.conv_terms
        out["fracops.conv.ns_per_term"] = conv_ns / self.conv_terms if self.conv_terms else 0.0
        out["fracops.conv.max_bits"] = self.max_bits
        lookups = self.cache_hits + self.cache_misses
        out["fracops.kernel_weights.cache_hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        out["fracops.kernel_weights.cache_rows"] = len(self.shadow_rows)
        for name, value in self.bytes.items():
            out[f"{name}.bytes"] = value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("layer\tstart_ns\tend_ns\tparent\n")
            names = self.layer_names
            for layer, start, end, parent in zip(
                self.span_layer, self.span_start, self.span_end, self.span_parent
            ):
                handle.write(f"{names[layer]}\t{start}\t{end}\t{parent}\n")
