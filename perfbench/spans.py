"""Span tracer for the mvcoords layers, installed from outside the package.

The layers are the package's modules. ``install`` rebinds, in every
module of the package, each public function to a wrapper that records a
span under the layer that defines the function. That covers the names a
module imports from another as well as calls between a module's own
public functions. ``Polygon`` methods and cached properties, and the
callables of every ``ScalarField`` a wrapped call returns, are wrapped
the same way. Nothing inside ``src/`` is edited.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the layer self times add up to the root span,
which is ``mvcoords.cli.main``. A few wrappers also take counts at the
boundary: conjugate gradient matrix-vector products through a proxy on
``system.matrix``, quadrature points, and attempts against results kept
for polygon draws and interior sampling.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from functools import cached_property

import numpy as np

LAYERS = ("cli", "coords", "geometry", "interp", "fem", "audit")


class SpanStat:
    __slots__ = ("layer", "calls", "total_s", "self_s", "points")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.points = 0


class _Frame:
    __slots__ = ("key", "layer", "child_s")

    def __init__(self, key: str, layer: str) -> None:
        self.key = key
        self.layer = layer
        self.child_s = 0.0


class _CountingMatrix:
    """Stands in for a sparse matrix and counts products ``A @ x``."""

    def __init__(self, matrix) -> None:
        self._matrix = matrix
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self._matrix @ x

    def __getattr__(self, name):
        return getattr(self._matrix, name)


def _n_points(args) -> int:
    """Rows of the first (m, 2) or (2,) point argument, 0 if none."""
    for a in args:
        if isinstance(a, np.ndarray):
            if a.ndim >= 1 and a.shape[-1] == 2:
                return a.size // 2
        elif isinstance(a, list) and a and isinstance(a[0], (list, tuple)):
            return len(a)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []

    def wrap(self, key: str, fn, before=None, after=None):
        """Wrapper recording a span ``key`` (``<layer>.<name>``) around fn.

        ``before(args, kwargs)`` may return a token that is passed to
        ``after(token, args, result, points, parent)``. ``after`` runs
        also when fn raises, with result None, and its return value
        replaces the result.
        """
        layer = key.split(".", 1)[0]
        stat = self.stats.setdefault(key, SpanStat(layer))
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(key, layer)
            stack.append(frame)
            token = before(args, kwargs) if before else None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame.child_s
                if parent is not None:
                    parent.child_s += dur
                    if layer == "coords" and parent.layer == "cli":
                        counters["cli.coord_calls"] += 1
                points = _n_points(args)
                stat.points += points
                if after:
                    result = after(token, args, result, points, parent)
            return result

        return wrapper

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for stat in self.stats.values():
            out[stat.layer] += stat.self_s
        return out

    def report(self) -> dict:
        return {
            "spans": {k: {"layer": s.layer, "calls": s.calls, "total_s": s.total_s,
                          "self_s": s.self_s, "points": s.points}
                      for k, s in self.stats.items()},
            "layer_self_s": self.layer_self(),
            "counters": dict(self.counters),
        }


def _module_layer(obj) -> str | None:
    mod = getattr(obj, "__module__", "") or ""
    parts = mod.split(".")
    if len(parts) == 2 and parts[0] == "mvcoords" and parts[1] in LAYERS:
        return parts[1]
    return None


def install() -> Tracer:
    """Wrap the package's layer boundaries; returns the collecting tracer."""
    import mvcoords
    import mvcoords.cli  # noqa: F401  (imports every layer)
    from mvcoords.geometry import Polygon
    from mvcoords.interp import ScalarField

    tracer = Tracer()
    counters = tracer.counters

    def field_result(token, args, result, points, parent):
        if not isinstance(result, ScalarField):
            return result
        return dataclasses.replace(
            result,
            value=tracer.wrap("interp.field_eval", result.value),
            gradient=tracer.wrap("interp.field_eval", result.gradient),
            hessian=tracer.wrap("interp.field_eval", result.hessian),
        )

    def solve_before(args, kwargs):
        system = kwargs["system"] if "system" in kwargs else args[0]
        proxy = _CountingMatrix(system.matrix)
        counters["fem.dofs"] += system.matrix.shape[0]
        counters["fem.nnz"] += system.matrix.nnz
        system.matrix = proxy
        return system, proxy

    def solve_after(token, args, result, points, parent):
        system, proxy = token
        system.matrix = proxy._matrix
        counters["fem.solve.iterations"] += proxy.products
        return result

    def alloc_before(args, kwargs):
        tracemalloc.start()

    def alloc_after_for(key):
        def after(token, args, result, points, parent):
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            counters[f"{key}.alloc_peak_mb"] = max(counters[f"{key}.alloc_peak_mb"], peak)
            return result
        return after

    def quad_after(token, args, result, points, parent):
        if result is not None:
            counters["interp.quad_points"] += len(result.points)
        return result

    def draw_after(token, args, result, points, parent):
        if result is not None:
            counters["audit.draw.kept"] += 1
        return result

    def sample_after(token, args, result, points, parent):
        if result is not None:
            counters["audit.sample.kept"] += len(result)
        return result

    def boundary_distance_after(token, args, result, points, parent):
        if parent is not None and parent.key == "audit.sample_interior":
            counters["audit.sample.candidates"] += points
        return result

    hooks = {
        "fem.solve": (solve_before, solve_after),
        "fem.assemble": (alloc_before, alloc_after_for("fem.assemble")),
        "fem.solution_errors": (alloc_before, alloc_after_for("fem.solution_errors")),
        "interp.fan_quadrature": (None, quad_after),
        "audit.random_convex_polygon": (None, draw_after),
        "audit.sample_interior": (None, sample_after),
        "geometry.signed_boundary_distance": (None, boundary_distance_after),
    }

    def wrap_function(key, fn):
        before, after = hooks.get(key, (None, None))
        if after is None and key.startswith("interp.field_"):
            after = field_result
        return tracer.wrap(key, fn, before, after)

    modules = [mvcoords] + [sys.modules[f"mvcoords.{layer}"] for layer in LAYERS]
    wrapped = {}  # one wrapper per function, however many modules bind it
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            layer = _module_layer(obj)
            if name.startswith("_") or layer is None or not inspect.isfunction(obj):
                continue
            if obj not in wrapped:
                wrapped[obj] = wrap_function(f"{layer}.{obj.__name__}", obj)
            setattr(mod, name, wrapped[obj])

    for name, attr in list(vars(Polygon).items()):
        if isinstance(attr, cached_property):
            attr.func = tracer.wrap(f"geometry.{name}", attr.func)
        elif inspect.isfunction(attr) and (name == "__init__" or not name.startswith("_")):
            key = "geometry.Polygon" if name == "__init__" else f"geometry.{name}"
            setattr(Polygon, name, wrap_function(key, attr))
    ScalarField.source = tracer.wrap("interp.source", ScalarField.source)

    audit = sys.modules["mvcoords.audit"]
    hull = audit.ConvexHull

    def counted_hull(*args, **kwargs):
        counters["audit.draw.attempts"] += 1
        return hull(*args, **kwargs)

    audit.ConvexHull = counted_hull
    return tracer
