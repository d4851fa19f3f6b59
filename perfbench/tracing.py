"""Benchmark-owned spans around the public functions of each twindual layer.

``install`` runs inside a traced operation process (see ``launcher.py``).
It replaces each target function at every module attribute that binds it,
so ``duality._echelon_int`` and ``linalg._echelon_int`` are both wrapped,
and wraps the ``numpy.linalg`` decompositions called from twindual frames.
Each call records a span (name, start, end, parent, op id, attributes);
``diagrams.compose`` is only counted, because a span per call would distort
the 583,696 calls of the r = 4 image rank.

``per_layer_metrics`` turns the spans of a traced pass into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

# (module, attribute, span name, attributes taken from (args, result))
_FUNCTIONS = [
    ("twindual.scalars", "is_q_admissible", "scalars.is_q_admissible", None),
    ("twindual.hecke", "reflection_in_split_basis", "hecke.site_matrices", None),
    ("twindual.hecke", "reflection_in_orthonormal_basis", "hecke.site_matrices", None),
    ("twindual.hecke", "orthonormal_reflection_block", "hecke.site_matrices", None),
    ("twindual.tensor_action", "group_generators", "tensor_action.group_generators",
     lambda a, r: {"dim": r[0].rows if r else 0}),
    ("twindual.tensor_action", "algebra_generator_images",
     "tensor_action.algebra_generator_images", None),
    ("twindual.tensor_action", "diagram_matrix", "tensor_action.diagram_matrix", None),
    ("twindual.linalg", "kron_power", "linalg.kron_power", None),
    ("twindual.linalg", "_echelon_int", "linalg.exact_elim",
     lambda a, r: {"rows": len(a[0]), "cols": a[1]}),
    ("twindual.linalg", "nullspace", "linalg.nullspace", None),
    ("twindual.duality", "commutant_dimension", "duality.commutant_dimension",
     lambda a, r: {"unknowns": a[0][0].rows ** 2}),
    ("twindual.duality", "diagram_image_dimension", "duality.diagram_image_dimension", None),
    ("twindual.duality", "image_gram_rank", "duality.image_gram_rank",
     lambda a, r: {"diagrams": len(a[0])}),
    ("twindual.duality", "enveloping_span_dimension", "duality.enveloping_span_dimension", None),
    ("twindual.duality", "center_dimension", "duality.center_dimension", None),
    ("twindual.diagrams", "enumerate_diagrams", "diagrams.enumerate_diagrams",
     lambda a, r: {"count": len(r)}),
    ("twindual.diagrams", "verify_presentation", "diagrams.verify_presentation", None),
    ("twindual.density", "independence_test", "density.independence_test", None),
    ("twindual.density", "finite_order_detect", "density.finite_order_detect", None),
]
_METHODS = [
    ("twindual.linalg", "SpanTracker", "add_matrix", "linalg.SpanTracker.add_matrix",
     lambda a, r: {"accepted": bool(r)}),
]
_COUNTED = [("twindual.diagrams", "compose", "diagrams.compose")]
_FLOAT_DECOMPS = ("eig", "eigh", "eigvals", "eigvalsh", "svd")


class Tracer:
    """Spans and counters of one operation process."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.counters: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def timed(self, name: str, func, attrs=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name, "op": self.op,
                    "parent": stack[-1] if stack else None}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return wrapper

    def counted(self, name: str, func):
        counter = self.counters.setdefault(name, itertools.count())

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            next(counter)
            return func(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"op": self.op, "spans": self.spans,
                "counters": {k: next(c) for k, c in self.counters.items()}}


def _rebind(old, new) -> None:
    """Point every twindual module attribute bound to ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "twindual" or mod_name.startswith("twindual.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    for mod_name, attr, name, attrs in _FUNCTIONS:
        func = getattr(importlib.import_module(mod_name), attr)
        _rebind(func, tracer.timed(name, func, attrs))
    for mod_name, cls_name, attr, name, attrs in _METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, attr, tracer.timed(name, getattr(cls, attr), attrs))
    for mod_name, attr, name in _COUNTED:
        func = getattr(importlib.import_module(mod_name), attr)
        _rebind(func, tracer.counted(name, func))

    # a cache hit is a get_or_build call whose builder never ran
    cache_cls = importlib.import_module("twindual.cache").MatrixCache
    original = cache_cls.get_or_build

    def get_or_build(cache, key, builder, built):
        return original(cache, key, lambda: (built.append(True), builder())[1])

    timed_lookup = tracer.timed("cache.MatrixCache.get_or_build", get_or_build,
                                lambda a, r: {"hit": not a[3]})
    cache_cls.get_or_build = lambda cache, key, builder: timed_lookup(cache, key, builder, [])

    import numpy.linalg as npl

    for attr in _FLOAT_DECOMPS:
        func = getattr(npl, attr)
        timed_decomp = tracer.timed("linalg.float_decomp", func,
                                    lambda a, r: {"n": max(a[0].shape)})

        def dispatch(*args, _func=func, _timed=timed_decomp, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("twindual"):
                return _timed(*args, **kwargs)
            return _func(*args, **kwargs)

        setattr(npl, attr, dispatch)


# -- aggregation -------------------------------------------------------------

# metric -> (span or counter name, statistic); units are in BENCHMARK.json
PER_LAYER = {
    "cli.import_s": ("cli.import", "import"),
    "scalars.is_q_admissible.s": ("scalars.is_q_admissible", "s"),
    "scalars.is_q_admissible.calls": ("scalars.is_q_admissible", "calls"),
    "hecke.site_matrices.s": ("hecke.site_matrices", "s"),
    "tensor_action.group_generators.s": ("tensor_action.group_generators", "s"),
    "tensor_action.group_generators.max_dim": ("tensor_action.group_generators", "max:dim"),
    "tensor_action.algebra_generator_images.s": ("tensor_action.algebra_generator_images", "s"),
    "tensor_action.diagram_matrix.calls": ("tensor_action.diagram_matrix", "calls"),
    "tensor_action.diagram_matrix.s": ("tensor_action.diagram_matrix", "s"),
    "linalg.kron_power.s": ("linalg.kron_power", "s"),
    "linalg.exact_elim.s": ("linalg.exact_elim", "s"),
    "linalg.exact_elim.calls": ("linalg.exact_elim", "calls"),
    "linalg.exact_elim.max_rows": ("linalg.exact_elim", "max:rows"),
    "linalg.exact_elim.max_cols": ("linalg.exact_elim", "max:cols"),
    "linalg.float_decomp.s": ("linalg.float_decomp", "s"),
    "linalg.float_decomp.max_n": ("linalg.float_decomp", "max:n"),
    "linalg.SpanTracker.add_matrix.calls": ("linalg.SpanTracker.add_matrix", "calls"),
    "linalg.SpanTracker.add_matrix.accepted": ("linalg.SpanTracker.add_matrix", "sum:accepted"),
    "linalg.SpanTracker.add_matrix.accept_ratio": ("linalg.SpanTracker.add_matrix",
                                                   "ratio:accepted"),
    "linalg.SpanTracker.add_matrix.s": ("linalg.SpanTracker.add_matrix", "s"),
    "linalg.nullspace.s": ("linalg.nullspace", "s"),
    "duality.commutant_dimension.s": ("duality.commutant_dimension", "s"),
    "duality.commutant_dimension.self_s": ("duality.commutant_dimension", "self"),
    "duality.commutant_dimension.calls": ("duality.commutant_dimension", "calls"),
    "duality.commutant_dimension.max_unknowns": ("duality.commutant_dimension", "max:unknowns"),
    "duality.diagram_image_dimension.s": ("duality.diagram_image_dimension", "s"),
    "duality.image_gram_rank.s": ("duality.image_gram_rank", "s"),
    "duality.image_gram_rank.self_s": ("duality.image_gram_rank", "self"),
    "duality.image_gram_rank.diagrams": ("duality.image_gram_rank", "max:diagrams"),
    "duality.enveloping_span_dimension.s": ("duality.enveloping_span_dimension", "s"),
    "duality.center_dimension.s": ("duality.center_dimension", "s"),
    "diagrams.enumerate_diagrams.s": ("diagrams.enumerate_diagrams", "s"),
    "diagrams.enumerate_diagrams.count": ("diagrams.enumerate_diagrams", "sum:count"),
    "diagrams.compose.calls": ("diagrams.compose", "counter"),
    "diagrams.verify_presentation.s": ("diagrams.verify_presentation", "s"),
    "cache.MatrixCache.get_or_build.calls": ("cache.MatrixCache.get_or_build", "calls"),
    "cache.MatrixCache.get_or_build.hits": ("cache.MatrixCache.get_or_build", "sum:hit"),
    "cache.MatrixCache.get_or_build.hit_ratio": ("cache.MatrixCache.get_or_build", "ratio:hit"),
    "cache.MatrixCache.get_or_build.s": ("cache.MatrixCache.get_or_build", "s"),
    "density.independence_test.s": ("density.independence_test", "s"),
    "density.finite_order_detect.s": ("density.finite_order_detect", "s"),
    "trace.overhead_s": ("trace.overhead", "overhead"),
}


def _span_stats(dumps: list[dict]) -> dict[str, dict]:
    """Per span name: calls, outermost inclusive time, self time, attributes."""
    stats: dict[str, dict] = {}
    for dump in dumps:
        by_id = {s["id"]: s for s in dump["spans"]}
        child_time: dict[int, float] = {}
        for s in dump["spans"]:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in dump["spans"]:
            st = stats.setdefault(s["name"], {"calls": 0, "s": 0.0, "self": 0.0, "attrs": {}})
            dur = s["end"] - s["start"]
            st["calls"] += 1
            st["self"] += dur - child_time.get(s["id"], 0.0)
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != s["name"]:
                parent = by_id.get(parent["parent"])
            if parent is None:
                st["s"] += dur
            for key, value in s.items():
                if key not in ("id", "name", "op", "parent", "start", "end"):
                    st["attrs"].setdefault(key, []).append(value)
    return stats


def per_layer_metrics(dumps: list[dict], import_s: list[float],
                      overhead_s: float) -> dict[str, float]:
    stats = _span_stats(dumps)
    counters: dict[str, int] = {}
    for dump in dumps:
        for name, count in dump["counters"].items():
            counters[name] = counters.get(name, 0) + count
    out = {}
    for metric, (name, stat) in PER_LAYER.items():
        st = stats.get(name, {"calls": 0, "s": 0.0, "self": 0.0, "attrs": {}})
        if stat == "import":
            value = statistics.median(import_s)
        elif stat == "overhead":
            value = overhead_s
        elif stat == "counter":
            value = counters.get(name, 0)
        elif stat in ("s", "self", "calls"):
            value = st[stat]
        else:
            how, attr = stat.split(":")
            values = st["attrs"].get(attr, [])
            if how == "max":
                value = max(values, default=0)
            elif how == "sum":
                value = sum(values)
            else:
                value = sum(values) / len(values) if values else 0.0
        out[metric] = value
    return out
