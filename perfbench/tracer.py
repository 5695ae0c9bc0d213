"""Span tracer that wraps the library's functions from outside `src/`.

`Tracer.install()` replaces each wrapped function or method in every
`cumulantcalc` module namespace (or class) that binds it, so the
`from .x import y` copies in `identities`, `cli` and `cumulants` are
traced too, and `restore()` puts every original back.  Each call to a
wrapper records one span (name, start, end, parent, op id) in flat arrays;
a generator records one span per item it yields.  Collector pauses are
recorded apart, through `gc.callbacks`, with the span they interrupted.

A span's self time is its duration minus the durations of its direct
children and of the pauses that interrupted it; a layer's self time is the
sum over the spans of that layer.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

#: the layers, in the order the metrics are printed
LAYERS = ("partitions", "algebra", "cumulants", "forests", "graphs",
          "permutations", "identities", "cli")

#: per-call leaf predicates and constructors left unwrapped: they run once
#: per pruning step or per table cell, so a span each would cost more than
#: the work it measures; their time counts to the caller's layer
UNWRAPPED = {
    "partitions": {"catalan_number", "blocks_cross", "block_nests_inside", "hulls_intersect"},
    "algebra": {"moment_symbol", "rational_to_str", "rational_from_str"},
    "graphs": {"graph_to_json", "graph_to_dot"},
    "identities": {"identity_names", "identity_limit"},
}

#: functions whose spans carry a group name instead of `<layer>.<function>`
GROUPS = {
    "cumulants": {
        "cumulants_from_moments": "convert",
        "moments_from_cumulants": "convert",
        "monotone_dilate": "convert",
        "convert_sequence": "convert",
        "determinant_cumulants": "determinant",
        "determinant_moments": "determinant",
        "beta": "beta",
        "beta_formula": "beta",
        "beta_recursive": "beta",
        "build_beta_table": "beta",
    },
    "algebra": {
        "bernoulli_polynomial": "poly",
        "bernoulli_number": "poly",
        "faulhaber_polynomial": "poly",
    },
}

#: algebra methods: span name per class attribute (aliases such as
#: `__rmul__ = __mul__` are found by identity and share the wrapper)
METHODS = {
    "MomentPolynomial": {
        "__add__": "mpoly_add",
        "__sub__": "mpoly_add",
        "__mul__": "mpoly_mul",
        "relabel": "mpoly_relabel",
        "univariate": "mpoly_univariate",
    },
    "TruncatedSeries": "series",
    "Polynomial": "poly",
}

#: the operator methods wrapped when a whole class is (besides public ones)
ARITHMETIC = {"__add__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
              "__truediv__"}

#: lru-cached functions whose hit ratio is reported, as metric prefix
CACHES = {
    ("partitions", "partitions_of"): "partitions.partitions_of",
    ("cumulants", "cumulant_poly"): "cumulants.cumulant_poly",
    ("cumulants", "partitioned_cumulant"): "cumulants.partitioned_cumulant",
    ("forests", "partition_tree_factorial"): "forests.partition_tree_factorial",
}


def _module(layer: str):
    return importlib.import_module(f"cumulantcalc.{layer}")


def _package_namespaces() -> list:
    """Every namespace of the package that may bind a wrapped function."""
    spaces = [vars(importlib.import_module("cumulantcalc"))]
    spaces += [vars(_module(layer)) for layer in LAYERS]
    return spaces


def _public_functions(layer: str) -> dict:
    """name -> function for the public functions `layer` defines itself."""
    mod = _module(layer)
    skip = UNWRAPPED.get(layer, set())
    out = {}
    for name, value in vars(mod).items():
        if name.startswith("_") or name in skip:
            continue
        target = getattr(value, "__wrapped__", value)
        if inspect.isfunction(target) and target.__module__ == mod.__name__:
            out[name] = value
    return out


def _method_targets() -> list:
    """(class, attribute, span name) for the wrapped algebra methods."""
    algebra = _module("algebra")
    out = []
    for cls_name, spec in METHODS.items():
        cls = getattr(algebra, cls_name)
        if isinstance(spec, str):
            spec = {attr: spec for attr in vars(cls)
                    if not attr.startswith("_") or attr in ARITHMETIC}
        span_of = {id(vars(cls)[attr]): span for attr, span in spec.items()}
        for attr, value in vars(cls).items():
            if inspect.isfunction(value) and id(value) in span_of:
                out.append((cls, attr, f"algebra.{span_of[id(value)]}"))
    return out


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.gc_spans: list[tuple[float, float, int]] = []
        self._gc_start = None

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        idx = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _gc_callback(self, phase, info):
        # Collections are kept apart from the span arrays: a collection can
        # start in the middle of open(), between two of its appends.
        if phase == "start":
            self._gc_start = (perf_counter(), self.stack[-1] if self.stack else -1)
        elif self._gc_start is not None:
            start, parent = self._gc_start
            self._gc_start = None
            self.gc_spans.append((start, perf_counter(), parent))

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name: str):
        """A traced stand-in for fn that keeps its lru-cache handles."""
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn)):
            wrapper = self._wrap_generator(fn, nid, name)
        else:
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

        for handle in ("cache_info", "cache_clear"):
            if hasattr(fn, handle):
                setattr(wrapper, handle, getattr(fn, handle))
        return wrapper

    def _wrap_generator(self, fn, nid: int, name: str):
        tracer = self
        items = f"{name}.items"

        def traced(gen):
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counters[items] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return traced(fn(*args, **kwargs))

        return wrapper

    def _wrap_mul(self, fn, name: str):
        """mpoly_mul also counts the term pairs it multiplies."""
        inner = self.wrap(fn, name)
        counters = self.counters
        pairs = f"{name}.term_pairs"

        @functools.wraps(fn)
        def wrapper(a, b):
            terms = getattr(b, "terms", None)
            if terms is not None:
                counters[pairs] += len(a.terms) * len(terms)
            return inner(a, b)

        return wrapper

    def _wrap_verify(self, fn):
        """verify_identity records one span per identity: `identities.<name>`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(name, n):
            return tracer.span(f"identities.{name}", fn, name, n)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        spaces = _package_namespaces()
        for layer in LAYERS:
            groups = GROUPS.get(layer, {})
            for fname, fn in _public_functions(layer).items():
                if (layer, fname) == ("identities", "verify_identity"):
                    wrapper = self._wrap_verify(fn)
                else:
                    wrapper = self.wrap(fn, f"{layer}.{groups.get(fname, fname)}")
                for space in spaces:
                    for attr, value in list(space.items()):
                        if value is fn:
                            self._patched.append((space, attr, fn))
                            space[attr] = wrapper
        wrappers: dict[int, object] = {}
        for cls, attr, span in _method_targets():
            fn = vars(cls)[attr]
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                make = self._wrap_mul if span == "algebra.mpoly_mul" else self.wrap
                wrapper = wrappers[id(fn)] = make(fn, span)
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, wrapper)
        gc.callbacks.append(self._gc_callback)

    def restore(self) -> None:
        """Put back every original binding, in reverse order."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def span_times(self) -> tuple[list[float], list[float]]:
        """(duration, self time) of every span, by span index."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        for s, e, p in self.gc_spans:
            if p >= 0:
                child[p] += e - s
        return dur, [d - c for d, c in zip(dur, child)]

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        dur, self_s = self.span_times()
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for i, nid in enumerate(self.name_of):
            row = out[names[nid]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += self_s[i]
        return out

    def gc_seconds(self) -> float:
        return sum(e - s for s, e, _ in self.gc_spans)

    def root_seconds(self) -> float:
        """Summed duration of the spans and collections with no parent."""
        spans = sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)
        return spans + sum(e - s for s, e, p in self.gc_spans if p < 0)


def cache_stats() -> dict:
    """hits and lookups of the reported lru caches, keyed by metric prefix."""
    out = {}
    for (layer, fname), prefix in CACHES.items():
        info = getattr(_module(layer), fname).cache_info()
        out[prefix] = {"hits": info.hits, "lookups": info.hits + info.misses}
    return out
