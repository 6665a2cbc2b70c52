"""Span tracing around winfer's public functions, from outside the library.

``Tracer.patch()`` replaces each traced function with a wrapper in every
binding that holds it: the defining module, every ``winfer`` module that
imported it (under any name), and dicts such as ``verify.SUITES``.  Bindings
are found by object identity, so helpers that later refactors rename on
import are still covered; a traced name that no longer exists is recorded as
absent and its metrics read 0.  ``Tracer.unpatch()`` restores every binding.

A span records name, start, end, parent span and item id, in flat arrays kept
in memory and written out by ``save()``.  Self time is a span's duration minus
the time its direct children cover (calls nest, one thread).  Counters
(calls, integrand points, density and weight points, Gauss-Hermite nodes)
are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# layer -> (module, attribute names); each name is a module-level function
FUNCTION_LAYERS = {
    "core.integrate": ("winfer.core", ("integrate",)),
    "core.gauss_hermite_nodes": ("winfer.core", ("gauss_hermite_nodes",)),
    "divergence.weight_mass": ("winfer.divergence", ("weight_mass",)),
    "divergence.quantities": ("winfer.divergence", (
        "weighted_tv", "weighted_tv_sup_oracle", "delta", "hellinger",
        "bhattacharyya_coeff", "kl", "chernoff_coeff", "chernoff_div", "renyi_div",
        "tsallis_div", "bhattacharyya_div", "shannon_entropy", "renyi_entropy",
        "renyi_entropy_ext")),
    "expfam.closed_form": ("winfer.expfam", (
        "bregman", "weighted_bregman", "expfam_kl", "expfam_shannon", "expfam_renyi",
        "burbea_rao", "expfam_chernoff", "expfam_bhattacharyya",
        "adjoint_coefficients", "gaussian_tv_closed_form")),
    "testing.error_bound_report": ("winfer.testing", ("error_bound_report",)),
    "testing.nfold_error_bounds": ("winfer.testing", ("nfold_error_bounds",)),
    "testing.stein_sanov": ("winfer.testing", ("stein_sanov_empirical",)),
    "estimation.weighted_fisher_aux": ("winfer.estimation", ("weighted_fisher_aux",)),
    "estimation.weighted_fisher": ("winfer.estimation", ("weighted_fisher",)),
    "estimation.check_regularity": ("winfer.estimation", ("check_regularity",)),
    "estimation.cramer_rao": ("winfer.estimation", ("cramer_rao_A", "cramer_rao_B")),
    "estimation.van_trees": ("winfer.estimation", ("van_trees",)),
    "randinst.instances": ("winfer.randinst", (
        "random_finite_problem", "random_interior_finite_problem",
        "random_continuous_problem")),
    "cli.parse": ("winfer.cli", ("build_parser", "parse_problem_spec")),
    "cli.main": ("winfer.cli", ("main",)),
}
VERIFY_SUITES = ("tv-oracle", "chain", "pinsker", "bretagnolle-huber", "nfold",
                 "bregman-kl", "kl-expansion", "expfam-golden")
# layer -> (module, class, method names)
METHOD_LAYERS = {
    "core.density": ("winfer.core", "Distribution", ("density", "log_density")),
    "core.weight": ("winfer.core", "WeightFunction", ("__call__", "vector_values")),
}

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_METRICS = {
    "core.integrate.calls": "count",
    "core.integrate.series_calls": "count",
    "core.integrate.points": "count",
    "core.integrate.self_s": "s",
    "core.integrate.fail": "count",
    "core.density.points": "count",
    "core.density.self_s": "s",
    "core.weight.points": "count",
    "core.weight.self_s": "s",
    "core.gauss_hermite_nodes.calls": "count",
    "core.gauss_hermite_nodes.nodes": "count",
    "core.gauss_hermite_nodes.self_s": "s",
    "divergence.weight_mass.calls": "count",
    "divergence.weight_mass.repeat_frac": "ratio",
    "divergence.quantities.calls": "count",
    "divergence.quantities.self_s": "s",
    "expfam.closed_form.calls": "count",
    "expfam.closed_form.self_s": "s",
    "testing.error_bound_report.self_s": "s",
    "testing.nfold_error_bounds.self_s": "s",
    "testing.stein_sanov_exact.self_s": "s",
    "testing.stein_sanov_mc.self_s": "s",
    "estimation.weighted_fisher_aux.calls": "count",
    "estimation.weighted_fisher.calls": "count",
    "estimation.check_regularity.calls": "count",
    "estimation.cramer_rao.self_s": "s",
    "estimation.van_trees.self_s": "s",
    **{f"verify.{s}.self_s": "s" for s in VERIFY_SUITES},
    "randinst.instances.calls": "count",
    "randinst.instances.self_s": "s",
    "cli.parse.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_items_per_s": "1/s",
}
COUNT_METRICS = tuple(k for k, unit in PER_LAYER_METRICS.items()
                      if unit == "count" or k.endswith("repeat_frac"))


def _n_points(x, vector: bool) -> int:
    a = np.asarray(x)
    if vector:
        return int(a.shape[0]) if a.ndim > 1 else 1
    return int(a.size)


def _value_hash(obj) -> int:
    try:
        return hash(obj)          # frozen dataclasses hash by value
    except TypeError:             # a field holds an unhashable value
        return hash(repr(obj))


def _mass_key(dist, wf) -> tuple:
    """Hash of a (distribution, weight) input by value: two calls with equal
    keys compute the same weight mass.  Hashes, not reprs or copies, so that
    n-fold tables of millions of entries cost little and are not kept."""
    fin = getattr(dist, "finite", None)
    if fin is not None:
        dkey = hash(np.asarray(fin.pmf).tobytes())
    else:
        params = tuple(sorted((k, np.asarray(v).tobytes()) for k, v in
                              getattr(dist, "params", {}).items()))
        dkey = hash((getattr(dist, "family", ""), params,
                     repr(getattr(dist, "support", None)),
                     repr(getattr(dist, "window", None))))
    return dkey, _value_hash(wf)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_item = array("i")
        self._stack: list = []
        self.item = -1
        self.counts: Counter = Counter()
        self._mass_keys: dict = {}       # item -> set of weight-mass input keys
        self._undo: list = []            # (container, key, original, is_attr)
        self.absent: dict = {}           # layer or name -> reason
        self.bindings: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.sp_start)
        self.sp_name.append(self._name_id(name))
        self.sp_parent.append(self._stack[-1] if self._stack else -1)
        self.sp_item.append(self.item)
        self.sp_end.append(0.0)
        self._stack.append(idx)
        self.sp_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.sp_end[idx] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        """True when the innermost open span is `name` (a nested call of the
        same layer, whose points the outer call already counts)."""
        return bool(self._stack) and self.names[self.sp_name[self._stack[-1]]] == name

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = before(args, kwargs) if before is not None else None
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".fail"] += 1
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, outer)
            return result
        return wrapper

    def _integrate(self, fn):
        tracer = self
        name = "core.integrate"

        @functools.wraps(fn)
        def wrapper(f, support, *args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if getattr(support, "kind", None) == "counting":
                tracer.counts[name + ".series_calls"] += 1

            def counted(x):
                tracer.counts[name + ".points"] += int(np.size(x))
                return f(x)
            idx = tracer.open(name)
            try:
                return fn(counted, support, *args, **kwargs)
            except BaseException:
                tracer.counts[name + ".fail"] += 1
                raise
            finally:
                tracer.close(idx)
        return wrapper

    def _gh(self, fn):
        def after(result, _):
            self.counts["core.gauss_hermite_nodes.nodes"] += int(np.shape(result[0])[0])

        def before(args, kwargs):
            self.counts["core.gauss_hermite_nodes.calls"] += 1
        return self._span("core.gauss_hermite_nodes", fn, before, after)

    def _weight_mass(self, fn):
        def before(args, kwargs):
            self.counts["divergence.weight_mass.calls"] += 1
            dist = args[0] if args else kwargs.get("dist")
            wf = args[1] if len(args) > 1 else kwargs.get("wf")
            self._mass_keys.setdefault(self.item, set()).add(_mass_key(dist, wf))
        return self._span("divergence.weight_mass", fn, before)

    def _counted(self, layer: str, fn):
        def before(args, kwargs):
            self.counts[layer + ".calls"] += 1
        return self._span(layer, fn, before)

    def _stein(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            method = args[2] if len(args) > 2 else kwargs.get("method", "")
            name = f"testing.stein_sanov_{method}"
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def _point_method(self, layer: str, fn):
        tracer = self
        vector_method = fn.__name__ == "vector_values"

        @functools.wraps(fn)
        def wrapper(obj, x, *args, **kwargs):
            if not tracer._inside(layer):
                support = getattr(obj, "support", None)
                vector = vector_method or getattr(support, "kind", "") == "real-vector"
                tracer.counts[layer + ".points"] += _n_points(x, vector)
            idx = tracer.open(layer)
            try:
                return fn(obj, x, *args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def _wrap_function(self, layer: str, fn):
        if layer == "core.integrate":
            return self._integrate(fn)
        if layer == "core.gauss_hermite_nodes":
            return self._gh(fn)
        if layer == "divergence.weight_mass":
            return self._weight_mass(fn)
        if layer == "testing.stein_sanov":
            return self._stein(fn)
        return self._counted(layer, fn)

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> int:
        """Swap `original` for `wrapper` in every winfer module namespace and
        every dict held by one; returns the number of bindings replaced."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "winfer" or modname.startswith("winfer.")):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is original:
                    self._undo.append((mod, key, original, True))
                    setattr(mod, key, wrapper)
                    n += 1
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._undo.append((val, dkey, original, False))
                            val[dkey] = wrapper
                            n += 1
        return n

    def patch(self) -> None:
        for layer, (modname, names) in FUNCTION_LAYERS.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError as exc:
                self.absent[layer] = f"module {modname} not importable: {exc}"
                continue
            found = 0
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.absent[f"{modname}.{name}"] = f"{modname} has no function {name}"
                    continue
                found += 1
                self.bindings[f"{modname}.{name}"] = self._replace_everywhere(
                    fn, self._wrap_function(layer, fn))
            if not found:
                self.absent[layer] = f"none of {', '.join(names)} exists in {modname}"
        try:
            suites = importlib.import_module("winfer.verify").SUITES
        except (ImportError, AttributeError) as exc:
            suites = {}
            self.absent["verify"] = f"winfer.verify.SUITES unavailable: {exc}"
        for suite in VERIFY_SUITES:
            fn = suites.get(suite)
            if fn is None:
                self.absent[f"verify.{suite}"] = f"verify suite {suite} does not exist"
                continue
            self.bindings[f"verify.{suite}"] = self._replace_everywhere(
                fn, self._span(f"verify.{suite}", fn))
        for layer, (modname, clsname, methods) in METHOD_LAYERS.items():
            cls = getattr(importlib.import_module(modname), clsname, None)
            for meth in methods:
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.absent[f"{modname}.{clsname}.{meth}"] = \
                        f"{modname}.{clsname} has no method {meth}"
                    continue
                self._undo.append((cls, meth, fn, True))
                setattr(cls, meth, self._point_method(layer, fn))
                self.bindings[f"{modname}.{clsname}.{meth}"] = 1

    def unpatch(self) -> None:
        for container, key, original, is_attr in reversed(self._undo):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time per span name."""
        if not self.sp_start:
            return {}
        start = np.frombuffer(self.sp_start, dtype=float)
        dur = np.frombuffer(self.sp_end, dtype=float) - start
        parent = np.frombuffer(self.sp_parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        names = np.frombuffer(self.sp_name, dtype=np.uint16)
        per_name = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict:
        """Every per-layer metric except the tracing overhead."""
        selfs = self.self_times()
        out = {}
        for metric in PER_LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s":
                out[metric] = selfs.get(layer, 0.0)
            elif stat == "repeat_frac":
                calls = self.counts["divergence.weight_mass.calls"]
                distinct = sum(len(keys) for keys in self._mass_keys.values())
                out[metric] = 1.0 - distinct / calls if calls else 0.0
            elif layer != "trace":
                out[metric] = self.counts[metric]
        return out

    def save(self, path: str, items: list) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.sp_name, dtype=np.uint16),
                 start=np.frombuffer(self.sp_start, dtype=float),
                 end=np.frombuffer(self.sp_end, dtype=float),
                 parent=np.frombuffer(self.sp_parent, dtype=np.int32),
                 item=np.frombuffer(self.sp_item, dtype=np.int32),
                 items=np.array(items))
