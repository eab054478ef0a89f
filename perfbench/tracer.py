"""Per-function spans for the traced run, installed from outside latq.

Every public function of every latq module is replaced, in each module
namespace that binds it, by a wrapper that records its call count, its
inclusive time and its self time (inclusive time minus the time covered by
wrapped callees).  A few wrappers also add work counters computed from the
arguments or the result.  Nothing is printed: the numbers stay in memory
until ``snapshot`` hands them to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import types
from collections import defaultdict
from math import isqrt

MODULES = ("lattices", "qseries", "siegel", "polarisation", "kodaira", "weyl", "cli")
# public methods that are layer boundaries of their own
METHODS = (("qseries", "QSeries", ("__mul__", "__rmul__")),)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# work counters: metric name -> f(arguments, result) -> amount.  A DP "cell"
# is one table entry written by one coordinate pass of the counting model.
def _cells_sum_zero(p, _):
    max_sq = 2 * (p["prec"] - 1)
    return p["n_coords"] * (max_sq + 1) * (2 * p["n_coords"] * isqrt(max_sq) + 1)


def _cells_even_sum(p, _):
    return p["n_coords"] * (2 * (p["prec"] - 1) + 1) * 2


def _cells_e7(p, _):
    max_sq = 8 * (p["prec"] - 1)
    return 2 * 8 * (max_sq + 1) * (2 * 8 * isqrt(max_sq) + 1)


COUNTERS = {
    "lattices.counts_sum_zero": (("lattices.counts_sum_zero.cells", _cells_sum_zero),),
    "lattices.counts_even_sum": (("lattices.counts_even_sum.cells", _cells_even_sum),),
    "lattices.counts_e7": (("lattices.counts_e7.cells", _cells_e7),),
    "lattices.enumerate_norm": (("lattices.enumerate_norm.vectors", lambda p, r: len(r)),),
    # objects x generators; the workloads only pass root-basis lattices, whose
    # default generators are the rank many simple reflections
    "lattices.reflection_orbits": (
        (
            "lattices.reflection_orbits.images",
            lambda p, r: sum(r[1]) * (len(p["generators"]) if p["generators"] is not None else p["L"].rank),
        ),
    ),
    "kodaira.search": (("kodaira.search.shell_vectors", lambda p, r: r.shell_size),),
    "siegel.zagier_L_numeric": (("siegel.zagier_L_numeric.terms", lambda p, r: p["terms"]),),
    "siegel.local_density_oracle": (("siegel.local_density_oracle.residues", lambda p, r: p["p"] ** p["a"]),),
    "qseries.load_theta_cache": (("qseries.theta_cache.bytes", lambda p, r: _file_size(p["path"])),),
    "qseries.save_theta_cache": (("qseries.theta_cache.bytes", lambda p, r: _file_size(p["path"])),),
}


class Tracer:
    """Wraps latq's public functions and aggregates their spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # time covered by wrapped callees, one slot per open span
        self._patched = []  # (namespace, attribute, original)
        self.originals = {}  # metric name -> unwrapped callable

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, ())
        signature = inspect.signature(fn) if counters else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*a, **k):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*a, **k)
            finally:
                elapsed = time.perf_counter() - t0
                covered = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
            if counters:
                bound = signature.bind(*a, **k)
                bound.apply_defaults()
                params = bound.arguments
                for metric, count in counters:
                    self.counts[metric] += count(params, result)
            return result

        wrapper._bench_original = fn
        return wrapper

    def install(self):
        """Wrap every public latq function in every namespace that binds it."""
        import latq

        wrappers = {}
        namespaces = [latq] + [importlib.import_module(f"latq.{m}") for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or isinstance(obj, (type, types.ModuleType)) or not callable(obj):
                    continue
                module = getattr(obj, "__module__", None) or ""
                if not module.startswith("latq."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{module[len('latq.'):]}.{obj.__qualname__}"
                    self.originals[name] = obj
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patched.append((ns, attr, obj))
                setattr(ns, attr, wrappers[id(obj)])
        for mod, cls_name, attrs in METHODS:
            cls = getattr(importlib.import_module(f"latq.{mod}"), cls_name)
            for attr in attrs:
                obj = cls.__dict__[attr]
                if id(obj) not in wrappers:
                    name = f"{mod}.{obj.__qualname__}"
                    self.originals[name] = obj
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patched.append((cls, attr, obj))
                setattr(cls, attr, wrappers[id(obj)])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def add_search_cache(self):
        """Fold kodaira.search's cache statistics into the counters."""
        info = self.originals["kodaira.search"].cache_info()
        self.counts["kodaira.search.cache_hits"] += info.hits
        self.counts["kodaira.search.cache_misses"] += info.misses

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def merge(snapshots) -> dict:
    """Sum several snapshots (for example one per CLI child)."""
    out = {"calls": defaultdict(int), "total_s": defaultdict(float), "self_s": defaultdict(float), "counts": defaultdict(int)}
    for snap in snapshots:
        for part, table in snap.items():
            for key, value in table.items():
                out[part][key] += value
    return {part: dict(table) for part, table in out.items()}


def reset_latq_caches():
    """Empty every functools cache in latq, so that each round does the same work."""
    import latq

    for ns in [latq] + [importlib.import_module(f"latq.{m}") for m in MODULES]:
        for obj in vars(ns).values():
            obj = getattr(obj, "_bench_original", obj)
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()
