"""Span tracing of trunkpack's public functions, installed from outside.

``Tracer.install()`` replaces each function in ``LAYERS`` with a timing
wrapper in *every* trunkpack module that binds it, so a call made through a
``from trunkpack.geometry import convex_hull`` alias is seen too.  Spans are
aggregated as they close, keyed by (parent span, span), which keeps memory
flat on runs with hundreds of thousands of calls while still giving each
function its self time (duration minus the time its traced children cover).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped at that layer's boundary.  Small helpers
# below the boundary (dot3, to_fraction, Point3 methods) are left alone:
# they run millions of times and wrapping them would swamp the measurement.
LAYERS = {
    "geometry": ("convex_hull", "minkowski_sum_convex", "intersect_halfspaces",
                 "fm_feasible", "polytopes_touch"),
    "freespace": ("load_trunk", "raw_feasible_region", "erode_hull",
                  "clip_obstacle", "describe_region", "classify_feasible",
                  "region_from_dict"),
    "simplify": ("merge_obstacles", "drop_facets"),
    "lp": ("build_lp", "solve", "maximize_direction"),
    "search": ("enumerate_patterns", "detect_intersections",
               "validate_packing"),
}

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)      # name -> calls
        self.total = defaultdict(float)    # name -> s, outermost calls only
        self.self_s = defaultdict(float)   # name -> self s
        self.edges = defaultdict(int)      # (parent, name) -> calls
        self.counts = defaultdict(int)     # name.counter -> value
        self._stack = []                   # [name, child seconds]
        self._active = defaultdict(int)
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, name, fn, observe):
        stack, active = self._stack, self._active
        calls, total, self_s, edges = (self.calls, self.total, self.self_s,
                                       self.edges)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                edges[(parent, name)] += 1
                self_s[name] += dt - frame[1]
                if not active[name]:
                    total[name] += dt
                if stack:
                    stack[-1][1] += dt
                if observe is not None:
                    observe(counts, parent, args, kwargs, result, exc)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a trunkpack module binds
        it.  Modules must already be imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trunkpack"
                                         or n.startswith("trunkpack."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"trunkpack.{layer}"]
            for fname in names:
                fn = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", fn,
                                     _OBSERVERS.get(f"{layer}.{fname}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_s),
            "edges": {f"{p} > {n}": c for (p, n), c in self.edges.items()},
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# per-function observers: counts taken at the same boundary as the span


def _facets(region) -> int:
    return len(region.hull.halfspaces) + sum(len(o.halfspaces)
                                             for o in region.obstacles)


def _touch(counts, parent, args, kwargs, result, exc):
    if result:
        counts["geometry.polytopes_touch.true"] += 1


def _intersect(counts, parent, args, kwargs, result, exc):
    halfspaces = args[0] if args else kwargs["halfspaces"]
    bounding = args[1] if len(args) > 1 else kwargs["bounding"]
    # only sized inputs are counted: consuming an iterator would change
    # what the wrapped call sees
    if hasattr(halfspaces, "__len__"):
        counts["geometry.intersect_halfspaces.rows"] += (
            len(halfspaces) + len(bounding.halfspaces))
        counts["geometry.intersect_halfspaces.sized"] += 1


def _classify(counts, parent, args, kwargs, result, exc):
    pts = args[0] if args else kwargs["pts"]
    counts["freespace.classify_feasible.points"] += len(pts)


def _describe(counts, parent, args, kwargs, result, exc):
    raw = args[0] if args else kwargs["raw"]
    counts["freespace.obstacles_clipped"] += len(raw.obstacles)
    if result is not None:
        counts["freespace.obstacles_kept"] += len(result.obstacles)


def _merge(counts, parent, args, kwargs, result, exc):
    if exc is not None:
        return
    region = args[0] if args else kwargs["region"]
    merged, log = result
    counts["simplify.merges"] += len(log)
    counts["simplify.obstacles_in"] += len(region.obstacles)
    counts["simplify.facets_in"] += _facets(region)


def _drop(counts, parent, args, kwargs, result, exc):
    if exc is not None:
        return
    final, log = result
    counts["simplify.drops"] += sum(1 for e in log
                                    if e.get("status") == "dropped")
    counts["simplify.obstacles_out"] += len(final.obstacles)
    counts["simplify.facets_out"] += _facets(final)


def _solve(counts, parent, args, kwargs, result, exc):
    lp = args[0] if args else kwargs["lp"]
    m, n = lp.A.shape
    counts["lp.solve.rows"] += m
    counts["lp.solve.cols"] += n
    if exc is not None:
        counts["lp.failures"] += 1
    if parent == "search.enumerate_patterns":
        counts["search.lp_solves"] += 1
        if exc is None and result.feasible:
            counts["search.lp_feasible"] += 1


def _enumerate(counts, parent, args, kwargs, result, exc):
    if exc is not None:
        return
    for key, value in result.stats.as_dict().items():
        if type(value) is int:
            counts[f"search.stats.{key}"] += value


_OBSERVERS = {
    "geometry.polytopes_touch": _touch,
    "geometry.intersect_halfspaces": _intersect,
    "freespace.classify_feasible": _classify,
    "freespace.describe_region": _describe,
    "simplify.merge_obstacles": _merge,
    "simplify.drop_facets": _drop,
    "lp.solve": _solve,
    "search.enumerate_patterns": _enumerate,
}
