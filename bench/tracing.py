"""Spans and counts at the boundaries of the package's modules (layers).

The tracer replaces a fixed set of public functions by wrappers, in every
jacobiflow module that binds them (modules import names directly, so
``contour.herglotz_k`` and ``flow.laguerre`` are separate bindings of one
function object).  Each wrapped call becomes a span (name, start, end,
parent), kept in memory; per-layer metrics are computed from the spans when
the run ends.  ``pochhammer`` is only counted: it is called tens of
thousands of times per operation, and its time stays with its caller.

A span opened in another thread (``sweep --jobs N`` evaluates its grid in a
thread pool) with no open span of its own takes as parent the span open in
the thread that installed the tracer, and a span's self time subtracts the
union of its children's intervals, so parallel children are not counted
twice.

A name that a later version of the package no longer defines is skipped,
and the metrics derived from it are absent from the report.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "flow", "specfun", "powerseries", "maps", "contour", "verify")

SPANNED = {
    "cli": ("main",),
    "flow": ("phi_inv_coeffs", "a_coeff", "b_coeff", "s_coeff", "pnm_poly",
             "m_series_coeffs", "s_series_coeffs", "binom_transform",
             "inv_binom_transform", "jacobi_moments"),
    "specfun": ("laguerre", "jacobi_poly", "charlier"),
    "powerseries": ("series_revert", "series_compose", "series_sqrt", "series_derive"),
    "maps": ("herglotz_k", "v_deformed", "phi", "big_phi", "psi", "m_zero",
             "phi_series", "big_phi_series", "k_series_coeff"),
    "contour": ("admissible_contour", "m_integral_detailed", "circle_quadrature",
                "pkm_residue", "laguerre_gen_check", "jacobi_gen_check",
                "nonvanishing_check", "geom_ratio_check"),
    "verify": ("run_checks",),
}
COUNTED = {"specfun": ("pochhammer",)}
COUNTS = {  # counts taken from a wrapped call's arguments or result
    "maps.herglotz_k": ("maps.herglotz_k.points", "maps.herglotz_k.far_points"),
    "contour.m_integral_detailed": ("contour.samples",),
    "verify.run_checks": ("verify.entries",),
}
FAR = 0.5  # |y| beyond which herglotz_k continues each point along its own ray
PACKAGE = "jacobiflow"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = None  # the installing thread's span stack
        self._lock = threading.Lock()  # counts are updated from worker threads too
        self._patched: list[tuple] = []
        self._pnm_cache = None

    # -- installation --------------------------------------------------------

    def install(self):
        self._home = self._local.stack = []
        modules = {layer: sys.modules.get(f"{PACKAGE}.{layer}") for layer in LAYERS}
        pnm = getattr(modules["flow"], "pnm_poly", None)
        if hasattr(pnm, "cache_info"):
            self._pnm_cache = (pnm, pnm.cache_info())
        for layer, names in list(SPANNED.items()) + list(COUNTED.items()):
            for name in names:
                fn = getattr(modules[layer], name, None)
                if not callable(fn):  # dropped by a later version: its metrics go absent
                    continue
                if name in COUNTED.get(layer, ()):
                    wrapper = self._counter(f"{layer}.{name}", fn)
                else:
                    wrapper = self._spanner(f"{layer}.{name}", fn)
                self._rebind(fn, wrapper)

    def _rebind(self, fn, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _counter(self, key, fn):
        calls, lock = self.calls, self._lock
        calls[key] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, key, fn):
        index = len(self.names)
        self.names.append(key)
        spans, ids, local, tracer = self.spans, self._ids, self._local, self
        observe = None
        if key in COUNTS:
            self.counts.update(dict.fromkeys(COUNTS[key], 0))
            observe = functools.partial(self._observe, key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            home = tracer._home
            parent = stack[-1] if stack else (home[-1] if home else -1)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, start, end, parent))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return spanned

    def _observe(self, key, args, kwargs, result):
        if key == "maps.herglotz_k":
            y = np.abs(np.asarray(args[1] if len(args) > 1 else kwargs["y"]))
            found = {"maps.herglotz_k.points": int(y.size),
                     "maps.herglotz_k.far_points": int(np.count_nonzero(y > FAR))}
        elif key == "contour.m_integral_detailed":
            found = {"contour.samples": int(getattr(result, "samples", 0))}
        else:
            found = {"verify.entries": len(getattr(result, "entries", ()))}
        with self._lock:
            self.counts.update(found)

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name: .calls and .s per wrapped function
        (.s is inclusive, counting nested calls of one function once),
        <layer>.self_s, and the counts taken at the boundaries."""
        by_id = {sid: (index, start, end, parent) for sid, index, start, end, parent in self.spans}
        children = defaultdict(list)
        for index, start, end, parent in by_id.values():
            if parent >= 0:
                children[parent].append((start, end))
        child_time = {sid: _covered(intervals) for sid, intervals in children.items()}
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        inclusive = defaultdict(float)
        calls = Counter(self.calls)
        for sid, (index, start, end, parent) in by_id.items():
            name = self.names[index]
            duration = end - start
            out[name.split(".")[0] + ".self_s"] += duration - child_time.get(sid, 0.0)
            calls[name] += 1
            ancestor = parent
            while ancestor >= 0 and by_id[ancestor][0] != index:
                ancestor = by_id[ancestor][3]
            if ancestor < 0:
                inclusive[name] += duration
        for name in self.names:
            out[f"{name}.s"] = inclusive[name]
        for name in list(self.names) + list(self.calls):
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        if self._pnm_cache is not None:
            fn, before = self._pnm_cache
            after = fn.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            out["flow.pnm_poly.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("id,name,start_s,end_s,parent\n")
            for sid, index, start, end, parent in sorted(self.spans):
                handle.write(f"{sid},{self.names[index]},{start:.9f},{end:.9f},{parent}\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
