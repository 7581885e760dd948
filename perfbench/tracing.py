"""Outside-in span tracing of the biphoton package.

`Tracer.install()` replaces every public function (and every public plain
method of a public class) of the layer modules with a wrapper that records a
span, and rebinds every name under which another biphoton module imported
the original, so nested calls record as child spans.  Nothing under `src/`
is edited; the patch lives in memory for the life of the process.

Spans are recorded only inside `Tracer.op(op_id)`, so checks made between
ops never show up.  A span is (id, name, parent, start, end, thread, op,
computed counters).  Layer metrics are derived from the spans by
`layer_metrics`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("grids", "states", "amplitudes", "interference", "mzi")

COMPLEX_BYTES = 16


def _median(values):
    return statistics.median(values) if values else 0.0


def _gram_work(args, kwargs):
    # One call evaluates two (R x n^2) by (n^2 x R) Grams of complex128
    # factors: 2 R^2 n^2 complex multiply-adds, reading 2 (R + R) n^2 values.
    amp = args[0] if args else kwargs["amp"]
    r, n2 = amp.rank, amp.grid.n ** 2
    return {"gram_cmacs": 2 * r * r * n2,
            "gram_bytes": 2 * (r + r) * n2 * COMPLEX_BYTES}


def _mzi_path(fn, args, kwargs):
    # The fast path serves the thin-crystal source (None or beam parameters);
    # an explicit two-photon amplitude takes the generic low-rank path.
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if hasattr(bound.arguments["source"], "photon1"):
        return {"path": "generic"}
    n = bound.arguments["grid_n"]
    return {"path": "fast", "conv_points": 3 * (2 * n - 1) ** 2}


def _state_result(result):
    err = getattr(result, "truncation_error", None)
    return {"rank": result.rank, "truncation_error": err or 0.0}


# Computed counters, taken from argument shapes at the call boundary.
_BEFORE = {
    "amplitudes.norm_squared": lambda fn, a, k: _gram_work(a, k),
    "amplitudes.sigma_overlap": lambda fn, a, k: _gram_work(a, k),
    "mzi.mzi_coincidence": _mzi_path,
}
_AFTER = {
    "states.bell_state": _state_result,
    "states.product_state": _state_result,
    "states.spdc_state": _state_result,
    "states.thin_crystal_gaussian": _state_result,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = {"id": next(tracer._ids), "name": name,
                    "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident(), "op": op}
            if before:
                span.update(before(fn, args, kwargs))
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after:
                span.update(after(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap the layer modules' public functions and rebind every alias."""
        import biphoton  # noqa: F401  (loads every submodule)

        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"biphoton.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, mname,
                                    self.wrap(f"{layer}.{attr}.{mname}", meth))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "biphoton" and not mod_name.startswith("biphoton."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        mzi = sys.modules["biphoton.mzi"]
        pool = getattr(mzi, "ThreadPoolExecutor", None)
        if pool is not None:
            mzi.ThreadPoolExecutor = self._propagating_pool(pool)

    def _propagating_pool(self, base):
        # Work submitted to a pool records its spans as children of the span
        # that submitted it, so parallel scan rows nest under `mzi.scan`.
        tracer = self

        class Pool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **k):
                    inner = tracer._stack()
                    inner.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        inner.pop()

                return super().submit(run, *args, **kwargs)

        return Pool

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the time its child spans cover.  Spans are
    keyed by (op, id) so span lists merged from several processes stay
    apart."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["op"], s["parent"]), []).append(
                (s["start"], s["end"]))
    return [s["end"] - s["start"]
            - _covered(children.get((s["op"], s["id"]), ()), s["start"], s["end"])
            for s in spans]


def layer_metrics(spans):
    """Per-layer metrics of the per_layer table that come from spans."""
    selfs = self_times(spans)
    by_name, self_by_name = {}, {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append(s)
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + st

    def calls(name):
        return len(by_name.get(name, ()))

    def p50(name, path=None):
        return _median([s["end"] - s["start"] for s in by_name.get(name, ())
                        if path is None or s.get("path") == path])

    m = {}
    for layer in LAYERS:
        prefix = layer + "."
        m[f"{layer}.calls"] = sum(len(v) for k, v in by_name.items()
                                  if k.startswith(prefix))
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items()
                                   if k.startswith(prefix))
    states = [s for s in spans if "rank" in s]
    m["states.hermite_gaussian.calls"] = calls("states.hermite_gaussian")
    m["states.spdc_state.p50_s"] = p50("states.spdc_state")
    m["states.thin_crystal_gaussian.p50_s"] = p50("states.thin_crystal_gaussian")
    m["states.rank_max"] = max((s["rank"] for s in states), default=0)
    m["states.truncation_err_max"] = max(
        (s["truncation_error"] for s in states), default=0.0)

    for fn in ("norm_squared", "sigma_overlap", "normalize"):
        m[f"amplitudes.{fn}.calls"] = calls(f"amplitudes.{fn}")
    for fn in ("symmetry_decompose", "position_representation"):
        m[f"amplitudes.{fn}.self_s"] = self_by_name.get(f"amplitudes.{fn}", 0.0)
    gram = [s for s in spans if "gram_cmacs" in s]
    m["amplitudes.gram_cmacs"] = sum(s["gram_cmacs"] for s in gram)
    m["amplitudes.gram_bytes"] = sum(s["gram_bytes"] for s in gram)
    gram_s = (self_by_name.get("amplitudes.norm_squared", 0.0)
              + self_by_name.get("amplitudes.sigma_overlap", 0.0))
    m["amplitudes.gram_gflop_per_s"] = (
        8.0 * m["amplitudes.gram_cmacs"] / gram_s / 1e9 if gram_s > 0 else 0.0)

    m["interference.coincidence_probability.calls"] = calls(
        "interference.coincidence_probability")
    m["interference.beamsplitter_output.self_s"] = self_by_name.get(
        "interference.beamsplitter_output", 0.0)

    mzi = by_name.get("mzi.mzi_coincidence", [])
    m["mzi.fast.calls"] = sum(1 for s in mzi if s["path"] == "fast")
    m["mzi.fast.p50_s"] = p50("mzi.mzi_coincidence", "fast")
    m["mzi.fast.conv_points"] = sum(s.get("conv_points", 0) for s in mzi)
    m["mzi.generic.calls"] = sum(1 for s in mzi if s["path"] == "generic")
    m["mzi.generic.p50_s"] = p50("mzi.mzi_coincidence", "generic")
    for fn in ("delta_limit_oracle", "scan"):
        m[f"mzi.{fn}.self_s"] = self_by_name.get(f"mzi.{fn}", 0.0)
    return m
