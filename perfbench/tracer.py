"""Span tracer that wraps powertail's public functions from the outside.

Nothing under ``src/`` knows about it: ``install`` replaces each traced
function in every ``powertail.*`` module namespace that binds it (plus
the traced methods on their classes) and ``uninstall`` puts the
originals back.  Spans carry name, start, end, parent and op id; they
stay in memory and are written out once, at the end of a traced run.

Self time of a span is its duration minus the time covered by its
child spans; a layer's self time is the sum over the spans named after
that layer's module.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from time import perf_counter

# module -> public functions and methods recorded as spans
TRACED = {
    "semigroup": ("enumerate_up_to", "exponent_grid", "density_constant",
                  "ExponentGrid.pair_table"),
    "series": ("product", "reciprocal", "binomial_power", "compose_F", "revert_F",
               "evaluate", "growth_fit", "linear_combine"),
    "transforms": ("F_from_moments", "moments_from_F", "voiculescu_from_moments",
                   "moments_from_voiculescu", "classical_convolve", "free_convolve",
                   "boolean_convolve", "monotone_convolve", "stieltjes_from_moments",
                   "tail_from_moments", "FourierEvaluator.__init__",
                   "FourierEvaluator.__call__"),
    "stable": ("classical_stable", "free_stable", "boolean_stable", "monotone_stable",
               "monotone_stable_form", "positive_stable_density", "stable_mixture",
               "supremum_density", "last_passage_density", "mu_br",
               "PositiveStableDensity.density"),
    "pareto": ("pareto_fourier", "negative_tail_fourier", "oscillatory_constant",
               "cancellation_residual", "ParetoExpansion.evaluate"),
    "oracles": ("quadrature_fourier", "quadrature_stieltjes", "stieltjes_inversion",
                "laplace_link_check", "rotated_pareto_transform",
                "brute_series_product", "brute_revert"),
    "diophantine": ("classify", "sin_growth_profile", "transform_certificate",
                    "convergents"),
}
LAYERS = tuple(TRACED) + ("cli",)
# lru-cached functions: a span is recorded only for a miss, so the
# per-call cost of a cache hit stays with the caller
_CACHED = {"semigroup.exponent_grid", "semigroup.density_constant"}
# computed bytes per pair-table entry touched by one kernel call:
# an int32 table slot plus a complex128 outer-product slot
KERNEL_BYTES_PER_PAIR = 20


class Tracer:
    """Collects spans, per-name self time and call counts, and the
    exact counters read around the semigroup layer."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = {"cache_hits": 0, "cache_misses": 0, "grid_builds": 0,
                       "grid_n_max": 0, "pair_table_calls": 0,
                       "kernel_bytes_computed": 0, "valid_pairs": 0,
                       "pair_slots": 0}
        self.op_id = -1
        self._stack: list[list] = []  # [span index, child seconds]
        self._seen_tables = weakref.WeakSet()
        self._patched: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0, name, parent, perf_counter()]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter()
        idx, child, name, parent, start = frame
        self._stack.pop()
        dur = end - start
        self.spans[idx] = (name, start, end, parent, self.op_id)
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame)
        return wrapper

    def _cached_span(self, name: str, fn):
        """Span only on an lru miss; hits and misses read from cache_info()."""
        is_grid = name == "semigroup.exponent_grid"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses
            frame = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._leave(frame)
                raise
            if fn.cache_info().misses != before:
                self._leave(frame)
                if is_grid:
                    self.counts["cache_misses"] += 1
                    self.counts["grid_builds"] += 1
                    self.counts["grid_n_max"] = max(self.counts["grid_n_max"], _size(out))
                return out
            # a hit has no children: drop its span and leave its time
            # with the caller
            self._stack.pop()
            self.spans.pop()
            if is_grid:
                self.counts["cache_hits"] += 1
            return out
        return wrapper

    def _pair_table(self, fn):
        """Count every call; span and measure only the first call seen per
        grid, which builds the table unless the grid was already warm.
        Valid pairs are counted only while the table is a dense n x n
        array; any other layout counts calls and computed bytes alone."""
        import numpy as np  # loaded with powertail by the time this is installed

        build = self.span("semigroup.pair_table", fn)
        counts = self.counts
        seen = self._seen_tables

        @functools.wraps(fn)
        def wrapper(grid, *args, **kwargs):
            n = _size(grid)
            counts["pair_table_calls"] += 1
            counts["kernel_bytes_computed"] += n * n * KERNEL_BYTES_PER_PAIR
            try:
                if grid in seen:
                    return fn(grid, *args, **kwargs)
                seen.add(grid)
            except TypeError:  # a grid that cannot be weakly referenced
                pass
            table = build(grid, *args, **kwargs)
            if isinstance(table, np.ndarray) and table.shape == (n, n):
                counts["valid_pairs"] += int((table >= 0).sum())
                counts["pair_slots"] += n * n
            return table
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable wherever a powertail module binds it.
        A name the library does not define (or no longer defines) is
        skipped and its metrics read 0, so a refactor of the library
        cannot crash a traced run."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "powertail" or k.startswith("powertail.")) and m is not None]
        for layer, names in TRACED.items():
            home = sys.modules.get("powertail." + layer)
            if home is None:
                continue
            for attr in names:
                name = layer + "." + attr
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = vars(cls).get(meth) if isinstance(cls, type) else None
                    if not callable(orig):
                        continue
                    wrapped = (self._pair_table(orig) if meth == "pair_table"
                               else self.span(name, orig))
                    setattr(cls, meth, wrapped)
                    self._patched.append((cls, meth, orig))
                    continue
                orig = getattr(home, attr, None)
                if not callable(orig):
                    continue
                wrapped = (self._cached_span(name, orig)
                           if name in _CACHED and hasattr(orig, "cache_info")
                           else self.span(name, orig))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                            self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Mergeable aggregate: self time and calls per span name, counters."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "spans": len(self.spans)}


def _size(obj) -> int:
    """len(obj), or 0 for an object without a length."""
    try:
        return len(obj)
    except TypeError:
        return 0


def write_spans(path: str, spans) -> None:
    """One JSON list per line: name, start, end, parent index, op id."""
    with open(path, "w", encoding="ascii") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def merge_summaries(parts: list[dict]) -> dict:
    out = {"self_s": {}, "calls": {}, "counts": {}, "spans": 0}
    for p in parts:
        for key in ("self_s", "calls"):
            for name, v in p[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, v in p["counts"].items():
            if name == "grid_n_max":
                out["counts"][name] = max(out["counts"].get(name, 0), v)
            else:
                out["counts"][name] = out["counts"].get(name, 0) + v
        out["spans"] += p["spans"]
    return out
