"""Metric names, units and the statistics behind them.

END_TO_END and PER_LAYER are the lists BENCHMARK.json declares; the
self-test checks that the two agree and that a run prints every name.
"""

from __future__ import annotations

import math
import statistics

from tracer import LAYERS

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_frac", "frac"),
    ("digits_p10", "digits"),
    ("peak_rss_mb", "MB"),
)

SERIES_FNS = ("product", "reciprocal", "binomial_power", "compose_F", "revert_F",
              "evaluate")
TRANSFORMS_FNS = ("F_from_moments", "moments_from_F", "voiculescu_from_moments",
                  "moments_from_voiculescu", "classical_convolve", "free_convolve",
                  "boolean_convolve", "monotone_convolve")
STABLE_FNS = ("classical_stable", "free_stable", "boolean_stable", "monotone_stable",
              "positive_stable_density")

PER_LAYER = (
    tuple((layer + ".self_s", "s") for layer in LAYERS if layer != "cli")
    + (("semigroup.grid_builds", "count"),
       ("semigroup.grid_n_max", "count"),
       ("semigroup.pair_valid_frac", "frac"),
       ("semigroup.cache_hits", "count"),
       ("semigroup.cache_misses", "count"))
    + tuple(item for f in SERIES_FNS
            for item in (("series.%s.self_s" % f, "s"), ("series.%s.calls" % f, "count")))
    + (("series.pair_table_calls", "count"),
       ("series.kernel_bytes_computed", "B"))
    + tuple(("transforms.%s.self_s" % f, "s") for f in TRANSFORMS_FNS)
    + tuple(("stable.%s.self_s" % f, "s") for f in STABLE_FNS)
    + (("oracles.calls", "count"),
       ("cli.interp_ms", "ms"),
       ("cli.import_ms", "ms"),
       ("cli.main_ms", "ms"),
       ("trace.overhead_frac", "frac"),
       ("trace.spans", "count"))
)


def tail_rank(n: int) -> int:
    """Index (ascending) of the highest-ranked sample with at least ten
    samples beyond it; with fewer than 11 samples, the largest."""
    return n - 11 if n >= 11 else n - 1


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 beyond."""
    xs = sorted(values)
    k = tail_rank(len(xs))
    return xs[k], 100.0 * (k + 1) / len(xs)


def nearest_rank(values: list[float], pct: float) -> float:
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def end_to_end(latencies: list[float], wall: float, outcomes: list, rss_mb: float,
               host_factor: float) -> tuple[dict, dict]:
    """Metrics of a timed run, except setup_s, plus human-readable notes.

    Timings are divided by the host factor (see hostclock.py); the notes
    give the raw wall-clock values."""
    n = len(latencies)
    tail_s, tail_pct = tail(latencies)
    p50_s = statistics.median(latencies)
    passed = sum(o.passed for o in outcomes)
    known = sum(o.known_defect for o in outcomes)
    known_failed = sum(o.known_defect and not o.passed for o in outcomes)
    digits = [o.digits for o in outcomes if o.digits is not None]
    metrics = {
        "ops_per_s": n / wall * host_factor,
        "op_p50_ms": 1000.0 * p50_s / host_factor,
        "op_tail_ms": 1000.0 * tail_s / host_factor,
        "pass_frac": passed / n,
        # a run whose checks are all categorical has no digits to report
        "digits_p10": nearest_rank(digits, 10.0) if digits else 0.0,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "ops_per_s": "%d ops in %.3f s wall, raw %.4g/s; host factor %.3f"
                     % (n, wall, n / wall, host_factor),
        "op_p50_ms": "n=%d, raw %.4g ms" % (n, 1000.0 * p50_s),
        "op_tail_ms": "p%.1f, n=%d, raw %.4g ms" % (tail_pct, n, 1000.0 * tail_s),
        "pass_frac": "%d of %d passed; fail_frac %.4f; %d of %d known-defect ops failed"
                     % (passed, n, 1.0 - passed / n, known_failed, known),
        "digits_p10": "n=%d numerically checked ops" % len(digits),
    }
    return metrics, notes


def per_layer(summary: dict, cli_ms: dict, overhead_frac: float) -> dict:
    """Per-layer metrics from a merged tracer summary."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    m = {layer + ".self_s": layer_sum(self_s, layer) for layer in LAYERS if layer != "cli"}
    slots = counts.get("pair_slots", 0)
    m.update({
        "semigroup.grid_builds": counts.get("grid_builds", 0),
        "semigroup.grid_n_max": counts.get("grid_n_max", 0),
        "semigroup.pair_valid_frac": counts.get("valid_pairs", 0) / slots if slots else 0.0,
        "semigroup.cache_hits": counts.get("cache_hits", 0),
        "semigroup.cache_misses": counts.get("cache_misses", 0),
        "series.pair_table_calls": counts.get("pair_table_calls", 0),
        "series.kernel_bytes_computed": counts.get("kernel_bytes_computed", 0),
        "oracles.calls": layer_sum(calls, "oracles"),
        "trace.overhead_frac": overhead_frac,
        "trace.spans": summary["spans"],
    })
    for f in SERIES_FNS:
        m["series.%s.self_s" % f] = self_s.get("series." + f, 0.0)
        m["series.%s.calls" % f] = calls.get("series." + f, 0)
    for f in TRANSFORMS_FNS:
        m["transforms.%s.self_s" % f] = self_s.get("transforms." + f, 0.0)
    for f in STABLE_FNS:
        m["stable.%s.self_s" % f] = self_s.get("stable." + f, 0.0)
    for key in ("interp_ms", "import_ms", "main_ms"):
        m["cli." + key] = cli_ms.get(key, 0.0)
    return m
