"""One benchmark process: set up a workload, then time it or trace it.

Started by run.py, never by hand.  Set-up is interpreter start,
``import powertail``, op-list generation and warm-up; when it is done the
worker prints one JSON line ("ready") so the parent can time it.  In
``setup`` mode it then exits; in ``run`` mode it runs ops for the given
seconds; in ``trace`` mode it runs a fixed slice of the op list twice,
untraced and traced, and reports per-layer metrics.  The last stdout
line is the result as JSON.
"""

import time

T_START = time.time()  # before any other import: the end of interpreter start

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import metrics  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import Tracer, merge_summaries, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# rounds generated during set-up; a run that outlasts them generates more
PREBUILT_ROUNDS = {"laws-deep": 40, "eval-sweep": 400, "cli-mix": 10}


class Ops:
    """The seeded op list, prebuilt for set-up and extended on demand."""

    def __init__(self, wl, rounds: int):
        self.wl = wl
        self.rounds = [wl.round_ops(r) for r in range(rounds)]

    def first_rounds(self, k: int) -> list:
        while len(self.rounds) < k:
            self.rounds.append(self.wl.round_ops(len(self.rounds)))
        return [op for rnd in self.rounds[:k] for op in rnd]

    def __iter__(self):
        """The rounds, one list of ops each, without end."""
        for r in itertools.count():
            if r == len(self.rounds):
                self.rounds.append(self.wl.round_ops(r))
            yield self.rounds[r]


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _unexpected(plan: list, outcomes: list) -> list:
    """Failed ops outside the known-defect templates."""
    return [{"op": json.dumps(op, sort_keys=True), "note": o.note}
            for op, o in zip(plan, outcomes) if not o.passed and not o.known_defect]


def timed_run(wl, ops: Ops, seconds: float) -> dict:
    """Run ops round by round until the deadline.  The metrics cover the
    whole rounds done by then (every op done, if no round ended), so each
    run measures the same mix of templates whatever the host's speed; a
    partial round moved op_p50_ms by up to 10%.  The ops of the partial
    round are still checked and count as attempted."""
    done, latencies, outcomes = [], [], []
    clock = HostClock()
    begin = time.perf_counter()
    deadline = begin + seconds
    end = begin
    whole = None  # (ops done, end time, reference time) at the last round's end
    for rnd in ops:
        for i, op in enumerate(rnd):
            t0 = time.perf_counter()
            outcome = wl.run_op(op)
            end = time.perf_counter()
            done.append(op)
            latencies.append(end - t0)
            outcomes.append(outcome)
            if i == len(rnd) - 1:
                whole = (len(done), end, clock.spent)
            if end >= deadline:
                break
            clock.maybe_sample()
        if end >= deadline:
            break
    n, stop, spent = whole or (len(done), end, clock.spent)
    rss = _peak_rss_mb(children=wl.name == "cli-mix")
    factor = clock.factor()
    values, notes = metrics.end_to_end(latencies[:n], stop - begin - spent, outcomes[:n],
                                       rss, factor)
    notes["ops_per_s"] += "; whole rounds: %d of %d ops" % (n, len(done))
    return {"metrics": values, "notes": notes, "attempted": len(outcomes),
            "unexpected_failures": _unexpected(done, outcomes)}


def traced_run(wl, ops: Ops, seconds: float, tag: str) -> dict:
    """Untraced then traced pass over the same ops; the fixed slice
    scales with --seconds so each pass takes under half of it.  In
    cli-mix both passes launch the traced stand-in, with its tracer off
    in the first, so they differ only by the tracing."""
    k = max(1, round(wl.trace_rounds * seconds / 30.0))
    plan = ops.first_rounds(k)
    if wl.name == "cli-mix":
        wl.launcher = "child"
    deadline = time.perf_counter() + seconds
    plain_clock = HostClock()
    begin = time.perf_counter()
    done = 0
    for op in plan:
        wl.run_op(op)
        done += 1
        if time.perf_counter() >= deadline:
            break
        plain_clock.maybe_sample()
    plan = plan[:done]
    untraced = time.perf_counter() - begin - plain_clock.spent

    outcomes = []
    traced_clock = HostClock()
    if wl.name == "cli-mix":
        wl.launcher = "traced-child"
        begin = time.perf_counter()
        for op in plan:
            outcomes.append(wl.run_op(op))
            traced_clock.maybe_sample()
        traced = time.perf_counter() - begin - traced_clock.spent
        recs = wl.child_records
        summary = merge_summaries([r["summary"] for r in recs])
        cli_ms = {key: statistics.median(r[key] for r in recs) if recs else 0.0
                  for key in ("interp_ms", "import_ms", "main_ms")}
        spans = [span[:4] + [i] for i, r in enumerate(recs) for span in r["spans"]]
    else:
        tracer = Tracer()
        tracer.install()
        try:
            begin = time.perf_counter()
            for i, op in enumerate(plan):
                tracer.op_id = i
                outcomes.append(wl.run_op(op))
                traced_clock.maybe_sample()
            traced = time.perf_counter() - begin - traced_clock.spent
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        cli_ms = {}
        spans = tracer.spans
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    write_spans(os.path.join(WORK, "traces", tag + ".jsonl"), spans)
    # both passes are calibrated, so host drift between them does not
    # read as tracing overhead
    overhead = (traced / traced_clock.factor()) / (untraced / plain_clock.factor()) - 1.0
    values = metrics.per_layer(summary, cli_ms, overhead)
    return {"metrics": values,
            "notes": {"trace.overhead_frac": "%d ops: %.3f s untraced, %.3f s traced"
                                             % (len(plan), untraced, traced)},
            "attempted": len(outcomes),
            "unexpected_failures": _unexpected(plan, outcomes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's time.time() just before starting this process")
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    module = importlib.import_module(cls.imports)
    import_ms = 1000.0 * (time.perf_counter() - t0)
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit("powertail was imported from %s, not %s" % (module.__file__, SRC))

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        wl = cls(args.seed, workdir)
        ops = Ops(wl, PREBUILT_ROUNDS[args.workload])
        wl.setup()
        print(json.dumps({"ready": True,
                          "interp_ms": 1000.0 * (T_START - args.spawned_at),
                          "import_ms": import_ms}), flush=True)
        setup_factor = HostClock().factor()
        if args.mode == "setup":
            print(json.dumps({"setup_host_factor": setup_factor}), flush=True)
            return 0
        if args.mode == "run":
            result = timed_run(wl, ops, args.seconds)
        else:
            tag = "%s-seed%d" % (args.workload, args.seed)
            result = traced_run(wl, ops, args.seconds, tag)
        result["setup_host_factor"] = setup_factor
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
