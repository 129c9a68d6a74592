"""powertail benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads (see perfbench/README.md): laws-deep, eval-sweep, cli-mix.
Each is a closed loop with one client and one process, no threads.

Set-up is timed in fresh worker processes, several times, and setup_s
is their median.  The last of those workers then either runs ops for S
seconds (--trace 0: end-to-end metrics) or runs a fixed slice of the op
list untraced and traced (--trace 1: per-layer metrics and the tracing
overhead).  Every op is checked; a failed check or a raised error counts
as a failed op.  Human-readable lines go first; the last stdout line is
the JSON result.  "failed" there counts failures outside the templates
that exercise known defects; those are counted in pass_frac.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 3          # setup_s is the median over this many fresh processes
# one process and no threads: keep numpy's BLAS pool from starting any
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # a run must end within 180 s; stop the worker before that


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, started: float) -> tuple[float, dict, dict | None]:
    """Start one worker; return (set-up seconds, ready record, result).
    A set-up-only worker's result is just its set-up host factor."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    spawned_at = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            env=dict(os.environ, **SINGLE_THREAD_ENV),
                            stdout=subprocess.PIPE, text=True)
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("%s worker did not finish within the deadline" % mode)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready_line:
        raise WorkerError("%s worker exited with code %s" % (mode, proc.returncode))
    ready = json.loads(ready_line)
    result = json.loads(rest.strip().splitlines()[-1])
    return setup_s, ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "powertail", "__init__.py")):
        print("error: no powertail sources under %s/src; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2

    mode = "trace" if args.trace else "run"
    try:
        setups, readies = [], []
        for _ in range(SETUPS - 1):
            s, ready, probe = run_worker(args, "setup", started)
            setups.append((s, probe["setup_host_factor"]))
            readies.append(ready)
        s, ready, result = run_worker(args, mode, started)
    except (WorkerError, ValueError, IndexError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    setups.append((s, result["setup_host_factor"]))
    readies.append(ready)

    values, notes = result["metrics"], result["notes"]
    if args.trace:
        if args.workload != "cli-mix":
            # no CLI process runs here: the CLI layer's start-up cost is
            # this workload's own process start and import, from set-up
            values["cli.interp_ms"] = statistics.median(r["interp_ms"] for r in readies)
            values["cli.import_ms"] = statistics.median(r["import_ms"] for r in readies)
        specs = metrics.PER_LAYER
    else:
        # each set-up is calibrated with its own process's host factor
        values["setup_s"] = statistics.median(s / f for s, f in setups)
        notes["setup_s"] = "median of %d set-ups, raw %s s; host factors %s" % (
            len(setups), ", ".join("%.3f" % s for s, _ in setups),
            ", ".join("%.3f" % f for _, f in setups))
        specs = metrics.END_TO_END

    out = {}
    for name, unit in specs:
        out[name] = {"value": values[name], "unit": unit}
        note = notes.get(name)
        print("%-36s %14.6g %-6s %s" % (name, values[name], unit,
                                        "(%s)" % note if note else ""))
    for fail in result["unexpected_failures"]:
        print("unexpected failure: %s %s" % (fail["note"], fail["op"]))
    failed = len(result["unexpected_failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
