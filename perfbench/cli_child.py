"""Traced stand-in for `python -m powertail.cli`, used by cli-mix traces.

    python3 perfbench/cli_child.py RECORD SPAWNED_AT -- CLI_ARGS...

Times interpreter start (against the parent's clock reading SPAWNED_AT),
`import powertail.cli`, and `cli.main(CLI_ARGS)` separately, traces the
library layers while main runs, and writes them as JSON to RECORD.
With RECORD `-` it neither traces nor records, so that the untraced pass
of a traced run launches the same program, less the tracing.
Stdout, stderr and the exit code are the CLI's own.
"""

import time

T_START = time.time()

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    record, spawned_at, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py RECORD SPAWNED_AT -- CLI_ARGS...")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import powertail.cli
    import_ms = 1000.0 * (time.perf_counter() - t0)
    if record == "-":
        return powertail.cli.main(argv)

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = powertail.cli.main(argv)
    finally:
        main_ms = 1000.0 * (time.perf_counter() - t0)
        tracer.uninstall()
        sys.stdout.flush()
        with open(record, "w", encoding="ascii") as fh:
            json.dump({"interp_ms": 1000.0 * (T_START - float(spawned_at)),
                       "import_ms": import_ms, "main_ms": main_ms,
                       "summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
