"""One benchmark operation: a single fermatjac CLI call in a fresh interpreter.

    python3 -I -S bench/child.py SRC RECORD TRACE [CLI ARGS...]

Imports fermatjac from SRC, runs ``fermatjac.cli.main(CLI ARGS)`` with its
output on stdout, and writes a JSON record to RECORD: the monotonic clock
at the call and at the written output, the CPU time and peak RSS of this
process, the exit code and, with TRACE = 1, the spans.  With no CLI
arguments it stops after the import, which times set-up alone.
"""

import os
import sys
import time


def main() -> int:
    src, record_path, trace, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    import fermatjac.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"fermatjac was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.install(cli)
    t_call = time.monotonic()
    cpu_call = time.process_time()
    rc = 0
    if argv:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    t_end = time.monotonic()
    cpu_end = time.process_time()

    # Imported only now, so that they do not count toward set-up.
    import json

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import peak_rss_kb

    record = {
        "t_call": t_call,
        "t_end": t_end,
        "cpu_s": cpu_end - cpu_call,
        "peak_rss_kb": peak_rss_kb(),
        "rc": rc,
        "spans": tracer.spans if tracer else None,
    }
    with open(record_path, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
