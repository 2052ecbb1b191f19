"""Run one fermatjac command and fail when it fails or its peak memory is too high.

    PYTHONPATH=src python tests/peak.py LIMIT_MB COMMAND [FLAG VALUE]...

For example ``tests/peak.py 40 verify --p 997 --depth full``.  The command
runs in this interpreter through ``fermatjac.cli.main``, its output on
stdout.  One line on stderr then gives its exit code and the peak
resident memory of this process, ``VmHWM`` from ``/proc/self/status``
(Linux only).  The exit code is the command's, or 1 when the command
passed but the peak is above LIMIT_MB.  Wrap it in ``timeout`` to bound
the time as well.
"""

import sys

from fermatjac.cli import main


def peak_mb() -> float:
    """This process's VmHWM, in MB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


if __name__ == "__main__":
    limit = float(sys.argv[1])
    code = main(sys.argv[2:])
    sys.stdout.flush()
    peak = peak_mb()
    print(f"exit {code}, VmHWM {peak:.1f} MB, limit {limit:g} MB", file=sys.stderr)
    sys.exit(code or int(peak > limit))
