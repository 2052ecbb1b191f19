"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs small real operations (p = 7 and 13) through the
same path as the benchmark and requires their outputs to pass.  Then
corrupts each report in one field at a time and requires the operation
to be judged failed.  Exits 1 if any real output fails or any corruption
passes.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import run


def _mutate(report: dict, edit) -> str:
    bad = copy.deepcopy(report)
    edit(bad)
    return json.dumps(bad)


def _set_factor(level: str, symbol: str, key: str, value):
    def edit(r):
        for f in r["decompositions"][level]["factors"]:
            if f["symbol"] == symbol:
                f[key] = value

    return edit


def _set_check(name: str, status: str):
    def edit(r):
        for c in r["checks"]:
            if c["name"] == name:
                c["status"] = status

    return edit


def _set(path: tuple, value):
    def edit(r):
        for key in path[:-1]:
            r = r[key]
        r[path[-1]] = value

    return edit


CASES = {
    "decompose --p 13 --level both --format json": [
        ("coarse multiplicity of JC(2) 6 -> 5", _set_factor("coarse", "JC(2)", "multiplicity", 5)),
        ("fine dimension of JE(3) 2 -> 6", _set_factor("fine", "JE(3)", "dimension", 6)),
        ("gamma root 3 -> 4", _set(("gamma", "root"), 4)),
        ("orbit representative 2 -> 3", _set(("orbits", 1, "representative"), 3)),
        ("audit pairs_checked 55 -> 54", _set(("decompositions", "coarse", "audit", "commuting", "pairs_checked"), 54)),
        ("audit all_pass false", _set(("decompositions", "fine", "audit", "all_pass"), False)),
        ("genus sum 66 -> 65", _set(("decompositions", "coarse", "audit", "genus_sum", "computed"), 65)),
    ],
    "decompose --p 7 --level both --format json": [
        ("fine product without the refinement", _set(("decompositions", "fine", "product"), "JF(7) ~ JC(1)^3 x JC(2)^2")),
    ],
    "verify --p 7 --depth full --format json": [
        ("certificates check FAIL", _set_check("certificates", "FAIL")),
        ("deck pairing p-1 -> p-2", _set(("certificates", "pairing_deck_vs_homology"), 5)),
        ("scaling-generator character 2-p -> p-2", _set(("certificates", "chi_homology_at_scaling_generator"), 5)),
        ("missing check", lambda r: r["checks"].pop()),
    ],
}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    problems = 0
    for command, cases in CASES.items():
        argv = command.split()
        op = run.Op(argv, False, deadline)
        if not op.ok:
            print(f"FAIL real output of `{command}` was judged failed: {op.failure}")
            problems += 1
            continue
        stdout = op.stdout
        print(f"ok   real output of `{command}` passes")
        report = json.loads(stdout)
        corrupted = [(label, _mutate(report, edit)) for label, edit in cases]
        corrupted.append(("truncated output", stdout[: len(stdout) // 2]))
        for label, text in corrupted:
            failure = run.judge(argv, 0, text)
            print(f"{'ok  ' if failure else 'FAIL'} {label}: {failure or 'passed the checks'}")
            problems += failure is None
        failure = run.judge(argv, 4, stdout)
        print(f"{'ok  ' if failure else 'FAIL'} exit code 4: {failure or 'passed the checks'}")
        problems += failure is None
    print("self-test passed" if not problems else f"self-test: {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
