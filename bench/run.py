"""End-to-end and per-layer benchmark of the fermatjac CLI.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; fermatjac is imported from the
checkout's ``src``.  Without --workload every workload runs in turn.

One operation is one CLI call in a fresh interpreter (``child.py``), so
each pays interpreter start, imports and cold package caches, as a CLI
user does.  A run repeats whole rounds of operations until --seconds have
passed; a round runs each input of the workload once, in an order drawn
from --seed.  Every output is checked against values computed apart from
the program (``checks.py``); an operation that exits non-zero or fails a
check counts as failed.

The speed of the machine drifts by tens of percent over tens of seconds,
so every time is scaled to a reference speed: a fixed pure-Python
calibration block is timed just before and just after each operation,
on the same CPU, and the operation's times are multiplied by REF_BLOCK_S
over the mean of those two block times.  The raw times are kept in the results file and
printed next to the scaled ones.

--trace 0 reports the end-to-end metrics, each a median over the run:
  setup_s      interpreter start plus ``import fermatjac``, up to the call
               into the command; sampled on every operation and on
               set-up-only spawns after each one
  wall_s       the command from its call to its written output
  cpu_s        user+system CPU time of the command
  peak_rss_mb  peak resident memory of the operation's process
--trace 1 runs each operation twice, untraced and traced, and reports the
per-layer metrics of ``tracer.py`` as medians over the traced operations,
plus trace.overhead_s (median traced minus median untraced wall time).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Per-run samples and, with --trace 1, the
spans are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from checks import CheckError, check_output  # noqa: E402
from tracer import UNITS, summarize  # noqa: E402


def _decompose(p: int) -> list[str]:
    return ["decompose", "--p", str(p), "--level", "both", "--format", "json"]


# Each workload's inputs: one round runs every entry once.  Why these
# inputs, why only decompose_large spans several primes, and which
# workloads were tried and dropped, is in the README next to this file.
WORKLOADS = {
    "decompose_large": [_decompose(p) for p in (379, 397, 409)],
    "verify_full": [["verify", "--p", "13", "--depth", "full", "--format", "json"]],
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 2  # set-up-only spawns after each untraced operation
RUN_LIMIT_S = 170  # a run must end within 180 s: operations past this are killed and fail
CAL_BLOCKS = 8  # calibration blocks timed before and after each operation
REF_BLOCK_S = 0.005  # time of one calibration block at the reference speed


def _calibration_block() -> float:
    start = time.perf_counter()
    seen = set()
    for m in range(211):
        for n in range(0, 211, 2):
            seen.add((m, n * m % 211, (m + n) % 211))
    return time.perf_counter() - start


def block_time() -> float:
    """Median time of the calibration block, as the machine runs now."""
    gc.disable()
    try:
        return statistics.median(_calibration_block() for _ in range(CAL_BLOCKS))
    finally:
        gc.enable()


class Op:
    """The measured outcome of one CLI call (or set-up-only spawn)."""

    def __init__(self, argv: list[str], trace: bool, deadline: float):
        record_path = OUT / "op.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, "-I", "-S", str(HERE / "child.py"), str(SRC), str(record_path), "1" if trace else "0"]
        self.argv = argv
        self.failure = None
        self.record = None
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + argv, capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, deadline - t0),
            )
        except subprocess.TimeoutExpired:
            self.failure = "timed out"
            return
        if record_path.exists():
            self.record = json.loads(record_path.read_text())
        if self.record is None or proc.returncode != 0:
            self.failure = f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return
        self.stdout = proc.stdout
        self.setup_s = self.record["t_call"] - t0
        self.wall_s = self.record["t_end"] - self.record["t_call"]
        if argv:
            self.failure = judge(argv, self.record["rc"], proc.stdout)

    @property
    def ok(self) -> bool:
        return self.failure is None


def judge(argv: list[str], rc: int, stdout: str):
    """Return why an operation failed, or None when its output checks out."""
    if rc != 0:
        return f"fermatjac exited {rc}"
    try:
        check_output(argv, stdout)
    except CheckError as exc:
        return f"check failed: {exc}"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    warm = Op([], False, deadline)  # compiles bytecode in a fresh checkout; not timed
    if not warm.ok:
        raise SystemExit(f"cannot start fermatjac from {SRC}: {warm.failure}")
    ops: list[Op] = []
    traced: list[Op] = []
    probes: list[Op] = []
    blocks: list[float] = []
    begin = time.monotonic()
    while True:
        round_inputs = list(WORKLOADS[name])
        rng.shuffle(round_inputs)
        for argv in round_inputs:
            before = block_time()
            group = [Op(argv, False, deadline)]
            if trace:
                group.append(Op(argv, True, deadline))
            else:
                group += [Op([], False, deadline) for _ in range(SETUP_PROBES)]
            blocks += [before, block_time()]
            for op in group:
                op.scale = REF_BLOCK_S / statistics.mean(blocks[-2:])
            ops.append(group[0])
            (traced if trace else probes).extend(group[1:])
        if time.monotonic() - begin >= seconds or time.monotonic() >= deadline:
            break
    calls = ops + traced
    failures = [f"{' '.join(op.argv)}: {op.failure}" for op in calls if not op.ok]
    wrong = [op for op in calls if op.failure and op.failure.startswith("check failed")]
    good = [op for op in ops if op.ok]
    timed = good + [p for p in probes if p.ok]
    raw = {
        "setup_s": [op.setup_s for op in timed],
        "wall_s": [op.wall_s for op in good],
        "cpu_s": [op.record["cpu_s"] for op in good],
    }
    samples = {
        "setup_s": [op.setup_s * op.scale for op in timed],
        "wall_s": [op.wall_s * op.scale for op in good],
        "cpu_s": [op.record["cpu_s"] * op.scale for op in good],
        "peak_rss_mb": [op.record["peak_rss_kb"] / 1024 for op in good],
    }
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not wrong,
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures,
        "inputs": [" ".join(op.argv) for op in ops],
        "block_s": blocks,
    }
    if trace:
        good_traced = [op for op in traced if op.ok]
        layers = [_layer_values(op) for op in good_traced]
        metrics = {m: (_median([v[m] for v in layers]), UNITS[m], len(layers)) for m in UNITS if m != "trace.overhead_s"}
        walls = [op.wall_s * op.scale for op in good_traced], samples["wall_s"]
        overhead = _median(walls[0]) - _median(walls[1]) if all(walls) else None
        metrics["trace.overhead_s"] = (overhead, "s", len(good_traced))
        result["spans"] = [{"argv": op.argv, "spans": op.record["spans"]} for op in good_traced]
    else:
        metrics = {m: (_median(samples[m]), END_TO_END[m], len(samples[m])) for m in END_TO_END}
        result["samples"] = samples
        result["raw_samples"] = raw
        result["raw_medians"] = {m: _median(v) for m, v in raw.items()}
    result["metrics"] = {m: {"value": v, "unit": u, "samples": n} for m, (v, u, n) in metrics.items()}
    return result


def _layer_values(op: Op) -> dict:
    values = summarize(op.record["spans"], op.wall_s)
    return {m: v * op.scale if UNITS[m] == "s" else v for m, v in values.items()}


def _median(values: list[float]):
    return statistics.median(values) if values else None


def _print_table(result: dict) -> None:
    print(
        f"{result['workload']}: seed {result['seed']}, {result['attempted']} operations attempted, "
        f"{result['failed']} failed"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    raw = result.get("raw_medians", {})
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6f}"
        note = f"  (unscaled {raw[name]:.6f})" if raw.get(name) is not None else ""
        print(f"  {name:<44} {value:>14} {m['unit']:<6} median of {m['samples']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fermatjac" / "cli.py").is_file():
        print(f"error: no fermatjac sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the calibration blocks and the operations (children
        # inherit it), so each scale describes the CPU the operation ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result))
        _print_table(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {m: {"value": v["value"], "unit": v["unit"]} for m, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
