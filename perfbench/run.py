"""Benchmark of the quenchfront command line: one entry point, three workloads.

    python3 perfbench/run.py --workload branch|evolve|solve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is one CLI command, run
as ``cli.main(argv)`` by ``worker.py`` in a fresh interpreter, one worker
at a time, with BLAS pinned to one thread.  This process never imports the
program, so no cache or lazy state carries from one operation to the next,
as with a user's ``quenchfront ...`` command.  A run repeats whole rounds of
its workload's operation list until ``--seconds`` have passed, checks every
output after the timed region, and prints one JSON object as its last line.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
each operation runs once untraced and once traced, and the per-layer
metrics are the traced totals of one round.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3         # set-up-only workers per run, so setup_s has samples
WORKER_TIMEOUT_S = 60.0
H = "0.01"               # the CLI default mesh, spelled out in every command

# solve: one drift speed is drawn from the seed in each of SOLVE_STRATA
# equal slices of [-200, SOLVE_DRAW_MAX], besides the fixed endpoints.
# Direct solves fail on scattered c in [9.026, 11.82] (see the FOUND line
# in CHANGES.md), so draws stop short of that band; the fixed endpoint
# c = 12 goes through the continuation fallback and passes.
SOLVE_STRATA = 12
SOLVE_DRAW_MAX = 8.5
SOLVE_ENDPOINTS = (-200.0, 12.0)
LADDER_H = ("0.04", "0.02", "0.01", "0.005")
SPECTRUM_C = ("-20", "0", "5")
TANH_EPS = 0.001
TANH_CS = (-2, -1, 0, 1, 2)            # c = c_s eps^{1/3}
EVOLVE_C = ("0", "1")


@dataclass
class Op:
    """One CLI command of a workload's round and how to check its output."""

    label: str
    argv: list[str]
    check: Callable[[dict, dict, dict], list[str]]   # (header, columns, passed so far) -> problems
    expect_error: str | None = None       # known fault: this error is a failure, not a wrong answer


@dataclass
class Outcome:
    label: str
    setup_s: float | None = None
    op_s: float | None = None
    rss_kb: int = 0
    failed: bool = False
    wrong: bool = False                   # failed in a way not expected
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None
    missing: list[str] = field(default_factory=list)


def branch_ops(rng: random.Random) -> list[Op]:
    argv = ["branch", "--cmin", "-200", "--cmax", "12", "--h", H]
    return [Op("branch", argv, lambda hd, cols, done: checks.branch(hd, cols))]


def evolve_ops(rng: random.Random, lambda0: dict[str, float]) -> list[Op]:
    cs = list(EVOLVE_C)
    rng.shuffle(cs)
    return [Op(f"evolve-c{c}",
               ["evolve", "--c", c, "--dt", "0.01", "--t-end", "25",
                "--scheme", "imex_cn", "--h", H],
               lambda hd, cols, done, c=c: checks.evolve(hd, cols, lambda0[c]))
            for c in cs]


def solve_cs(rng: random.Random) -> list[float]:
    lo, hi = -200.0, SOLVE_DRAW_MAX
    width = (hi - lo) / SOLVE_STRATA
    drawn = [round(lo + width * (k + rng.random()), 6) for k in range(SOLVE_STRATA)]
    return [SOLVE_ENDPOINTS[0], *drawn, SOLVE_ENDPOINTS[1]]


def solve_ops(rng: random.Random) -> list[Op]:
    ops = []
    for c in solve_cs(rng):
        ops.append(Op(f"solve-c{c:g}",
                      ["solve", "--spectrum", "--c", repr(c), "--h", H],
                      lambda hd, cols, done, c=c: checks.front(hd, cols, c)))
    for i, h in enumerate(LADDER_H):
        coarse = f"ladder-h{LADDER_H[i - 1]}" if i else None

        def check(hd, cols, done, coarse=coarse):
            problems = checks.front(hd, cols, 0.0)
            if coarse in done:
                problems += checks.ladder(float(done[coarse]["u_at_zero"]),
                                          float(hd["u_at_zero"]))
            return problems

        ops.append(Op(f"ladder-h{h}", ["solve", "--spectrum", "--c", "0", "--h", h],
                      check,
                      # newton's absolute tolerance sits below the roundoff
                      # floor eps |u| / h^2 at this mesh, at every c
                      expect_error="MaxIterationsError" if h == "0.005" else None))
    for c in SPECTRUM_C:
        ops.append(Op(f"spectrum-c{c}", ["spectrum", "--c", c, "--k", "5", "--h", H],
                      lambda hd, cols, done: checks.spectrum(hd, cols)))
    e13 = TANH_EPS ** (1.0 / 3.0)
    for cs in TANH_CS:
        c = repr(round(cs * e13, 12))
        ops.append(Op(f"tanh-cs{cs}",
                      ["compare-tanh", "--eps", repr(TANH_EPS), "--c", c],
                      lambda hd, cols, done: checks.compare_tanh(hd, cols, TANH_EPS)))
    return ops


WORKLOADS = ("branch", "evolve", "solve")


class Runner:
    """Starts workers one at a time in a scratch directory of the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.count = 0

    def worker(self, argv, trace: bool = False) -> tuple[dict | None, str]:
        """Run one worker; returns (its report, stderr) or (None, why)."""
        job = json.dumps({"src": str(SRC), "argv": argv, "trace": trace})
        spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), job],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"worker timed out after {WORKER_TIMEOUT_S:g} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        report = json.loads(lines[-1])
        report["setup_s"] = report["ready"] - spawn
        return report, ""

    def operation(self, op: Op, done: dict, trace: bool = False) -> Outcome:
        self.count += 1
        out_path = self.workdir / f"op{self.count}.csv"
        report, why = self.worker([*op.argv, "--out", str(out_path)], trace)
        res = Outcome(op.label)
        if report is None:
            res.failed = res.wrong = True
            res.problems = [why]
            return res
        res.setup_s, res.op_s, res.rss_kb = report["setup_s"], report["op_s"], report["maxrss_kb"]
        res.layers, res.missing = report.get("layers"), report.get("missing", [])
        if report["rc"] != 0:
            res.failed = True
            res.problems = [report["error"] or f"exit code {report['rc']}"]
            res.wrong = not (op.expect_error and op.expect_error in report["error"])
            return res
        try:
            header, cols = checks.read_csv(out_path)
            out_path.unlink()
            res.problems = op.check(header, cols, done)
        except (OSError, ValueError, KeyError) as exc:   # missing or malformed output
            res.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        res.failed = res.wrong = bool(res.problems)
        if not res.failed:
            done[op.label] = header
        return res


def reference_lambda0(runner: Runner) -> dict[str, float]:
    """Ground-state eigenvalue per evolve speed, from ``spectrum`` at the
    same c; computed before the timed rounds and not counted.  NaN when the
    command fails, which then fails the decay-rate check."""
    lam = {}
    for c in EVOLVE_C:
        path = runner.workdir / f"ref_c{c}.csv"
        report, _ = runner.worker(["spectrum", "--c", c, "--k", "1", "--h", H,
                                   "--out", str(path)])
        ok = report is not None and report["rc"] == 0
        lam[c] = float(checks.read_csv(path)[0]["lambda0"]) if ok else math.nan
    return lam


def round_wall(rounds: list[list[Outcome]]) -> float:
    """Median over rounds of the summed op times, failed operations included."""
    return statistics.median([sum(o.op_s or 0.0 for o in r) for r in rounds])


def counts(outcomes: list[Outcome]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct unless an operation failed in
    a way its workload does not expect."""
    return (len(outcomes), sum(o.failed for o in outcomes),
            not any(o.wrong for o in outcomes))


def end_to_end(rounds, setups: list[float], rss_kb: list[int]) -> dict:
    ops = [o for r in rounds for o in r]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median([o.op_s for o in ops if o.op_s is not None]), "s"),
        "wall_s": (round_wall(rounds), "s"),
        "peak_rss_mb": (max(rss_kb) / 1024.0, "MB"),
    }


def per_layer(plain_rounds, traced_rounds) -> tuple[dict, list[str]]:
    traced = [o for r in traced_rounds for o in r]
    totals = spans.summarize([])   # every layer present, even if all runs failed
    missing = sorted({m for o in traced for m in o.missing})
    for o in traced:
        for k, v in (o.layers or {}).items():
            totals[k] = totals.get(k, 0) + v
    n = len(traced_rounds)
    layers = spans.per_round(totals, n)
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layers.items()}
    metrics["continuation.accept_ratio"] = (layers["continuation.accept_ratio"], "ratio")
    metrics["cli.csv_bytes"] = (layers["cli.csv_bytes"], "B")
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    traced_p50 = statistics.median([o.op_s for o in traced if o.op_s is not None])
    plain_p50 = statistics.median([o.op_s for r in plain_rounds for o in r if o.op_s is not None])
    metrics.update({
        "trace.op_s": (sum(o.op_s or 0.0 for o in traced) / n, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.op_p50_s": (traced_p50, "s"),
        "trace.untraced_op_p50_s": (plain_p50, "s"),
        "trace.overhead_s": (traced_p50 - plain_p50, "s"),
        "trace.missing_names": (len(missing), "count"),
    })
    return metrics, missing


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    workdir = OUT / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir)
    try:
        t0 = time.monotonic()
        if workload == "branch":
            ops = branch_ops(rng)
        elif workload == "evolve":
            ops = evolve_ops(rng, reference_lambda0(runner))
        else:
            ops = solve_ops(rng)
        setups, rss = [], []
        for _ in range(SETUP_PROBES):
            report, why = runner.worker(None)
            if report is None:
                raise RuntimeError(f"set-up failed: {why}")
            setups.append(report["setup_s"])
            rss.append(report["maxrss_kb"])
        plain_rounds, traced_rounds = [], []
        while not plain_rounds or time.monotonic() - t0 < seconds:
            plain, traced, done, done_traced = [], [], {}, {}
            for op in ops:
                o = runner.operation(op, done)
                plain.append(o)
                _log(o, "")
                if trace:
                    t = runner.operation(op, done_traced, trace=True)
                    traced.append(t)
                    _log(t, " traced")
            plain_rounds.append(plain)
            traced_rounds.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for r in plain_rounds + traced_rounds for o in r]
    attempted, failed, correct = counts(outcomes)
    setups += [o.setup_s for o in outcomes if o.setup_s is not None]
    rss += [o.rss_kb for o in outcomes]
    missing = []
    if trace:
        metrics, missing = per_layer(plain_rounds, traced_rounds)
    else:
        metrics = end_to_end(plain_rounds, setups, rss)
    return {
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        "rounds": len(plain_rounds),
        "missing": missing,
        "operations": [{"label": o.label, "op_s": o.op_s, "setup_s": o.setup_s,
                        "failed": o.failed, "problems": o.problems} for o in outcomes],
    }


def _log(o: Outcome, tag: str) -> None:
    status = "FAILED " + "; ".join(o.problems) if o.failed else "ok"
    op_s = f"{o.op_s:.3f}" if o.op_s is not None else "-"
    print(f"{o.label}{tag}: op_s={op_s} {status}"[:300], flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quenchfront" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, **summary}, indent=1))
    if summary["missing"]:
        print("missing traced names: " + ", ".join(summary["missing"]), file=sys.stderr)
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
