"""Benchmark for reasm's user-facing verbs.

    python3 perfbench/run.py --workload dp_large --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; reasm is imported from its ``src``.
Each operation is one in-process call of ``reasm.cli.main(argv)`` on graph
files the benchmark generates from ``--seed``.  The loop is closed: one
client, one operation at a time, ``--jobs`` at its default of 1.  A run
repeats a fixed round of operations until the next round would likely end
after ``--seconds`` (at least one round).  Every output is checked against
independent computations in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics.  Their timings are scaled to
a nominal host speed measured while they run (see ``speed.py``):

  setup_s      median of several set-ups (fresh import of reasm, instance
               generation, graph file writing)
  wall_s       median over rounds of the summed operation times
  op_p50_s     median operation time over all rounds
  op_max_s     median over rounds of the slowest operation in the round
  peak_rss_mb  peak resident memory of the process, read before the checks
  ok_frac      operations that exited 0, over operations attempted

``--trace 1`` runs an untraced warm-up round, a round with a span recorder
wrapped around reasm's cross-module calls (see ``spans.py``) and another
untraced round, and reports per-layer metrics in unscaled seconds; the
tracing overhead is the traced round's wall time minus the last round's.
The spans go to ``.perfbench/spans-<workload>.tsv.gz``.

The next-to-last stdout line is a JSON record of the run: git SHA, Python
version, nproc, seed, workload, unscaled wall time, input properties,
refusals, failures and check errors.  The last line is the result:
``correct`` (every output passed its check), ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts operations that raised or exited with an
unexpected code; a known refusal (exit 3 on an operation marked
``may_refuse``) is not a failure but lowers ``ok_frac``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
from speed import SpeedProbe
from workloads import SUITES, WORKLOADS, Op, Outcome, Plan

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 9
LAYERS = ("cli", "graph", "solvers", "reduction", "layout", "tree", "sequential", "verify")
TRACED = {
    "graph": ("parse_graph",),
    "solvers": ("exact_arrangement", "exact_linear_reassembling",
                "brute_force_binary_reassembling", "brute_force_arrangement"),
    "reduction": ("reduce_beta", "reduce_alpha", "vc_sequence", "normalize_sequence"),
    "layout": ("induce_reassembling", "induce_arrangement", "evaluate_arrangement"),
    "tree": ("measures", "print_tree", "parse_tree"),
    "sequential": ("seq_reassemble", "block_tree", "canonical_ordering"),
}
CALLS_ONLY = ("reduction.descatter_move", "reduction.scatter", "reduction.unbalance",
              "reduction.build_auxiliary")
STATES = ("solvers.exact_arrangement", "solvers.exact_linear_reassembling",
          "solvers.brute_force_binary_reassembling")


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_cli():
    """Import reasm.cli afresh from the checkout's src."""
    for name in [m for m in sys.modules if m == "reasm" or m.startswith("reasm.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("reasm.cli")


def setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; return the (start, seconds) of each, the
    last cli module and the last plan."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        t0 = perf_counter()
        cli = import_cli()
        plan = Plan(workload, seed, workdir)
        plan.write()
        intervals.append((t0, perf_counter() - t0))
    return intervals, cli, plan


def run_op(main, op: Op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    code = _call(main, op.argv, out, err)
    return Outcome(code, out.getvalue(), err.getvalue(), t0, perf_counter() - t0)


def _call(main, argv, out: io.StringIO, err: io.StringIO):
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(list(argv))
    except SystemExit as exc:  # argparse rejecting the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is reported, not fatal to the run
        err.write(traceback.format_exc())
        return None


def run_round(main, plan: Plan, recorder=None) -> list:
    outcomes = []
    for i, op in enumerate(plan.ops):
        gc.collect()
        if recorder is not None:
            recorder.op_id = i
        outcomes.append(run_op(main, op))
    return outcomes


def run_rounds(main, plan: Plan, seconds: float) -> list:
    """Rounds until the next one would likely end after `seconds`."""
    rounds, lengths = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(run_round(main, plan))
        lengths.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(lengths) > seconds:
            return rounds


def judge(plan: Plan, rounds: list) -> dict:
    """Sort every outcome into ok, refused or failed, and check each
    distinct successful output once."""
    ok = refused = failed = 0
    refusals, failures, errors = [], [], []
    checked = set()
    for outcomes in rounds:
        for op, o in zip(plan.ops, outcomes):
            reason = (o.stderr.strip().splitlines() or ["no message"])[-1]
            if o.code == 0:
                ok += 1
                if (op.label, o.stdout) in checked:
                    continue
                checked.add((op.label, o.stdout))
                try:
                    op.check(o)
                except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                    errors.append({"op": op.label, "error": f"{type(exc).__name__}: {exc}"})
            elif o.code == 3 and op.may_refuse:
                refused += 1
                refusals.append({"op": op.label, "exit": o.code, "reason": reason})
            else:
                failed += 1
                failures.append({"op": op.label, "exit": o.code, "reason": reason})
    return {"ok": ok, "refused": refused, "failed": failed,
            "refusals": _dedupe(refusals), "failures": _dedupe(failures),
            "check_errors": errors}


def _dedupe(rows: list) -> list:
    counts = collections.Counter(json.dumps(row, sort_keys=True) for row in rows)
    return [dict(json.loads(key), count=n) for key, n in counts.items()]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(probe: SpeedProbe, setups: list, rounds: list, verdict: dict,
               peak_rss_mb: float) -> dict:
    """Timings are scaled to the nominal host speed (see speed.py)."""
    scaled = [[probe.scaled(o.start, o.seconds) for o in r] for r in rounds]
    times = [t for r in scaled for t in r]
    return {
        "wall_s": metric(statistics.median(sum(r) for r in scaled), "s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_max_s": metric(statistics.median(max(r) for r in scaled), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_frac": metric(verdict["ok"] / len(times), "frac"),
        "setup_s": metric(statistics.median(probe.scaled(*i) for i in setups), "s"),
    }


def per_layer(plan: Plan, rec, untraced: list, traced: list) -> dict:
    summary = spans.summarize(rec)
    seconds, calls, states = summary["seconds"], summary["calls"], summary["states"]
    traced_wall = sum(o.seconds for o in traced)
    out = {
        "traced_wall_s": metric(traced_wall, "s"),
        "trace_overhead_s": metric(traced_wall - sum(o.seconds for o in untraced), "s"),
        "spans": metric(len(rec), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(summary["self_s"].get(layer, 0.0), "s")
    for layer, names in TRACED.items():
        for fn in names:
            name = f"{layer}.{fn}"
            out[f"{name}.s"] = metric(seconds.get(name, 0.0), "s")
            out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name in STATES:
        out[f"{name}.states"] = metric(states.get(name, 0), "count")
    dp = ("solvers.exact_arrangement", "solvers.exact_linear_reassembling")
    dp_s = sum(seconds.get(n, 0.0) for n in dp)
    out["solvers.states_per_s"] = metric(
        sum(states.get(n, 0) for n in dp) / dp_s if dp_s else 0.0, "1/s")
    solver_s = sum(s for n, s in seconds.items() if spans.layer_of(n) == "solvers")
    out["solvers.wall_share"] = metric(solver_s / traced_wall, "frac")
    out["reduction.reduce_beta.self_s"] = metric(summary["reduce_beta_self_s"], "s")
    out["reduction.inner_solve_share"] = metric(summary["inner_solve_share"], "frac")
    out["reduction.anchors"] = metric(summary["anchors"], "count")
    for suite in SUITES:
        ops = [i for i, op in enumerate(plan.ops) if op.suite == suite]
        checks = sum(_suite_checks(traced[i]) for i in ops)
        out[f"verify.{suite}.s"] = metric(
            sum(summary["op_seconds"].get(i, 0.0) for i in ops), "s")
        out[f"verify.{suite}.checks"] = metric(checks, "count")
    return out


def _suite_checks(o: Outcome) -> int:
    try:
        return json.loads(o.stdout.splitlines()[0])["checks"] if o.code == 0 else 0
    except (ValueError, IndexError, KeyError, TypeError):
        return 0  # judge() has already reported the malformed output


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "reasm" / "cli.py").is_file():
        print(f"error: no reasm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = STATE / f"work-{os.getpid()}"
    probe = SpeedProbe()
    try:
        if args.trace:  # no speed probe, whose loops would land inside spans
            _, cli, plan = setup(args.workload, args.seed, workdir)
            warmup = run_round(cli.main, plan)  # the first round pays for heap growth
            rec = spans.SpanRecorder()
            modules = [m for n, m in sys.modules.items() if n.startswith("reasm.")]
            origin = perf_counter()
            with spans.installed(rec, modules):
                traced = run_round(rec.wrap("cli.main", cli.main), plan, rec)
            untraced = run_round(cli.main, plan)
            rounds = [warmup, traced, untraced]
        else:
            with probe:
                setups, cli, plan = setup(args.workload, args.seed, workdir)
                rounds = run_rounds(cli.main, plan, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = judge(plan, rounds)
        if args.trace:
            metrics = per_layer(plan, rec, untraced, traced)
            STATE.mkdir(exist_ok=True)
            rec.write(STATE / f"spans-{args.workload}.tsv.gz", origin)
        else:
            metrics = end_to_end(probe, setups, rounds, verdict, peak_rss_mb)
        record = {
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "rounds": len(rounds), "ops_per_round": len(plan.ops),
            "raw_wall_s": statistics.median(sum(o.seconds for o in r) for r in rounds),
            "inputs": plan.properties(), "twin_share": plan.twin_share(),
            "refusals": verdict["refusals"],
            "failures": verdict["failures"], "check_errors": verdict["check_errors"],
        }
        print(json.dumps(record))
        print(json.dumps({"correct": not verdict["check_errors"],
                          "attempted": sum(len(r) for r in rounds),
                          "failed": verdict["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
