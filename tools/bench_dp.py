"""Fresh-process timings of the beta prefix DP.

    python3 tools/bench_dp.py --out BENCH_dp.json
    python3 tools/bench_dp.py --sizes 16-20 --runs 5 --src ../other/src --out other.json
    python3 tools/bench_dp.py --src ../parent/src --out parent.json --src src --out BENCH_dp.json

Standard library only.  For each n in --sizes the script draws a twin-free
random connected graph with m = 2n edges from the fixed SEED: a random
recursive tree plus random extra edges, drawn again while any vertex has a
twin, so the beta tables have 2^n states free and 2^(n - 1) anchored.  It
solves each graph twice, free and anchored at a vertex of least degree
(the smallest such id), in --runs fresh child processes each, one at a
time, in rounds that run every solve once.  A child imports reasm from
--src (default: this checkout's src), times
`solvers.exact_arrangement(g, "beta", anchor)` and, inside it, the calls
of `_cut_table` and `_prefix_table`, so the wall time of a run includes
the compiles of the leaf kernels, as a one-shot solve pays them.  The
child's peak RSS is its ru_maxrss, read by the parent from os.wait4.
Linux counts in it the spawning process's peak as of the exec, which this
script keeps below an idle reasm import.  Where the prefix fill forks
workers (see solvers), wait4 reports the larger of the child's peak and
its workers' peaks, not their sum.

--src may be given twice, each with its own --out, to compare two trees
in one invocation: every run of a solve is then a pair of children, one
per tree, the first tree's first in even rounds and the second's in odd
ones, so a spell of load on a shared machine falls on both trees alike.

The output is one JSON file per tree:

    {"git": sha of --src's checkout or null, "dirty": whether src differs
     from that commit, "python": version, "nproc": ..., "seed": SEED,
     "runs": ...,
     "instances": [{"n", "m", "mode": "free" | "anchored",
                    "anchor": vertex or null, "value", "states",
                    "wall_ms": median, "wall_ms_runs": [...],
                    "cut_ms": median, "prefix_ms": median,
                    "peak_rss_mb": median, "peak_rss_mb_runs": [...]}]}

Every run's value and states must agree, across trees too, or the script
exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 1

# the child: argv is src, n, the edges as "u-v,...", the anchor or 0
CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from reasm import solvers
from reasm.graph import Graph

ms = {}

def timed(name, fn):
    def run(*args):
        t = time.perf_counter()
        out = fn(*args)
        ms[name] = (time.perf_counter() - t) * 1000
        return out
    return run

solvers._cut_table = timed("cut_ms", solvers._cut_table)
solvers._prefix_table = timed("prefix_ms", solvers._prefix_table)
edges = [tuple(map(int, e.split("-"))) for e in sys.argv[3].split(",")]
g = Graph(int(sys.argv[2]), tuple(edges))
t = time.perf_counter()
r = solvers.exact_arrangement(g, "beta", int(sys.argv[4]) or None)
wall = (time.perf_counter() - t) * 1000
print(json.dumps({"value": r.value, "states": r.stats["states"], "wall_ms": wall, **ms}))
"""


def twin_free(n: int, edges) -> bool:
    """No two vertices share N(v), nor N[v]."""
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    open_ = {adj[v] for v in range(1, n + 1)}
    closed = {adj[v] | 1 << v for v in range(1, n + 1)}
    return len(open_) == len(closed) == n


def instance(rng: random.Random, n: int) -> tuple:
    """A twin-free random connected graph on n vertices with 2n edges."""
    while True:
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        while len(edges) < 2 * n:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        if twin_free(n, edges):
            return tuple(sorted(edges))


def run_child(src: str, n: int, edges, anchor: int) -> dict:
    """One fresh-process solve: the child's record and its peak RSS."""
    argv = [sys.executable, "-c", CHILD, src, str(n),
            ",".join(f"{u}-{v}" for u, v in edges), str(anchor)]
    read, write = os.pipe()
    pid = os.posix_spawn(sys.executable, argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, write, 1),
                                       (os.POSIX_SPAWN_CLOSE, read)])
    os.close(write)
    with open(read) as pipe:
        out = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"n = {n}, anchor {anchor}: the child exited with status {status}")
    # ru_maxrss is in KiB on Linux
    return json.loads(out) | {"peak_rss_mb": usage.ru_maxrss / 1024}


def checkout(src: Path) -> tuple:
    """(sha, dirty) of the git checkout holding src, or (None, None)."""
    git = ["git", "-C", str(src)]
    try:
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain", "--", "."], capture_output=True,
                               text=True, check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, dirty


def sizes(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def report(src: Path, solves: list, runs: list, count: int) -> dict:
    """The JSON report of one tree: its runs of every solve, summarized."""
    sha, dirty = checkout(src)
    rows = []
    for got, (n, edges, mode, anchor) in zip(runs, solves):
        med = {key: round(statistics.median(r[key] for r in got), 1)
               for key in ("wall_ms", "cut_ms", "prefix_ms", "peak_rss_mb")}
        rows.append({"n": n, "m": len(edges), "mode": mode, "anchor": anchor or None,
                     "value": got[0]["value"], "states": got[0]["states"],
                     "wall_ms": med["wall_ms"],
                     "wall_ms_runs": [round(r["wall_ms"], 1) for r in got],
                     "cut_ms": med["cut_ms"], "prefix_ms": med["prefix_ms"],
                     "peak_rss_mb": med["peak_rss_mb"],
                     "peak_rss_mb_runs": [round(r["peak_rss_mb"], 1) for r in got]})
    return {"git": sha, "dirty": dirty, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": SEED, "runs": count, "instances": rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=sizes, default=sizes("16-24"), help="n range, as 16-24")
    p.add_argument("--runs", type=int, default=3, help="fresh processes per solve and tree")
    p.add_argument("--src", type=Path, action="append",
                   help="directory holding the reasm package (default: this checkout's "
                        "src); twice to compare two trees")
    p.add_argument("--out", type=Path, action="append", required=True,
                   help="the report, one per --src")
    args = p.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [SRC]]
    if len(args.out) != len(srcs) or len(srcs) > 2:
        p.error("give one --out for each of one or two --src")
    rng = random.Random(SEED)
    solves = []  # (n, edges, mode, anchor or 0)
    for n in args.sizes:
        edges = instance(rng, n)
        deg = [0] * (n + 1)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        least = min(range(1, n + 1), key=lambda v: (deg[v], v))
        solves += [(n, edges, "free", 0), (n, edges, "anchored", least)]
    # round by round, every solve once a round: a spell of load on a shared
    # machine then falls on one run of each solve, which the median drops;
    # and within a run on each tree, in turns that swap every round
    runs = [[[] for _ in solves] for _ in srcs]  # by tree, then by solve
    for r in range(args.runs):
        for i, (n, edges, _, anchor) in enumerate(solves):
            for tree in (range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))):
                runs[tree][i].append(run_child(str(srcs[tree]), n, edges, anchor))
    for i, (n, _, mode, _) in enumerate(solves):
        got = [run for tree in runs for run in tree[i]]
        if len({(run["value"], run["states"]) for run in got}) != 1:
            sys.exit(f"n = {n} {mode}: runs disagree: {got}")
    for src, tree, out in zip(srcs, runs, args.out):
        out.write_text(json.dumps(report(src, solves, tree, args.runs), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
