"""Workload plans: the graph files a workload generates from its seed, the
CLI operations one round runs on them, and the check each output must pass.

A round is a fixed list of operations, the same in every round of a run.
The seed changes graph structure and the verify suites' random draws, never
graph sizes or operation counts, so runs with different seeds do comparable
work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle

WORKLOADS = ("dp_large", "reduce", "binary", "verify")

SUITES = ("fixtures", "beta_equals_gamma", "roundtrips", "bin_can",
          "balance_lemmas", "dp_vs_brute")

EXHAUSTIVE_SUITES = ("fixtures", "balance_lemmas")  # the same work for any seed
SUITE_SEEDS = 4

DIRECTIONS = {"r2a": "reassembling_to_arrangement",
              "a2r": "arrangement_to_reassembling"}

# binary optima pinned by the source paper's catalog: (graph, objective)
BINARY_PINS = {("q3", "alpha"): 4, ("q3", "beta"): 47, ("k8", "beta"): 127,
               ("s7", "beta"): 28}


class CheckError(ValueError):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass(frozen=True)
class Outcome:
    code: Optional[int]  # None when main raised
    stdout: str
    stderr: str
    start: float  # perf_counter() at the call
    seconds: float  # wall time of the call


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: Callable  # (Outcome) -> None, raises on a wrong output
    may_refuse: bool = False  # exit 3 (resource limit) is a known refusal
    suite: Optional[str] = None


class Plan:
    """Graphs and operations of one workload for one seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.graphs: dict = {}  # name -> (n, edges)
        self.direct: list = []  # graphs handed to a solver as they are
        self.aux: dict = {}  # name -> auxiliary graphs built from it
        self.ops: list = []
        self._optima: dict = {}
        getattr(self, "_build_" + workload)()

    # -- helpers -----------------------------------------------------------

    def _graph(self, name: str, n: int, edges, direct: bool = True) -> str:
        self.graphs[name] = (n, tuple(edges))
        if direct:
            self.direct.append(name)
        return str(self.workdir / f"{name}.g")

    def _auxiliaries(self, name: str) -> None:
        n, edges = self.graphs[name]
        self.aux[name] = [oracle.auxiliary(n, edges, w) for w in range(1, n + 1)]

    def _witness(self, label: str) -> str:
        return str(self.workdir / f"{label}.witness")

    def optima(self, name: str) -> oracle.ArrangementOptima:
        if name not in self._optima:
            self._optima[name] = oracle.ArrangementOptima(*self.graphs[name])
        return self._optima[name]

    def write(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, (n, edges) in self.graphs.items():
            lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
            (self.workdir / f"{name}.g").write_text("\n".join(lines) + "\n")

    def properties(self) -> list:
        """n, m and twin share of every generated graph; for beta reduction
        bases also the auxiliary graphs' size and least twin share."""
        rows = []
        for name, (n, edges) in self.graphs.items():
            row = {"graph": name, "n": n, "m": len(edges),
                   "twin_share": round(oracle.twin_share(n, edges), 4)}
            if name in self.aux:
                p = 2 * len(edges)
                aux_share = min(oracle.twin_share(*aux) for aux in self.aux[name])
                if aux_share < p / (n + p):
                    raise RuntimeError(f"auxiliary graphs of {name} lost their clique twins")
                row.update(aux_n=n + p, aux_twin_share=round(aux_share, 4),
                           aux_twin_floor=round(p / (n + p), 4))
            rows.append(row)
        return rows

    def twin_share(self) -> float:
        """Share of twin vertices, pooled over every graph a solver sees."""
        total = twins = 0.0
        solved = [self.graphs[name] for name in self.direct]
        solved += [g for graphs in self.aux.values() for g in graphs]
        for n, edges in solved:
            total += n
            twins += n * oracle.twin_share(n, edges)
        return twins / total if total else 0.0

    # -- dp_large ----------------------------------------------------------

    def _build_dp_large(self) -> None:
        for n in (18, 19, 20):
            while True:
                edges = oracle.random_connected(self.rng, n, 2 * n)
                if oracle.twin_share(n, edges) == 0:
                    break
            name = f"g{n}"
            path = self._graph(name, n, edges)
            deg = oracle.degrees(n, edges)
            w0 = min(range(1, n + 1), key=lambda v: (deg[v], v))
            for objective in ("alpha", "beta"):
                label = f"{name}.arrangement.{objective}"
                self.ops.append(Op(label, ("solve", path, "--objective", objective,
                                           "--witness-out", self._witness(label)),
                                   self._check_arrangement(name, objective)))
            label = f"{name}.linear.beta"
            self.ops.append(Op(label, ("solve", path, "--objective", "beta", "--mode",
                                       "linear", "--witness-out", self._witness(label)),
                               self._check_linear(name)))
            label = f"{name}.anchored.beta"
            self.ops.append(Op(label, ("solve", path, "--objective", "beta", "--anchor",
                                       str(w0), "--witness-out", self._witness(label)),
                               self._check_arrangement(name, "beta", anchor=w0)))

    def _check_arrangement(self, name: str, objective: str, anchor=None):
        def check(o: Outcome) -> None:
            n, edges = self.graphs[name]
            out = json.loads(o.stdout)
            expect(out["mode"] == "arrangement", f"mode {out['mode']}")
            _check_witness_file(out)
            order = [int(t) for t in out["witness"].split()]
            alpha, beta = oracle.arrangement_measures(n, edges, order)
            got = alpha if objective == "alpha" else beta
            expect(out["value"] == got, f"value {out['value']} but witness measures {got}")
            if anchor is None:
                want = self.optima(name).arrangement(objective)
            else:
                deg = oracle.degrees(n, edges)
                expect(out["anchor"] == anchor and order[0] == anchor
                       and deg[order[1]] >= deg[anchor],
                       f"witness {order[:2]} not anchored at {anchor}")
                want = self.optima(name).anchored_beta(anchor)
            expect(out["value"] == want, f"value {out['value']}, optimum {want}")
        return check

    def _check_linear(self, name: str):
        def check(o: Outcome) -> None:
            n, edges = self.graphs[name]
            out = json.loads(o.stdout)
            expect(out["mode"] == "linear_reassembling", f"mode {out['mode']}")
            _check_witness_file(out)
            _, beta = oracle.tree_measures(n, edges, out["witness"], linear=True)
            expect(out["value"] == beta, f"value {out['value']} but witness measures {beta}")
            want = self.optima(name).linear_beta()
            expect(out["value"] == want, f"value {out['value']}, optimum {want}")
        return check

    # -- reduce ------------------------------------------------------------

    def _build_reduce(self) -> None:
        bases = [("p4", 4, oracle.path(4)), ("c4", 4, oracle.cycle(4)),
                 ("c5", 5, oracle.cycle(5)), ("s3", 4, oracle.star(3)),
                 ("k4", 4, oracle.complete(4))]
        # auxiliary graphs have 5 + 2m <= 17 vertices
        bases += [(f"r5m{m}", 5, oracle.random_connected(self.rng, 5, m)) for m in (4, 5, 6)]
        for name, n, edges in bases:
            path = self._graph(name, n, edges, direct=False)
            self._auxiliaries(name)
            for short, direction in DIRECTIONS.items():
                self.ops.append(Op(f"{name}.beta.{short}",
                                   ("reduce", path, "--problem", "beta", "--direction", short),
                                   self._check_reduce_beta(name, direction)))
        alpha_cases = [("q3", 8, oracle.qcube3(), "noncut_deg3"),
                       ("rt34", *oracle.ring_tree((3, 4)), "all_deg3_cut"),
                       ("rt33p3", *oracle.ring_tree((3, 3), path_len=3), "all_deg3_cut")]
        for name, n, edges, branch in alpha_cases:
            path = self._graph(name, n, edges)
            self.ops.append(Op(f"{name}.alpha", ("reduce", path, "--problem", "alpha"),
                               self._check_reduce_alpha(name, branch)))
        # auxiliary graphs of q3 have 32 vertices, over the default DP limit
        self._auxiliaries("q3")
        for short, direction in DIRECTIONS.items():
            self.ops.append(Op(f"q3.beta.{short}",
                               ("reduce", str(self.workdir / "q3.g"), "--problem", "beta",
                                "--direction", short),
                               self._check_reduce_beta("q3", direction), may_refuse=True))

    def _check_reduce_beta(self, name: str, direction: str):
        def check(o: Outcome) -> None:
            n, edges = self.graphs[name]
            out = json.loads(o.stdout)
            expect(out["problem"] == "beta" and out["direction"] == direction,
                   f"report for {out['problem']} {out['direction']}")
            rows = [(a["beta"], a["w"]) for a in out["anchors"]]
            expect(sorted(w for _, w in rows) == list(range(1, n + 1)),
                   f"anchors {[w for _, w in rows]}")
            best = out["best"]
            expect((best["beta"], best["w"]) == min(rows), f"best {best} is not the least anchor")
            expect(out["checks"] == {"scatter0": True, "balanced": True},
                   f"checks {out['checks']}")
            opt = self.optima(name)
            if direction == DIRECTIONS["r2a"]:
                want = opt.linear_beta()
                _, got = oracle.tree_measures(n, edges, best["object"], linear=True)
            else:
                want = opt.arrangement("beta")
                order = [int(t) for t in best["object"].split()]
                _, got = oracle.arrangement_measures(n, edges, order)
            expect(best["beta"] == want, f"best beta {best['beta']}, direct optimum {want}")
            expect(got == want, f"best object measures {got}, want {want}")
        return check

    def _check_reduce_alpha(self, name: str, branch: str):
        def check(o: Outcome) -> None:
            n, edges = self.graphs[name]
            out = json.loads(o.stdout)
            expect(out["problem"] == "alpha", f"problem {out['problem']}")
            expect(out["branch"] == branch, f"branch {out['branch']}, want {branch}")
            order = [int(t) for t in out["witness"].split()]
            got, _ = oracle.arrangement_measures(n, edges, order)
            want = self.optima(name).arrangement("alpha")
            expect(out["value"] == got == want,
                   f"value {out['value']}, witness {got}, cutwidth {want}")
        return check

    # -- binary ------------------------------------------------------------

    def _build_binary(self) -> None:
        graphs = [("q3", oracle.qcube3()), ("k8", oracle.complete(8)), ("s7", oracle.star(7))]
        graphs += [(f"r8m{m}", oracle.random_connected(self.rng, 8, m)) for m in (10, 14)]
        for name, edges in graphs:
            path = self._graph(name, 8, edges)
            for objective in ("alpha", "beta"):
                label = f"{name}.binary.{objective}"
                self.ops.append(Op(label, ("solve", path, "--objective", objective, "--mode",
                                           "binary", "--witness-out", self._witness(label)),
                                   self._check_binary(name, objective)))

    def _check_binary(self, name: str, objective: str):
        def check(o: Outcome) -> None:
            n, edges = self.graphs[name]
            out = json.loads(o.stdout)
            expect(out["mode"] == "binary_reassembling", f"mode {out['mode']}")
            _check_witness_file(out)
            alpha, beta = oracle.tree_measures(n, edges, out["witness"])
            got = alpha if objective == "alpha" else beta
            expect(out["value"] == got, f"value {out['value']} but witness measures {got}")
            want = oracle.binary_optimum(n, edges, objective)
            expect(out["value"] == want, f"value {out['value']}, optimum {want}")
            pin = BINARY_PINS.get((name, objective))
            expect(pin is None or want == pin, f"optimum {want}, pinned {pin}")
        return check

    # -- verify ------------------------------------------------------------

    def _build_verify(self) -> None:
        # randomized suites run under SUITE_SEEDS seeds each, so that their
        # seed-dependent cost averages out in a round
        for suite in SUITES:
            runs = 1 if suite in EXHAUSTIVE_SUITES else SUITE_SEEDS
            for k in range(runs):
                seed = self.seed * SUITE_SEEDS + k
                self.ops.append(Op(f"verify.{suite}.{seed}",
                                   ("verify", "--suite", suite, "--seed", str(seed)),
                                   _check_suite(suite), suite=suite))


def _check_witness_file(out: dict) -> None:
    text = Path(out["witness_file"]).read_text().strip()
    expect(text == out["witness"], f"witness file {out['witness_file']} differs from output")


def _check_suite(suite: str):
    def check(o: Outcome) -> None:
        lines = o.stdout.splitlines()
        expect(len(lines) == 1, f"{len(lines)} result lines")
        out = json.loads(lines[0])
        expect(out["suite"] == suite, f"suite {out['suite']}")
        expect(out["ok"] is True and out["failures"] == 0 and out["checks"] > 0,
               f"suite result {out}")
    return check
