"""Self-check suites behind the `verify` command.

Each suite bundles a family of invariants that must hold identically on
every instance: the beta = gamma identity, round trips between the object
representations, agreement of the exact solvers with brute force, the
normalization lemmas on auxiliary-graph sequences, and the catalog of
pinned example values.  Suites are deterministic for a fixed seed and
return per-suite counts so the CLI can emit one JSON line each.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ValidationError
from .graph import Graph, complete_graph, path_graph, qcube3_graph, star_graph
from .layout import (Arrangement, edge_length, evaluate_arrangement,
                     induce_arrangement, induce_reassembling)
from .reduction import (build_auxiliary, descatter_move, normalize_sequence,
                        scatter, unbalance, vc_sequence)
from .sequential import block_tree, canonical_ordering, chain_to_ordering, seq_reassemble
from .solvers import (brute_force_arrangement, exact_arrangement,
                      exact_linear_reassembling)
from .tree import measures, parse_tree


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {"suite": self.suite, "checks": self.checks,
                "failures": self.failures, "ok": self.ok, "detail": self.detail}


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks = 0
        self.failures = 0
        self.bad: list = []  # first few failure labels only

    def expect(self, cond: bool, label: str) -> None:
        self.checks += 1
        if not cond:
            self.failures += 1
            if len(self.bad) < 5:
                self.bad.append(label)

    def result(self) -> SuiteResult:
        detail = "; ".join(self.bad)
        if self.failures > len(self.bad):
            detail += "; ..."
        return SuiteResult(self.suite, self.checks, self.failures, detail)


def _random_graph(rng: random.Random, n: int, density: float) -> Graph:
    edges = [e for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < density]
    return Graph(n, tuple(edges))


def _random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    for _ in range(extra):
        u, v = rng.sample(range(1, n + 1), 2) if n > 1 else (1, 1)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Graph(n, tuple(edges))


def _random_arrangement(rng: random.Random, g: Graph) -> Arrangement:
    order = list(g.vertices)
    rng.shuffle(order)
    return Arrangement(tuple(order))


def suite_beta_equals_gamma(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """beta (sum of cuts) equals gamma (total edge length) on random graphs,
    connected or not, for random arrangements."""
    rng = random.Random(seed)
    rec = _Recorder("beta_equals_gamma")
    for _ in range(trials or 1000):
        n = rng.randint(1, 10)
        g = _random_graph(rng, n, rng.random())
        arr = _random_arrangement(rng, g)
        rep = evaluate_arrangement(g, arr)
        gamma = sum(edge_length(arr, e) for e in g.edges)
        rec.expect(rep.beta == rep.gamma == gamma,
                   f"beta {rep.beta} != gamma {gamma} on {g.edges} / {arr.order}")
    return rec.result()


def suite_roundtrips(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """Linear tree -> arrangement -> linear tree is the identity; the induced
    arrangement of the induced tree of any arrangement is stable."""
    rng = random.Random(seed)
    rec = _Recorder("roundtrips")
    for _ in range(trials or 300):
        n = rng.randint(1, 8)
        g = _random_connected_graph(rng, n, rng.randint(0, n))
        arr = _random_arrangement(rng, g)
        tree = induce_reassembling(g, arr)
        rec.expect(tree.is_linear(), f"induced tree not linear for {arr.order}")
        arr2 = induce_arrangement(g, tree)
        tree2 = induce_reassembling(g, arr2)
        rec.expect(tree2 == tree, f"tree roundtrip broke on {arr.order}")
        rec.expect(induce_arrangement(g, tree2) == arr2,
                   f"arrangement not stable on {arr.order}")
    return rec.result()


def suite_bin_can(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """Rebuilding the block tree from the canonical ordering of a strict
    tree gives the tree back; chains regenerate their own orderings."""
    rng = random.Random(seed)
    rec = _Recorder("bin_can")
    for _ in range(trials or 300):
        n = rng.randint(2, 8)
        g = _random_connected_graph(rng, n, rng.randint(0, n))
        ordering = list(g.edges)
        rng.shuffle(ordering)
        tree = block_tree(g, ordering)
        canon = canonical_ordering(g, tree)
        rec.expect(block_tree(g, canon) == tree,
                   f"bin(can) != tree for ordering {ordering}")
        trace = seq_reassemble(g, ordering)
        again = chain_to_ordering(g, trace.chain)
        rec.expect(seq_reassemble(g, again).chain == trace.chain,
                   f"chain not reproduced for {ordering}")
    return rec.result()


def _distinct_aux_orders(aux):
    """All orders of the auxiliary vertex set up to permuting U among itself
    (U vertices are interchangeable by symmetry): choose the positions of
    the base vertices, order them, and fill the rest with U ascending."""
    base = list(aux.base.vertices)
    us = list(aux.u_vertices)
    total = len(base) + len(us)
    for positions in itertools.combinations(range(total), len(base)):
        pos_set = set(positions)
        upos = [i for i in range(total) if i not in pos_set]
        for perm in itertools.permutations(base):
            order: list = [0] * total
            for i, v in zip(positions, perm):
                order[i] = v
            for i, u in zip(upos, us):
                order[i] = u
            yield tuple(order)


def suite_balance_lemmas(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """Exhaustively over every connected base graph whose auxiliary graphs
    have at most 10 vertices: all beta-minimal orders are unscattered and
    balanced; descattering strictly decreases beta on every scattered
    order; normalization never increases beta and is idempotent."""
    del seed, trials  # exhaustive, nothing to sample
    rec = _Recorder("balance_lemmas")
    bases = [path_graph(2), path_graph(3), complete_graph(3),
             path_graph(4), star_graph(3)]
    for g in bases:
        for w in g.vertices:
            aux = build_auxiliary(g, w)
            best = None
            argmin = []
            for order in _distinct_aux_orders(aux):
                s = vc_sequence(aux, order)
                b = s.beta
                if best is None or b < best:
                    best, argmin = b, [s]
                elif b == best:
                    argmin.append(s)
                if scatter(s) > 0:
                    s2 = descatter_move(s)
                    rec.expect(s2.beta < b,
                               f"descatter kept beta at {b} on {order}")
                s3 = normalize_sequence(s)
                rec.expect(s3.beta <= b and scatter(s3) == 0 and unbalance(s3) == 0,
                           f"normalize misbehaved on {order}")
                if scatter(s) == 0 and unbalance(s) == 0:
                    rec.expect(normalize_sequence(s) is s,
                               f"normalize not a fixpoint on {order}")
            for s in argmin:
                rec.expect(scatter(s) == 0 and unbalance(s) == 0,
                           f"optimal order {s.order} scattered or unbalanced")
    return rec.result()


def suite_dp_vs_brute(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """Subset DP agrees with the factorial scan, free and anchored."""
    rng = random.Random(seed)
    rec = _Recorder("dp_vs_brute")
    for _ in range(trials or 40):
        n = rng.randint(2, 6)
        g = _random_connected_graph(rng, n, rng.randint(0, n))
        for objective in ("alpha", "beta"):
            dp = exact_arrangement(g, objective)
            bf = brute_force_arrangement(g, objective)
            rec.expect(dp.value == bf.value,
                       f"free {objective} dp {dp.value} != brute {bf.value} on {g.edges}")
            rec.expect(dp.witness == bf.witness,
                       f"free {objective} witnesses differ on {g.edges}")
            w = min(g.vertices, key=g.degree)
            dpa = exact_arrangement(g, objective, anchor=w)
            bfa = brute_force_arrangement(g, objective, anchor=w)
            rec.expect(dpa.value == bfa.value,
                       f"anchored {objective} dp {dpa.value} != brute {bfa.value} on {g.edges}")
    return rec.result()


def suite_fixtures(seed: int = 0, trials: Optional[int] = None) -> SuiteResult:
    """Pinned catalog values: tree and arrangement measures on the 3-cube,
    the complete graph K8 and the star S7, plus known exact optima."""
    del seed, trials
    rec = _Recorder("fixtures")
    q3 = qcube3_graph()
    k8 = complete_graph(8)
    s7 = star_graph(7)
    b1 = parse_tree("((((1 2) (3 4)) (5 6)) (7 8))")
    b2 = parse_tree("(((1 2) (3 4)) ((5 6) (7 8)))")
    b3 = parse_tree("(((((((1 2) 3) 4) 5) 6) 7) 8)")
    b4 = parse_tree("(((((1 2) (3 4)) (5 6)) 7) 8)")
    b5 = parse_tree("(((((((2 3) 4) 1) 5) 6) 7) 8)")
    for label, g, t, alpha, beta in [
            ("q3/b1", q3, b1, 4, 48), ("q3/b2", q3, b2, 4, 48), ("q3/b3", q3, b3, 5, 49),
            ("k8/b1", k8, b1, 16, 132), ("k8/b2", k8, b2, 16, 136),
            ("k8/b3", k8, b3, 16, 133), ("k8/b4", k8, b4, 16, 127),
            ("s7/b1", s7, b1, 7, 32), ("s7/b2", s7, b2, 7, 34), ("s7/b3", s7, b3, 7, 35),
            ("s7/b4", s7, b4, 7, 31), ("s7/b5", s7, b5, 7, 29)]:
        mr = measures(g, t)
        rec.expect((mr.alpha, mr.beta) == (alpha, beta),
                   f"{label}: got ({mr.alpha}, {mr.beta}), want ({alpha}, {beta})")
    for label, arr, alpha, beta in [
            ("s7/phi3", Arrangement((2, 1, 3, 4, 5, 6, 7, 8)), 6, 22),
            ("s7/phi5", Arrangement((2, 3, 4, 1, 5, 6, 7, 8)), 4, 16),
            ("s7/phi3p", Arrangement((1, 2, 3, 4, 5, 6, 7, 8)), 7, 28)]:
        rep = evaluate_arrangement(s7, arr)
        rec.expect((rep.alpha, rep.beta) == (alpha, beta),
                   f"{label}: got ({rep.alpha}, {rep.beta}), want ({alpha}, {beta})")
    for label, got, want in [
            ("opt arr beta s7", exact_arrangement(s7, "beta").value, 16),
            ("opt arr alpha s7", exact_arrangement(s7, "alpha").value, 4),
            ("opt lin beta s7", exact_linear_reassembling(s7, "beta").value, 29),
            ("opt lin alpha q3", exact_linear_reassembling(q3, "alpha").value, 5),
            ("opt lin beta q3", exact_linear_reassembling(q3, "beta").value, 49),
            ("opt arr beta k3", exact_arrangement(complete_graph(3), "beta").value, 4),
            ("opt arr beta p3", exact_arrangement(path_graph(3), "beta").value, 2)]:
        rec.expect(got == want, f"{label}: got {got}, want {want}")
    return rec.result()


SUITES: dict = {
    "fixtures": suite_fixtures,
    "beta_equals_gamma": suite_beta_equals_gamma,
    "roundtrips": suite_roundtrips,
    "bin_can": suite_bin_can,
    "balance_lemmas": suite_balance_lemmas,
    "dp_vs_brute": suite_dp_vs_brute,
}


def run_suites(names: Optional[list] = None, seed: int = 0,
               trials: Optional[int] = None) -> list:
    if trials is not None and trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    picked = names or list(SUITES)
    results = []
    for name in picked:
        fn: Callable = SUITES.get(name)
        if fn is None:
            raise ValidationError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        results.append(fn(seed, trials))
    return results
