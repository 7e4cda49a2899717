"""Self-check suites behind the `verify` command.

Each suite bundles a family of invariants that must hold identically on
every instance: the beta = gamma identity (gamma summed by layout._gamma,
which evaluate_arrangement also calls), round trips between the object
representations, agreement of the exact solvers with brute force, the
normalization lemmas on auxiliary-graph sequences (each scattered order
descattered once, the others walked by reduction's one guarded walk), and
the catalog of pinned example values.
A sampled suite draws instances from its seed and hands each to a
per-instance checker; the acceptance tests run the same checkers over
exhaustive ranges.  Each suite returns its counts, so the CLI
can emit one JSON line per suite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .errors import ValidationError, VerificationError
from .graph import Graph, complete_graph, path_graph, qcube3_graph, star_graph
from .layout import (Arrangement, _gamma, evaluate_arrangement,
                     induce_arrangement, induce_reassembling)
from . import reduction
from .reduction import (_aux_layouts, _normal_step, _normalize, _row_sequences,
                        _scatter_positions, build_auxiliary, scatter, unbalance)
from .sequential import (SeqTrace, block_tree, canonical_ordering, chain_to_ordering,
                         seq_reassemble)
from .solvers import (brute_force_arrangement, exact_arrangement,
                      exact_linear_reassembling)
from .tree import ReassemblyTree, measures, parse_tree


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

    def expect(self, cond: bool, label: str, *args) -> None:
        """Count one check; a failure records label.format(*args), which a
        passing check never builds."""
        self.checks += 1
        if not cond:
            self.failures += 1
            if len(self.bad) < 5:
                self.bad.append(label.format(*args))

    def result(self) -> SuiteResult:
        detail = "; ".join(self.bad)
        if self.failures > len(self.bad):
            detail += "; ..."
        return SuiteResult(self.suite, self.checks, self.failures, detail)


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


def _beta_equals_gamma(rec: _Recorder, g: Graph, arr: Arrangement) -> None:
    """beta (the sum of the prefix cuts) equals gamma (the total edge length)."""
    beta = sum(g._prefix_cuts(arr.order))
    gamma = _gamma(g, arr.order)
    rec.expect(beta == gamma, "beta {} != gamma {} on {} / {}", beta, gamma, g.edges, arr.order)


def suite_beta_equals_gamma(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """beta = gamma on random graphs, connected or not, in random orders."""
    rng = random.Random(seed)
    rec = _Recorder("beta_equals_gamma")
    for _ in range(trials or 1000):
        n, density = rng.randint(1, 10), rng.random()
        g = Graph(n, tuple(e for e in itertools.combinations(range(1, n + 1), 2)
                           if rng.random() < density))
        _beta_equals_gamma(rec, g, _random_arrangement(rng, g))
    return rec.result()


def _roundtrip(rec: _Recorder, g: Graph, arr: Arrangement) -> None:
    """The induced tree of an arrangement is linear; the arrangement it
    induces induces it again and puts the smaller (degree, id) first."""
    tree = induce_reassembling(g, arr)
    rec.expect(tree.is_linear(), "induced tree not linear for {}", arr.order)
    back = induce_arrangement(g, tree)
    rec.expect(induce_reassembling(g, back) == tree, "tree roundtrip broke on {}", arr.order)
    head = list(back.order[:2])
    rec.expect(head == sorted(head, key=lambda v: (g.degree(v), v)),
               "induced arrangement {} breaks the first-pair rule", back.order)


def suite_roundtrips(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """Arrangement -> linear tree -> arrangement on random connected graphs."""
    rng = random.Random(seed)
    rec = _Recorder("roundtrips")
    for _ in range(trials or 300):
        n = rng.randint(1, 8)
        g = _random_connected_graph(rng, n, rng.randint(0, n))
        _roundtrip(rec, g, _random_arrangement(rng, g))
    return rec.result()


def _bin_can(rec: _Recorder, g: Graph, tree: ReassemblyTree) -> None:
    """Rebuilding the block tree from the canonical ordering of a strict
    tree gives the tree back: bin(can(T)) = T."""
    rec.expect(block_tree(g, canonical_ordering(g, tree)) == tree,
               "bin(can(T)) != T for the tree of clusters {}", tree.clusters)


def _chain_roundtrip(rec: _Recorder, g: Graph, trace: SeqTrace) -> None:
    """The edge ordering that chain_to_ordering emits for a trace's chain
    reproduces that chain."""
    chain = trace.chain
    rec.expect(seq_reassemble(g, chain_to_ordering(g, chain)).chain == chain,
               "chain not reproduced for the merges {}", [s.merged for s in trace.steps])


def suite_bin_can(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """bin(can(T)) = T on the block trees of random edge orderings (every
    block tree is strict); chains regenerate their own orderings."""
    rng = random.Random(seed)
    rec = _Recorder("bin_can")
    for _ in range(trials or 300):
        n = rng.randint(2, 8)
        g = _random_connected_graph(rng, n, rng.randint(0, n))
        ordering = list(g.edges)
        rng.shuffle(ordering)
        trace = seq_reassemble(g, ordering)
        _bin_can(rec, g, trace.tree())
        _chain_roundtrip(rec, g, trace)
    return rec.result()


def _normal_forms(aux):
    """Yield (s, scattered, t, nf) for every order of _aux_sequences(aux):
    s the scored order, whether it is scattered, t its one normalization
    step (None at a fixpoint) and nf its normal form, which equals
    normalize_sequence(s).

    A descattering move lowers the clique span (the last position of
    U + {w} minus the first) by one, so the clique layouts are visited in
    increasing span.  A scattered order makes its one move, to the base
    positions its layout predicts, and takes the normal form recorded at
    its target's enumeration index; a target with none raises.  Only the
    unscattered orders (span p) walk, through _normalize and one table per
    anchor, which holds only orders that a rebalancing move reached."""
    perms, rows = _aux_layouts(aux)
    size = len(perms)
    rank = {perm: r for r, (perm, _, _) in enumerate(perms)}
    row_start = {row[0]: c * size for c, row in enumerate(rows)}  # positions -> index
    by_slot = [([r for r, x in enumerate(perms) if x[1] == slot],
                [x for x in perms if x[1] == slot]) for slot in range(aux.base.n)]
    nfs: list = [None] * (len(rows) * size)  # normal form by enumeration index
    table: dict = {}
    descatter = reduction._descatter
    for _, c, slot in sorted((k_pos[-1] - k_pos[0], c, slot)
                             for c, (_, _, _, layouts) in enumerate(rows)
                             for slot, (k_pos, _) in enumerate(layouts)):
        ranks, slot_perms = by_slot[slot]
        start = c * size
        seqs = _row_sequences(aux, rows[c], slot_perms)
        head = next(seqs)
        pos = _scatter_positions(head)
        if pos is not None:
            # v, the blocking base vertex, lands at the run's far end, and w
            # shifts by one toward v's old place if it is in the run
            positions = rows[c][0]
            i, j, k, l = pos
            src, dst, lo, hi, shift = (j, i, i, j - 1, 1) if j - i <= l - k else (k, l, k + 1, l, -1)
            moved = tuple(sorted(dst if x == src else x + shift if lo <= x <= hi else x
                                 for x in positions))
            at, pick = row_start[moved], itemgetter(*(x - 1 for x in moved))
        for r, s in zip(ranks, itertools.chain((head,), seqs)):
            if pos is None:
                scattered, t = _normal_step(s)
                nf = s if t is None else _normalize(t, table, 1)
            else:
                scattered, t = True, descatter(s, pos)
                r_t = rank.get(pick(t.order))
                nf = None if r_t is None else nfs[at + r_t]
                if nf is None:
                    raise VerificationError(f"descattering {s.order} gave {t.order}, "
                                            f"which has no normal form recorded")
            nfs[start + r] = nf
            yield s, scattered, t, nf


def _balance_lemmas(rec: _Recorder, aux) -> None:
    """On every order of G_w: descattering strictly decreases beta, the
    normal form is unscattered, balanced and no worse, a balanced order is
    its own normal form, and every beta-minimal order is already balanced."""
    best = None
    argmin = []
    settled: dict = {}  # normal form order -> unscattered and balanced
    for s, scattered, t, nf in _normal_forms(aux):
        b = s.beta
        if best is None or b < best:
            best, argmin = b, [s]
        elif b == best:
            argmin.append(s)
        if scattered:  # then t is the descattering move
            rec.expect(t.beta < b, "descatter kept beta at {} on {}", b, s.order)
        ok = settled.get(nf.order)
        if ok is None:
            ok = settled[nf.order] = scatter(nf) == 0 and unbalance(nf) == 0
        rec.expect(nf.beta <= b and ok, "normalize misbehaved on {}", s.order)
        if not scattered and unbalance(s) == 0:
            rec.expect(t is None, "normalize not a fixpoint on {}", s.order)
    for s in argmin:
        rec.expect(scatter(s) == 0 and unbalance(s) == 0,
                   "optimal order {} scattered or unbalanced", s.order)


BALANCE_BASES = (path_graph(2), path_graph(3), complete_graph(3), path_graph(4), star_graph(3))


def suite_balance_lemmas(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """Exhaustively over every connected base graph whose auxiliary graphs
    have at most 10 vertices: all beta-minimal orders are unscattered and
    balanced; descattering strictly decreases beta on every scattered
    order; normalization never increases beta and is idempotent.  Orders
    are scored one clique layout at a time, in increasing clique span; a
    scattered order makes one descattering move, scored by its delta, and
    takes the normal form of the order it reached, so only the unscattered
    orders walk, through a per-anchor table."""
    del seed, trials  # exhaustive, nothing to sample
    rec = _Recorder("balance_lemmas")
    for g in BALANCE_BASES:
        for w in g.vertices:
            _balance_lemmas(rec, build_auxiliary(g, w))
    return rec.result()


def _anchored(solve: Callable, g: Graph, objective: str, w: int) -> Optional[tuple]:
    """(value, witness order) anchored at w, or None where w is infeasible."""
    try:
        res = solve(g, objective, anchor=w)
    except ValidationError:
        return None
    return res.value, res.witness.order


def _dp_vs_brute(rec: _Recorder, g: Graph) -> None:
    """The exact arrangement engines (the subset DP for beta, the cut-bounded
    search for alpha) and the factorial scan agree on value and witness,
    free and at every anchor w; at each w both refuse, or the witness is
    anchored (w first, deg(w) <= deg(second))."""
    for objective in ("alpha", "beta"):
        dp = exact_arrangement(g, objective)
        bf = brute_force_arrangement(g, objective)
        rec.expect((dp.value, dp.witness) == (bf.value, bf.witness),
                   "free {}: dp {} {} != brute {} {} on {}", objective, dp.value,
                   dp.witness.order, bf.value, bf.witness.order, g.edges)
        for w in g.vertices:
            got = _anchored(exact_arrangement, g, objective, w)
            want = _anchored(brute_force_arrangement, g, objective, w)
            rec.expect(got == want and (got is None or (
                g.n > 1 and got[1][0] == w and g.degree(w) <= g.degree(got[1][1]))),
                "{} at anchor {}: dp {}, brute {} on {} (both refuse, or agree and w is first)",
                objective, w, got, want, g.edges)


def suite_dp_vs_brute(seed: int, trials: Optional[int] = None) -> SuiteResult:
    """The exact engines against the factorial scan on random connected graphs."""
    rng = random.Random(seed)
    rec = _Recorder("dp_vs_brute")
    for _ in range(trials or 15):
        n = rng.randint(2, 6)
        _dp_vs_brute(rec, _random_connected_graph(rng, n, rng.randint(0, n)))
    return rec.result()


# The pinned catalog: fixtures/ holds the same trees, the arrangements of the
# star S7 and the graphs q3, k8 and s7.
FIXTURE_TREES = {
    "b1": "((((1 2) (3 4)) (5 6)) (7 8))", "b2": "(((1 2) (3 4)) ((5 6) (7 8)))",
    "b3": "(((((((1 2) 3) 4) 5) 6) 7) 8)", "b4": "(((((1 2) (3 4)) (5 6)) 7) 8)",
    "b5": "(((((1 ((2 3) 4)) 5) 6) 7) 8)"}
FIXTURE_ARRANGEMENTS = {"phi3": (2, 1, 3, 4, 5, 6, 7, 8), "phi5": (2, 3, 4, 1, 5, 6, 7, 8),
                        "phi3p": (1, 2, 3, 4, 5, 6, 7, 8)}
FIXTURE_GRAPHS = {"q3": qcube3_graph(), "k8": complete_graph(8), "s7": star_graph(7),
                  "k3": complete_graph(3), "p3": path_graph(3)}
TREE_PINS = (("q3", "b1", 4, 48), ("q3", "b2", 4, 48), ("q3", "b3", 5, 49),
             ("k8", "b1", 16, 132), ("k8", "b2", 16, 136), ("k8", "b3", 16, 133),
             ("k8", "b4", 16, 127), ("s7", "b1", 7, 32), ("s7", "b2", 7, 34),
             ("s7", "b3", 7, 35), ("s7", "b4", 7, 31), ("s7", "b5", 7, 29))
ARRANGEMENT_PINS = (("phi3", 6, 22), ("phi5", 4, 16), ("phi3p", 7, 28))
OPTIMUM_PINS = (("arr", "beta", "s7", 16), ("arr", "alpha", "s7", 4), ("lin", "beta", "s7", 29),
                ("lin", "alpha", "q3", 5), ("lin", "beta", "q3", 49), ("arr", "beta", "k3", 4),
                ("arr", "beta", "p3", 2))


def suite_fixtures(seed: int = 0, trials: Optional[int] = None) -> SuiteResult:
    """Pinned catalog values: tree and arrangement measures on the 3-cube,
    the complete graph K8 and the star S7, plus known exact optima."""
    del seed, trials
    rec = _Recorder("fixtures")
    for gname, tname, alpha, beta in TREE_PINS:
        mr = measures(FIXTURE_GRAPHS[gname], parse_tree(FIXTURE_TREES[tname]))
        rec.expect((mr.alpha, mr.beta) == (alpha, beta), "{}/{}: got ({}, {}), want ({}, {})",
                   gname, tname, mr.alpha, mr.beta, alpha, beta)
    for name, alpha, beta in ARRANGEMENT_PINS:
        arr = Arrangement(FIXTURE_ARRANGEMENTS[name])
        rep = evaluate_arrangement(FIXTURE_GRAPHS["s7"], arr)
        rec.expect((rep.alpha, rep.beta) == (alpha, beta), "s7/{}: got ({}, {}), want ({}, {})",
                   name, rep.alpha, rep.beta, alpha, beta)
    solvers = {"arr": exact_arrangement, "lin": exact_linear_reassembling}
    for mode, objective, gname, want in OPTIMUM_PINS:
        got = solvers[mode](FIXTURE_GRAPHS[gname], objective).value
        rec.expect(got == want, "opt {} {} {}: got {}, want {}", mode, objective, gname, got, want)
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
    for name in picked:
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    return [SUITES[name](seed, trials) for name in picked]
