"""Reductions between beta-optimal linear reassembling and beta-optimal
linear arrangement, and the degree-3 pipeline for alpha.

The beta reduction glues a clique onto a chosen anchor w: the auxiliary
graph G_w adds p = sum of all degrees of G fresh vertices U, joined to w and
to each other so that U + {w} induces a complete graph on p + 1 vertices.
Orders of V(G_w) are scored as sequences of per-prefix pairs (r, s) counting
base-graph and clique edges separately.  Two normalization moves --
descattering (pull a base vertex out of the clique block) and rebalancing
(put all of V - {w} on one side of w) -- never increase beta, which forces
every beta-optimal order of G_w into the shape  U ... U  w  V-{w},  and in
that shape the restriction to V is an optimal anchored solution of the
original problem.  Minimizing over all anchors gives the exact optimum.

For alpha on graphs of maximum degree <= 3 the pipeline branches on whether
every degree-3 vertex is a cut vertex; an exact subset-DP arrangement solve
stands in for the specialized polynomial-time algorithm in the branch where
that holds, and otherwise the alpha-optimal linear reassembling induces an
alpha-optimal arrangement.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from .errors import ValidationError
from .graph import Deg3Report, Graph, classify_deg3, popcount
from .layout import (Arrangement, evaluate_arrangement, format_witness,
                     induce_arrangement, induce_reassembling)
from .solvers import exact_arrangement, exact_linear_reassembling
from .tree import measures

R2A = "reassembling_to_arrangement"  # solve reassembling with an arrangement solver
A2R = "arrangement_to_reassembling"  # solve arrangement with a reassembling solver


@dataclass(frozen=True)
class AuxiliaryGraph:
    """G_w: the base graph plus a (p+1)-clique glued onto the anchor w."""

    base: Graph
    w: int
    p: int
    combined: Graph

    @property
    def u_vertices(self) -> range:
        return range(self.base.n + 1, self.base.n + self.p + 1)

    @property
    def u_mask(self) -> int:
        return ((1 << self.p) - 1) << self.base.n

    @property
    def k_mask(self) -> int:
        """U + {w}: the clique side of the sequence bookkeeping."""
        return self.u_mask | (1 << (self.w - 1))


def build_auxiliary(g: Graph, w: int) -> AuxiliaryGraph:
    if not g.is_connected():
        raise ValidationError("auxiliary construction needs a connected base graph")
    g._check_vertex(w)
    p = 2 * g.m
    us = range(g.n + 1, g.n + p + 1)
    edges = list(g.edges)
    edges.extend((w, u) for u in us)
    edges.extend(itertools.combinations(us, 2))
    return AuxiliaryGraph(base=g, w=w, p=p, combined=Graph(g.n + p, tuple(edges)))


@dataclass(frozen=True)
class VCSequence:
    """An order of V(G_w) with per-prefix pairs (r, s): r counts base-graph
    edges crossing the prefix, s counts clique edges.  Pairs cover the
    n + p - 1 proper prefixes; beta(S) is the sum of all r + s."""

    aux: AuxiliaryGraph
    order: tuple
    pairs: tuple

    @property
    def beta(self) -> int:
        return sum(r + s for r, s in self.pairs)

    def reversed(self) -> "VCSequence":
        return vc_sequence(self.aux, tuple(reversed(self.order)))


def vc_sequence(aux: AuxiliaryGraph, order) -> VCSequence:
    order = tuple(order)
    nv = aux.combined.n
    if len(order) != nv or set(order) != set(range(1, nv + 1)):
        raise ValidationError("order is not a permutation of the auxiliary vertices")
    base_adj = aux.base.adj + (0,) * aux.p
    k = aux.k_mask
    pairs = []
    prefix = 0
    r = s = 0
    for v in order[:-1]:
        bit = 1 << (v - 1)
        r += popcount(base_adj[v - 1]) - 2 * popcount(base_adj[v - 1] & prefix)
        if bit & k:
            inside = popcount(k & prefix)
            s += (aux.p - inside) - inside  # clique degree p, minus edges closed
        prefix |= bit
        pairs.append((r, s))
    return VCSequence(aux=aux, order=order, pairs=tuple(pairs))


def _k_positions(seq: VCSequence) -> list:
    k = seq.aux.k_mask
    return [i for i, v in enumerate(seq.order, start=1) if (1 << (v - 1)) & k]


def _scatter_positions(seq: VCSequence):
    """None if the clique vertices sit consecutively; otherwise (i, j, k, l)
    where i/l are the outermost clique positions and j/k the nearest base
    vertices inside them."""
    pos = _k_positions(seq)
    i, l = pos[0], pos[-1]
    if l - i + 1 == len(pos):
        return None
    kset = set(pos)
    j = next(t for t in range(i + 1, l) if t not in kset)
    k = next(t for t in range(l - 1, i, -1) if t not in kset)
    return i, j, k, l


def scatter(seq: VCSequence) -> int:
    """0 iff the clique vertices sit consecutively; otherwise min(j-i, l-k)
    in the notation of _scatter_positions."""
    pos = _scatter_positions(seq)
    if pos is None:
        return 0
    i, j, k, l = pos
    return min(j - i, l - k)


def unbalance(seq: VCSequence) -> int:
    aux = seq.aux
    n, p = aux.base.n, aux.p
    wpos = seq.order.index(aux.w) + 1
    umask = aux.u_mask
    a_left = b_left = 0
    for v in seq.order[:wpos - 1]:
        if (1 << (v - 1)) & umask:
            b_left += 1
        else:
            a_left += 1
    a_right = (n - 1) - a_left
    b_right = p - b_left
    return min((n - a_left - 1) + (p - b_right),
               (n - a_right - 1) + (p - b_left))


def descatter_move(seq: VCSequence) -> VCSequence:
    """Pull the blocking base vertex across the nearer outer clique run
    (left on ties).  Strictly decreases beta."""
    pos = _scatter_positions(seq)
    if pos is None:
        raise ValidationError("sequence is not scattered")
    i, j, k, l = pos
    order = list(seq.order)
    if j - i <= l - k:
        v = order.pop(j - 1)
        order.insert(i - 1, v)
    else:
        v = order.pop(k - 1)
        order.insert(l - 1, v)  # lands right after the old position l
    out = vc_sequence(seq.aux, tuple(order))
    assert out.beta < seq.beta, "descatter failed to decrease beta"
    return out


def rebalance_move(seq: VCSequence) -> VCSequence:
    """One rebalancing step on an unscattered, unbalanced sequence.

    With the clique block at positions i0..i0+p and w offset k inside it:
    k = 0 moves every base vertex on the right to just before w; k = p
    mirrors that; otherwise w is transposed with the clique end on the side
    holding fewer of its base neighbors (a beta-preserving left transposition
    followed by the k = 0 relocation when the two sides tie).  beta never
    increases, and it strictly decreases except in the tie transposition.
    """
    if scatter(seq) != 0:
        raise ValidationError("rebalance needs an unscattered sequence")
    if unbalance(seq) == 0:
        raise ValidationError("sequence is already balanced")
    aux = seq.aux
    p = aux.p
    pos = _k_positions(seq)
    i0 = pos[0]
    order = list(seq.order)
    k = order.index(aux.w) + 1 - i0
    before = seq.beta

    def relocate_right_block_before_w(cur):
        left, run, right = cur[:i0 - 1], cur[i0 - 1:i0 + p], cur[i0 + p:]
        return left + right + run

    def relocate_left_block_after_w(cur):
        left, run, right = cur[:i0 - 1], cur[i0 - 1:i0 + p], cur[i0 + p:]
        return run + left + right

    if k == 0:
        order = relocate_right_block_before_w(order)
    elif k == p:
        order = relocate_left_block_after_w(order)
    else:
        w_at = i0 + k - 1
        wbit_neighbors = aux.base.adj[aux.w - 1]
        d_left = sum(1 for v in order[:i0 - 1] if wbit_neighbors & (1 << (v - 1)))
        d_right = sum(1 for v in order[i0 + p:] if wbit_neighbors & (1 << (v - 1)))
        if d_left >= d_right:
            order[i0 - 1], order[w_at] = order[w_at], order[i0 - 1]
            if d_left == d_right:
                tied = vc_sequence(aux, tuple(order))
                if unbalance(tied) > 0:
                    order = relocate_right_block_before_w(order)
        else:
            order[i0 + p - 1], order[w_at] = order[w_at], order[i0 + p - 1]
    out = vc_sequence(aux, tuple(order))
    assert out.beta <= before, "rebalance increased beta"
    return out


def normalize_sequence(seq: VCSequence) -> VCSequence:
    """Descatter then rebalance to a fixpoint: scatter 0, unbalance 0, and
    beta no larger than the input's.  Balanced inputs come back unchanged."""
    guard = 0
    while True:
        if scatter(seq) > 0:
            seq = descatter_move(seq)
        elif unbalance(seq) > 0:
            seq = rebalance_move(seq)
        else:
            return seq
        guard += 1
        assert guard <= 4 * len(seq.order) + seq.beta, "normalization failed to terminate"


def _is_right_balanced(seq: VCSequence) -> bool:
    p = seq.aux.p
    umask = seq.aux.u_mask
    head_ok = all((1 << (v - 1)) & umask for v in seq.order[:p])
    return head_ok and seq.order[p] == seq.aux.w


# ---------------------------------------------------------------------------
# beta reduction

@dataclass(frozen=True)
class ReductionReport:
    problem: str
    direction: str
    anchors: tuple  # ((w, beta), ...) in anchor order
    best_anchor: int
    best_value: int
    best_object: object  # ReassemblyTree (r2a) or Arrangement (a2r)
    checks: dict

    def to_json(self) -> dict:
        return {"problem": self.problem, "direction": self.direction,
                "anchors": [{"w": w, "beta": b} for w, b in self.anchors],
                "best": {"w": self.best_anchor, "beta": self.best_value,
                         "object": format_witness(self.best_object)},
                "checks": dict(self.checks)}


def _solve_anchor(g: Graph, w: int, direction: str) -> tuple:
    aux = build_auxiliary(g, w)
    if direction == R2A:
        order = exact_arrangement(aux.combined, "beta").witness.order
    else:
        res = exact_linear_reassembling(aux.combined, "beta")
        order = induce_arrangement(aux.combined, res.witness).order
    s = vc_sequence(aux, order)
    scatter0 = scatter(s) == 0
    balanced = unbalance(s) == 0
    s = normalize_sequence(s)
    if not _is_right_balanced(s):
        s = s.reversed()
    assert _is_right_balanced(s), "normalized sequence is not balanced"
    restricted = tuple(v for v in s.order if v <= g.n)
    assert restricted[0] == w
    anchored_tree = induce_reassembling(g, Arrangement(restricted))
    if direction == R2A:
        beta = measures(g, anchored_tree).beta
        obj = anchored_tree
    else:
        arr = induce_arrangement(g, anchored_tree)
        beta = evaluate_arrangement(g, arr).beta
        obj = arr
    return w, beta, obj, scatter0, balanced


def reduce_beta(g: Graph, direction: str, jobs: int = 1) -> ReductionReport:
    """Solve one beta problem exactly through the other, one auxiliary graph
    per anchor; the winner is the (beta, anchor) lexicographic minimum.

    `jobs` caps the worker processes, which are also at most one per anchor
    and one per CPU: the pool starts all of its workers at once."""
    if direction not in (R2A, A2R):
        raise ValidationError(f"direction must be {R2A!r} or {A2R!r}")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    if not g.is_connected():
        raise ValidationError("beta reduction needs a connected graph")
    workers = min(jobs, g.n, os.cpu_count() or 1)
    parallel = workers > 1
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        mapper = pool.map if parallel else map
        # both maps keep the order of g.vertices, so rows are in anchor order
        rows = list(mapper(_solve_anchor, itertools.repeat(g), g.vertices,
                           itertools.repeat(direction)))
    best = min(rows, key=lambda row: (row[1], row[0]))
    return ReductionReport(
        problem="beta",
        direction=direction,
        anchors=tuple((w, beta) for w, beta, *_ in rows),
        best_anchor=best[0],
        best_value=best[1],
        best_object=best[2],
        checks={"scatter0": all(r[3] for r in rows),
                "balanced": all(r[4] for r in rows)})


# ---------------------------------------------------------------------------
# alpha pipeline

@dataclass(frozen=True)
class AlphaReductionReport:
    branch: str  # "all_deg3_cut" | "noncut_deg3"
    classifier: Deg3Report
    value: int
    witness: Arrangement

    def to_json(self) -> dict:
        return {"problem": "alpha", "branch": self.branch,
                "classifier": {"max_degree": self.classifier.max_degree,
                               "all_deg3_are_cut": self.classifier.all_deg3_are_cut,
                               "noncut_deg3_witness": self.classifier.noncut_deg3_witness},
                "value": self.value,
                "witness": format_witness(self.witness)}


def reduce_alpha(g: Graph) -> AlphaReductionReport:
    """Cutwidth-optimal arrangement for max degree <= 3.

    If every degree-3 vertex is a cut vertex, solve the arrangement problem
    directly (exact subset DP standing in for the specialized
    polynomial-time algorithm).  Otherwise solve the alpha-optimal linear
    reassembling and return its induced arrangement, which is then
    alpha-optimal among arrangements.
    """
    if not g.is_connected():
        raise ValidationError("alpha reduction needs a connected graph")
    report = classify_deg3(g)
    if report.max_degree > 3:
        raise ValidationError(
            f"alpha reduction needs maximum degree <= 3, got {report.max_degree}")
    if report.all_deg3_are_cut:
        res = exact_arrangement(g, "alpha")
        return AlphaReductionReport(branch="all_deg3_cut", classifier=report,
                                    value=res.value, witness=res.witness)
    res = exact_linear_reassembling(g, "alpha")
    arr = induce_arrangement(g, res.witness)
    value = evaluate_arrangement(g, arr).alpha
    return AlphaReductionReport(branch="noncut_deg3", classifier=report,
                                value=value, witness=arr)

