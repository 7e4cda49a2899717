"""Exact optimizers for arrangements and reassemblings.

The workhorse is a subset DP over prefix sets (Bodlaender, Fomin, Koster,
Kratsch and Thilikos, ToCS 2012), where (+) is the sum for beta and the
maximum for alpha.  The prefix table

    X[T] = cut[T] (+) min over v in T of X[T - v],    X[0] = 0

is the best cost of the cuts of an order of T, T itself included.  Since
cut[S] = cut[V - S], reading an order backwards turns the cuts still to
come after a placed set t into the cuts of an order of V - t, so

    X[V - t] = cut[t] (+) (best cost of the cuts after t).

One table serves both objectives: the free optimum is X[V], and every
test below reads X at a complement.

Binary reassemblings use a second subset DP, over splits: the best tree on
S costs best[S] = cut[S] (+) min over splits {S - A, A} of best[S - A] (+)
best[A].  Linear trees are the ones whose splits peel off one vertex.

Witnesses of both DPs come from one budgeted rule: go through the choices
in a fixed order and take the first whose cost still fits the budget.
For an arrangement it keeps the cost spent so far and appends the
smallest vertex v with spent (+) X[V - (S + v)] <= budget; after a
one-vertex prefix (an anchor w) v must also have deg(v) >= deg(w).  With
the budget set to the optimum, the witness is the lexicographically least
optimal order.  For a binary tree it works top down from V and splits a
cluster S at the first A (largest subset of S minus its lowest vertex
first) with cut[S] (+) best[S - A] (+) best[A] <= budget.

Linear reassemblings are solved through arrangements: a linear tree whose
first cluster is {w, w'} with deg(w) <= deg(w') corresponds to an
arrangement anchored at w (w first, second vertex of no smaller degree), and

    beta(G, L) = beta(G, phi) + sum of deg(v) over v != w
    alpha(G, L) = max(max degree, alpha(G, phi))

so minimizing over feasible anchors is exact.  The three arrangement-based
problems differ only in the budget: X[V] for a free arrangement, the
anchored optimum for an anchored one, and for a linear tree the tree value
(alpha) or the tree value minus the degree sum over v != w (beta).

Brute force is only the factorial scan of arrangements, kept as an
independent reference for small instances.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import LimitError, ValidationError
from .graph import Graph, iter_bits, popcount
from .layout import Arrangement, format_witness, induce_reassembling
from .tree import ReassemblyTree

DEFAULT_DP_LIMIT = 24
BRUTE_ARRANGEMENT_LIMIT = 10
BINARY_TREE_LIMIT = 8

_INF = float("inf")
# leaf block of the prefix table; chunk of the list comprehensions that fill
# the tables, which bounds their temporary lists
_LEAF = 1 << 6
_CHUNK = 1 << 13


def dp_limit() -> int:
    raw = os.environ.get("REASM_DP_LIMIT")
    if raw is None:
        return DEFAULT_DP_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"REASM_DP_LIMIT must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SolveResult:
    objective: str  # "alpha" | "beta"
    mode: str  # "arrangement" | "linear_reassembling" | "binary_reassembling"
    value: int
    witness: Union[Arrangement, ReassemblyTree]
    anchor: Optional[int] = None
    stats: dict = field(default_factory=dict, compare=False)

    def witness_text(self) -> str:
        return format_witness(self.witness)

    def to_json(self) -> dict:
        return {"objective": self.objective, "mode": self.mode, "value": self.value,
                "witness": self.witness_text(), "anchor": self.anchor,
                "stats": {"states": self.stats.get("states", 0),
                          "millis": self.stats.get("millis", 0)}}


def _check_objective(objective: str) -> None:
    if objective not in ("alpha", "beta"):
        raise ValidationError(f"objective must be 'alpha' or 'beta', got {objective!r}")


def _check_solvable(g: Graph, limit: int) -> None:
    if not g.is_connected():
        raise ValidationError("optimizers need a connected graph")
    if g.n > limit:
        raise LimitError(f"instance has {g.n} vertices, limit is {limit}")


def _cut_table(g: Graph) -> list:
    """Boundary degree of every vertex subset, indexed by bitmask.

    Filled by doubling: the subsets holding vertex v as their highest
    vertex are the ones below v's bit with v added, so
    cut[half + k] = cut[k] + deg(v) - 2 |N(v) & k| with half = v's bit.
    """
    cut = [0] * (g.full_mask + 1)
    for i, a in enumerate(g.adj):
        half, d = 1 << i, a.bit_count()
        step = min(half, _CHUNK)
        for k in range(0, half, step):
            cut[half + k:half + k + step] = [
                c + d - 2 * (a & j).bit_count()
                for j, c in zip(range(k, k + step), cut[k:k + step])]
    return cut


def _prefix_table(objective: str, cut: list) -> list:
    """X[T] = cut[T] (+) min over v in T of X[T - v], with X[0] = 0: the
    best cost of the cuts of an order of T, T itself included.

    Masks are filled in increasing order, in leaf blocks of _LEAF.  Inside
    a block a loop takes the minimum over the low bits of T.  The high bits
    are folded in ahead: once the aligned block [e - s, e) with s = e & -e
    is final, its entries are min-ed into [e, e + s), which is the same
    range with bit s added.  Every mask receives one fold per high bit.
    """
    size = len(cut)
    beta = objective == "beta"
    x = [_INF] * size
    x[0] = 0
    leaf = min(_LEAF, size)
    lows = [tuple(lo ^ (1 << (v - 1)) for v in iter_bits(lo)) for lo in range(leaf)]
    for base in range(0, size, leaf):
        blk = x[base:base + leaf]
        for lo, offs, c in zip(range(leaf), lows, cut[base:base + leaf]):
            best = blk[lo]
            for j in offs:
                v = blk[j]
                if v < best:
                    best = v
            blk[lo] = c + best if beta else (c if c > best else best)
        x[base:base + leaf] = blk
        e = base + leaf
        if e < size:
            s = e & -e
            step = min(s, _CHUNK)
            for k in range(e, e + s, step):
                x[k:k + step] = [a if a < y else y
                                 for a, y in zip(x[k:k + step], x[k - s:k - s + step])]
    return x


def _combine(objective: str, step: int, rest) -> int:
    return step + rest if objective == "beta" else max(step, rest)


def _infeasible_anchor(w: int) -> ValidationError:
    return ValidationError(f"anchor {w} infeasible: no second vertex of degree >= deg({w})")


def _anchor_feasible(g: Graph, w: int) -> bool:
    return any(v != w and g.degree(v) >= g.degree(w) for v in g.vertices)


def _dp_tables(g: Graph, objective: str, anchor: Optional[int]) -> tuple:
    """Checks shared by the subset-DP solvers, then the cut and prefix
    tables."""
    _check_objective(objective)
    _check_solvable(g, dp_limit())
    if anchor is not None:
        g._check_vertex(anchor)
        if not _anchor_feasible(g, anchor):
            raise _infeasible_anchor(anchor)
    cut = _cut_table(g)
    return cut, _prefix_table(objective, cut)


def _greedy_completion(g: Graph, objective: str, cut: list, x: list, prefix: list,
                       budget: int) -> list:
    """Lexicographically least completion of `prefix` whose cost stays
    within `budget`; after a one-vertex prefix w the second vertex has
    degree >= deg(w)."""
    order = list(prefix)
    s = spent = 0
    for v in order:
        s |= 1 << (v - 1)
        spent = _combine(objective, spent, cut[s])
    min_deg = g.degree(order[0]) if len(order) == 1 else 0
    full = g.full_mask
    while s != full:
        for v in iter_bits(full ^ s):
            if min_deg and g.degree(v) < min_deg:
                continue
            t = s | (1 << (v - 1))
            # x[full ^ t] = cut[t] (+) the best cost of the cuts after t
            if _combine(objective, spent, x[full ^ t]) <= budget:
                order.append(v)
                s, spent, min_deg = t, _combine(objective, spent, cut[t]), 0
                break
        else:
            raise AssertionError("prefix table is inconsistent")
    return order


def _anchored_start(g: Graph, objective: str, cut: list, x: list, w: int) -> int:
    """Best value of an arrangement anchored at w, a feasible anchor."""
    dw = g.degree(w)
    wbit = 1 << (w - 1)
    rest = g.full_mask ^ wbit
    best = _INF
    for v in g.vertices:
        if v == w or g.degree(v) < dw:
            continue
        # x[rest - v] = cut[w + v] (+) the best cost of the cuts after {w, v}
        best = min(best, _combine(objective, cut[wbit], x[rest ^ (1 << (v - 1))]))
    return best


def exact_arrangement(g: Graph, objective: str, anchor: Optional[int] = None) -> SolveResult:
    """Optimal arrangement by subset DP (free, or anchored at a vertex)."""
    t0 = time.perf_counter()
    cut, x = _dp_tables(g, objective, anchor)
    if anchor is None:
        prefix, value = [], x[g.full_mask]
    else:
        prefix, value = [anchor], _anchored_start(g, objective, cut, x, anchor)
    order = _greedy_completion(g, objective, cut, x, prefix, value)
    millis = int((time.perf_counter() - t0) * 1000)
    return SolveResult(objective, "arrangement", int(value), Arrangement(tuple(order)),
                       anchor=anchor, stats={"states": len(x), "millis": millis})


def exact_linear_reassembling(g: Graph, objective: str,
                              anchor: Optional[int] = None) -> SolveResult:
    """Optimal linear reassembling via anchored arrangements."""
    t0 = time.perf_counter()
    cut, x = _dp_tables(g, objective, anchor)
    total_deg = 2 * g.m
    maxdeg = g.max_degree()
    anchors = [anchor] if anchor is not None else [
        w for w in g.vertices if _anchor_feasible(g, w)]
    best = None  # (tree value, w, budget)
    for w in anchors:
        arr_value = _anchored_start(g, objective, cut, x, w)
        if objective == "beta":
            value, budget = arr_value + (total_deg - g.degree(w)), arr_value
        else:
            value = budget = max(maxdeg, arr_value)
        if best is None or (value, w) < best[:2]:
            best = (value, w, budget)
    # a single vertex has no feasible anchor: its one-leaf tree costs 0
    value, w, budget = best if best is not None else (0, None, 0)
    order = _greedy_completion(g, objective, cut, x, [w] if w is not None else [], budget)
    tree = induce_reassembling(g, Arrangement(tuple(order)))
    millis = int((time.perf_counter() - t0) * 1000)
    return SolveResult(objective, "linear_reassembling", int(value), tree,
                       anchor=w, stats={"states": len(x), "millis": millis})


def _splits(s: int):
    """Non-empty subsets of s without its lowest vertex, largest first."""
    rest = s & (s - 1)
    a = rest
    while a:
        yield a
        a = (a - 1) & rest


def exact_binary_reassembling(g: Graph, objective: str) -> SolveResult:
    """Optimal binary reassembling by subset DP over splits."""
    _check_objective(objective)
    _check_solvable(g, BINARY_TREE_LIMIT)
    t0 = time.perf_counter()
    cut = _cut_table(g)
    best = list(cut)
    for s in range(3, len(best)):
        if s & (s - 1):
            best[s] = _combine(objective, cut[s], min(
                _combine(objective, best[s ^ a], best[a]) for a in _splits(s)))
    # top down: the first split that fits the budget; a beta child must be
    # optimal, an alpha child only has to stay within the parent's budget
    masks = []
    stack = [(g.full_mask, best[g.full_mask])]
    while stack:
        s, budget = stack.pop()
        masks.append(s)
        for a in _splits(s):
            if _combine(objective, cut[s],
                        _combine(objective, best[s ^ a], best[a])) <= budget:
                for child in (s ^ a, a):
                    stack.append((child, best[child] if objective == "beta" else budget))
                break
    tree = ReassemblyTree._trusted(g.full_mask, masks)
    millis = int((time.perf_counter() - t0) * 1000)
    return SolveResult(objective, "binary_reassembling", best[g.full_mask], tree,
                       stats={"states": len(best), "millis": millis})


# ---------------------------------------------------------------------------
# brute force reference

def brute_force_arrangement(g: Graph, objective: str,
                            anchor: Optional[int] = None) -> SolveResult:
    """Factorial scan over all arrangements (reference implementation)."""
    _check_objective(objective)
    _check_solvable(g, BRUTE_ARRANGEMENT_LIMIT)
    t0 = time.perf_counter()
    adj = g.adj
    deg = [popcount(a) for a in adj]
    if anchor is not None:
        g._check_vertex(anchor)
        rest = [v for v in g.vertices if v != anchor]
        heads = [(anchor,)]
    else:
        rest = None
        heads = [()]
    best = None
    count = 0
    for head in heads:
        pool = rest if rest is not None else list(g.vertices)
        for perm in itertools.permutations(pool):
            order = head + perm
            if anchor is not None:
                if len(order) < 2 or deg[order[1] - 1] < deg[anchor - 1]:
                    continue
            count += 1
            prefix = 0
            cur = 0
            value = 0
            for v in order:
                cur += deg[v - 1] - 2 * popcount(adj[v - 1] & prefix)
                prefix |= 1 << (v - 1)
                if objective == "beta":
                    value += cur
                elif cur > value:
                    value = cur
            if best is None or value < best[0]:
                best = (value, order)
    if best is None:
        raise _infeasible_anchor(anchor)
    millis = int((time.perf_counter() - t0) * 1000)
    return SolveResult(objective, "arrangement", best[0], Arrangement(best[1]),
                       anchor=anchor, stats={"states": count, "millis": millis})
