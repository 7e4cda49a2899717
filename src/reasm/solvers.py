"""Exact optimizers for arrangements and reassemblings.

Each objective has one arrangement engine.  Beta runs a subset DP over
prefix sets (Bodlaender, Fomin, Koster, Kratsch and Thilikos, ToCS 2012).
Its prefix table

    X[T] = cut[T] + min over v in T of X[T - v],    X[0] = 0

is the least sum of the cuts of an order of T, T itself included.  Since
cut[S] = cut[V - S], reading an order backwards turns the cuts still to
come after a placed set t into the cuts of an order of V - t, so

    X[V - t] = cut[t] + (least sum of the cuts after t).

The free optimum is X[V], and every test below reads X at a complement.

The tables are indexed by twin-class count vectors, not by vertex sets.
Twins (false twins share N(v), true twins share N[v]) can be swapped by an
automorphism, so cut and X depend only on how many vertices of each class a
set holds (the number of classes is the neighbourhood diversity).  Every
position of the index is one mixed-radix digit of radix |class| + 1: a
vertex without a twin is a class of one, a digit of radix 2.  These take
the lowest strides 1, 2, 4, ... in id order, so a twin-free graph keeps
the plain bitmask layout, and the larger classes follow.  A set is the
sum of its vertices' strides, V is the largest index, and V - t is the
complement of t.  The witness rule below still scans vertex ids in
increasing order, and among twins it reaches the smallest unplaced one
first, so the witnesses are those of the plain layout.

Alpha is the cutwidth, which for a fixed bound k is polynomial (Thilikos,
Serna and Bodlaender, "Cutwidth I", J. Algorithms 2005): a prefix set with
cut <= k is a union of components of G - C, where C is its cut, so few
sets qualify.  The cut-bounded search grows prefix sets one vertex at a
time, cut(S + v) = cut(S) + deg(v) - 2 |N(v) & S|, and keeps a set while
its cut stays <= k.  Twins are placed in id order, so its sets are the
count vectors above written as vertex masks.  A set whose successors are
not all within k waits in a bucket keyed by the least of their cuts above
k; when nothing within k is left and V is not reached, k rises to the
smallest waiting cut and the sets of that bucket are scanned again.  Only
admitted sets are stored, each is scanned once per bound at which it gains
successors, and the k at which V is admitted is the optimum.

Witnesses of the arrangement engines are the lexicographically least
orders within the optimum, and after a one-vertex prefix (an anchor w)
the next vertex v must have deg(v) >= deg(w).  Beta's greedy completion
appends the smallest unplaced v with spent + X[V - (S + v)] <= budget,
with spent the sum of the cuts so far.  Alpha walks depth first from the
start set at the optimum, trying vertices in increasing order: it steps
to a successor whose cut is within the bound and that is not known to be
dead, and records a set none of whose successors leads to V as dead.  The
first order to reach V is the least one.

Binary reassemblings use a second subset DP, over splits of plain bitmask
vertex sets (the quotient does not apply to it), where (+) is the sum for
beta and the maximum for alpha: the best tree on S costs best[S] = cut[S]
(+) min over splits {S - A, A} of best[S - A] (+) best[A].  Linear trees
are the ones whose splits peel off one vertex.  Its witness works top down
from V and splits a cluster S at the first A (largest subset of S minus
its lowest vertex first) with cut[S] (+) best[S - A] (+) best[A] <= budget.

Linear reassemblings are solved through arrangements: a linear tree whose
first cluster is {w, w'} with deg(w) <= deg(w') corresponds to an
arrangement anchored at w (w first, second vertex of no smaller degree), and

    beta(G, L) = beta(G, phi) + sum of deg(v) over v != w
    alpha(G, L) = max(max degree, alpha(G, phi))

so minimizing over feasible anchors is exact.  The three arrangement-based
problems differ only in the budget: X[V] for a free arrangement, the
anchored optimum for an anchored one, and for a linear tree the tree value
minus the degree sum over v != w (beta).  For alpha, swapping the first
two vertices of an order changes only its first cut, so the least value
over all anchors is max(max degree, cutwidth): one search from the empty
set settles it, and the anchor is the first vertex of the walk's order.

Brute force is only the factorial scan of arrangements, kept as an
independent reference for small instances.

Every engine counts what it will enumerate -- states of the prefix table,
splits (S, A) of the binary DP, or orders of the brute force scan -- and
refuses more than 2^REASM_DP_LIMIT of them before any table or loop starts.
The search cannot count its sets ahead, so it counts them as it stores
them, admitted and dead ones alike, and refuses more than
2^(REASM_DP_LIMIT - 5): a stored set is a dict or set entry, about 2^5
times the bytes of a DP state.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .errors import LimitError, ValidationError, VerificationError
from .graph import Graph, vertices_of
from .layout import Arrangement, format_witness, induce_reassembling
from .tree import ReassemblyTree

DEFAULT_DP_LIMIT = 24

# caps on the states spanned by the lowest digits: the prefix table's leaf
# block, and the chunk of the lane-parallel fills and folds, which bounds
# their temporary ints
_LEAF = 1 << 6
_CHUNK = 1 << 13


def _lanes(bound: int) -> str:
    """The smallest unsigned array code whose lanes hold every value up to
    `bound` and a larger sentinel, all with the top bit clear."""
    return next(code for code in "BHIQ"
                if bound < (1 << (8 * array(code).itemsize - 1)) - 1)


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

    def to_json(self) -> dict:
        return {"objective": self.objective, "mode": self.mode, "value": self.value,
                "witness": format_witness(self.witness), "anchor": self.anchor,
                "stats": {"states": self.stats.get("states", 0),
                          "millis": self.stats.get("millis", 0)}}


def _check_objective(objective: str) -> None:
    if objective not in ("alpha", "beta"):
        raise ValidationError(f"objective must be 'alpha' or 'beta', got {objective!r}")


def _too_much(n: int, count: int, unit: str, limit: int) -> LimitError:
    return LimitError(f"instance has {n} vertices and 2^{math.log2(count):.1f} "
                      f"{unit}, limit is 2^{limit}")


def _check_work(n: int, count: int, unit: str) -> None:
    """At most 2^dp_limit() units of work (states, splits or orders) for an
    instance on n vertices; checked before any table or loop starts."""
    limit = dp_limit()
    if count and (count - 1).bit_length() > limit:  # count > 2^limit, for any int limit
        raise _too_much(n, count, unit, limit)


def _check_solvable(g: Graph, count: int, unit: str) -> None:
    """A connected graph whose solver enumerates at most 2^dp_limit() units."""
    if not g.is_connected():
        raise ValidationError("optimizers need a connected graph")
    _check_work(g.n, count, unit)


def _twin_classes(g: Graph) -> list:
    """Twin classes of size > 1, each ascending, ordered by smallest member.

    False twins share N(v) and true twins share N[v].  No vertex has both a
    false and a true twin: with N(u) = N(v) and N[u] = N[w], w is a
    neighbour of u and so of v, so v is in N[w] = N[u] and adjacent to
    itself.
    """
    groups = {}
    for v, a in enumerate(g.adj, start=1):
        groups.setdefault((a, False), []).append(v)
        groups.setdefault((a | 1 << (v - 1), True), []).append(v)
    return sorted(tuple(c) for c in groups.values() if len(c) > 1)


class _States(NamedTuple):
    """Mixed-radix index of the DP states.

    A state says how many vertices of each twin class are placed; swapping
    twins is an automorphism, so every table entry depends on these counts
    only.  Each entry (stride, members) of `digits` is one digit of radix
    |members| + 1, in ascending stride: first every vertex without a twin,
    a class of one, in id order (strides 1, 2, 4, ..., so a twin-free graph
    keeps the plain bitmask layout), then each class of `classes`.  Placing
    vertex v adds stride[v - 1]; the state holding every vertex is size - 1,
    and the complement of state t is size - 1 - t.  deg[v - 1] is the
    degree of v, read by the anchor and witness loops.
    """

    stride: tuple
    deg: tuple
    digits: tuple
    size: int


def _states(g: Graph, classes) -> _States:
    grouped = {v for c in classes for v in c}
    stride = [0] * g.n
    digits = []
    step = 1
    for members in [(v,) for v in g.vertices if v not in grouped] + list(classes):
        for v in members:
            stride[v - 1] = step
        digits.append((step, tuple(members)))
        step *= len(members) + 1
    return _States(tuple(stride), tuple(a.bit_count() for a in g.adj), tuple(digits), step)


def _low_span(st: _States, cap: int) -> int:
    """States spanned by the lowest digits whose radices multiply to at most
    `cap`, the lowest digit always included: the stride of the next digit
    up, or size."""
    tops = [h * (len(members) + 1) for h, members in st.digits]
    return max([t for t in tops if t <= cap], default=tops[0])


def _lanewise(view: memoryview, width: int, chunk: int, dst: int, src: int, count: int,
              op) -> None:
    """Lanes [dst, dst + count) of `view` become op(j, a, b, ones), chunk by
    chunk, where a and b are the lanes from dst + j and src + j read as ints
    and `ones` has a 1 in every lane; `chunk` divides `count` if smaller."""
    order = sys.byteorder
    lanes = min(count, chunk)
    n = lanes * width
    ones = int.from_bytes((1).to_bytes(width, order) * lanes, order)
    for j in range(0, count, lanes):
        i, o = (dst + j) * width, (src + j) * width
        a = int.from_bytes(view[i:i + n], order)
        b = int.from_bytes(view[o:o + n], order)
        view[i:i + n] = op(j, a, b, ones).to_bytes(n, order)


def _cut_table(g: Graph, st: _States) -> array:
    """Boundary degree of every state, in lanes of _lanes(m).

    Filled by doubling, one digit at a time from the lowest: with h the
    digit's stride and v its first member, the states holding c of its
    vertices (and any state k < h of the digits below) are those holding
    c - 1 plus one vertex v, so

        cut[c h + k] = cut[(c - 1) h + k] + deg(v) - 2 (nb[k] + t (c - 1))

    where nb[k] counts v's neighbours in state k and t = 1 for true twins
    (the c - 1 twins already placed are neighbours too).  Each fill is one
    lane-parallel add per chunk spanning the lowest digits: over a chunk,
    nb is a fixed pattern over those digits plus a constant from the digits
    above them.  No lane under- or overflows, since every result is a cut,
    at most m.
    """
    cut = array(_lanes(g.m), [0]) * st.size
    width, order = cut.itemsize, sys.byteorder
    chunk = _low_span(st, _CHUNK)
    view = memoryview(cut).cast("B")
    for h, members in st.digits:
        v = members[0]
        a = g.adj[v - 1]
        # v's neighbours by digit: 2 nb over the lowest min(h, chunk) states
        # as lanes, and the digits above those
        nbrs = [(s, len(other) + 1) for s, other in st.digits
                if s < h and a >> (other[0] - 1) & 1]
        lanes = min(h, chunk)
        nb2 = sum(int.from_bytes(b"".join((2 * c).to_bytes(width, order) * s for c in range(r))
                                 * (lanes // (s * r)), order) for s, r in nbrs if s < lanes)
        up = [(s, r) for s, r in nbrs if s >= lanes]
        t = a >> (members[-1] - 1) & 1  # true twins are adjacent; a class of one has c = 1
        for c in range(1, len(members) + 1):
            d = st.deg[v - 1] - 2 * t * (c - 1)
            _lanewise(view, width, chunk, c * h, (c - 1) * h, h, lambda j, _, b, ones: (
                b + (d - 2 * sum(j // s % r for s, r in up)) * ones - nb2))
    view.release()
    return cut


def _prefix_table(cut: array, st: _States) -> array:
    """X[T] = cut[T] + min over v in T of X[T - v], with X[0] = 0: the least
    sum of the cuts of an order of T, T itself included.

    States are filled in increasing order, in leaf blocks spanning the
    lowest digits (up to _LEAF states, or the lowest digit alone).  Inside
    a block a loop takes the minimum over the leaf digits nonzero in T.
    The digits above the leaf are folded in ahead: once the block ending
    at e is final, e's lowest nonzero digit, of stride s, has its range
    [e - s, e) final too, and its entries are min-ed into [e, e + s),
    which is the same range with one more vertex of that digit.  Every
    state receives one fold per digit above the leaf that it holds.

    X is an array of k-bit lanes from _lanes (its values are at most m n),
    and unfilled states hold the sentinel 2^(k-1) - 1.  A fold is one
    lane-parallel min per chunk, read as two ints a (the destination) and
    b (the source): with hi the top bit of every lane, (a | hi) - b keeps
    hi in exactly the lanes where a >= b, and no borrow crosses a lane
    since a, b < 2^(k-1); spread to full lanes, that mask picks b there
    and a elsewhere.
    """
    size = len(cut)
    code = _lanes(sum(st.deg) // 2 * len(st.deg))
    width = array(code).itemsize
    k, full = 8 * width, (1 << 8 * width) - 1
    x = array(code, [(1 << (k - 1)) - 1]) * size
    x[0] = 0

    def lane_min(j, a, b, ones):
        hi = ones << (k - 1)
        return a ^ ((a ^ b) & ((((a | hi) - b) & hi) >> (k - 1)) * full)

    leaf, chunk = _low_span(st, _LEAF), _low_span(st, _CHUNK)
    radix = [(h, len(members) + 1) for h, members in st.digits]
    lows = [tuple(lo - h for h, r in radix if h < leaf and lo // h % r) for lo in range(leaf)]
    upper = [(h, r) for h, r in radix if h >= leaf]
    view = memoryview(x).cast("B")
    for base in range(0, size, leaf):
        blk = x[base:base + leaf].tolist()
        for lo, offs, c in zip(range(leaf), lows, cut[base:base + leaf]):
            best = blk[lo]
            for j in offs:
                v = blk[j]
                if v < best:
                    best = v
            blk[lo] = c + best
        x[base:base + leaf] = array(code, blk)
        e = base + leaf
        if e < size:
            s = next(h for h, r in upper if e // h % r)
            _lanewise(view, width, chunk, e, e - s, s, lane_min)
    view.release()
    return x


def _combine(objective: str, step: int, rest) -> int:
    return step + rest if objective == "beta" else max(step, rest)


def _infeasible_anchor(w: int) -> ValidationError:
    return ValidationError(f"anchor {w} infeasible: no second vertex of degree >= deg({w})")


def _anchor_feasible(deg: tuple, w: int) -> bool:
    return any(v != w and d >= deg[w - 1] for v, d in enumerate(deg, start=1))


def _check_anchor(g: Graph, deg: tuple, anchor: Optional[int]) -> None:
    if anchor is not None:
        g._check_vertex(anchor)
        if not _anchor_feasible(deg, anchor):
            raise _infeasible_anchor(anchor)


def _dp_tables(g: Graph, anchor: Optional[int]) -> tuple:
    """Checks of the beta solvers, then the state layout and the cut and
    prefix tables."""
    st = _states(g, _twin_classes(g))
    _check_solvable(g, st.size, "states")
    _check_anchor(g, st.deg, anchor)
    cut = _cut_table(g, st)
    return st, cut, _prefix_table(cut, st)


def _greedy_completion(g: Graph, st: _States, cut: array, x: array, prefix: list,
                       budget: int) -> list:
    """Lexicographically least completion of `prefix` whose beta stays
    within `budget`: append the smallest unplaced vertex v with
    spent + X[V - (S + v)] <= budget, where spent is the sum of the cuts so
    far; after a one-vertex prefix w, v must also have deg(v) >= deg(w)."""
    full = st.size - 1
    order = list(prefix)
    t = spent = placed = 0
    for v in prefix:
        t += st.stride[v - 1]
        spent += cut[t]
        placed |= 1 << (v - 1)
    min_deg = st.deg[prefix[0] - 1] if len(prefix) == 1 else 0
    while placed != g.full_mask:
        for v in vertices_of(g.full_mask ^ placed):
            u = t + st.stride[v - 1]
            # x[full - u] = cut[u] + the least sum of the cuts after u
            if st.deg[v - 1] >= min_deg and spent + x[full - u] <= budget:
                break
        else:
            raise VerificationError(f"prefix table is inconsistent at {order}, budget {budget}")
        order.append(v)
        placed |= 1 << (v - 1)
        t, spent, min_deg = u, spent + cut[u], 0
    return order


def _anchored_start(st: _States, cut: array, x: array, w: int) -> int:
    """Beta of an arrangement anchored at w, a feasible anchor."""
    dw, sw = st.deg[w - 1], st.stride[w - 1]
    # x[size - 1 - sw - sv] = cut[w + v] + the least sum of the cuts after {w, v}
    return cut[sw] + min(x[st.size - 1 - sw - sv]
                         for v, (d, sv) in enumerate(zip(st.deg, st.stride), start=1)
                         if v != w and d >= dw)


def _cut_search(g: Graph, anchor: Optional[int] = None, linear: bool = False) -> tuple:
    """(value, order, sets stored) of an alpha arrangement, free or anchored
    at `anchor`, or of a linear tree (`linear`): the least bound within
    which an order keeps all its prefix cuts (for a linear tree, at least
    the maximum degree), and the lexicographically least such order.
    Anchored or linear, a one-vertex prefix w is followed by a vertex of
    degree >= deg(w)."""
    _check_solvable(g, 0, "sets")
    deg = tuple(a.bit_count() for a in g.adj)
    _check_anchor(g, deg, anchor)
    limit = dp_limit() - 5
    cap = 1 << min(limit, 64) if limit >= 0 else 0
    if not cap:
        raise _too_much(g.n, 1, "sets", limit)
    before = {}  # vertex -> the bit of the twin placed just before it
    for c in _twin_classes(g):
        c = [v for v in c if v != anchor]
        before.update((v, 1 << (u - 1)) for u, v in zip(c, c[1:]))
    # one row per vertex: its bit; its bit and the twin's, of which a set
    # may hold only the twin's; its neighbours; its degree
    rows = [(1 << (v - 1), (1 << (v - 1)) | before.get(v, 0), before.get(v, 0), a, d)
            for v, a, d in zip(g.vertices, g.adj, deg)]
    ruled = linear or anchor is not None

    def low(s):  # the least degree of a vertex that may follow s
        return deg[s.bit_length() - 1] if ruled and s and not s & (s - 1) else 0

    full, unset = g.full_mask, g.m + 1  # above every cut
    if anchor is None:
        start, k = 0, (max(deg) + 1) // 2
    else:
        start, k = 1 << (anchor - 1), deg[anchor - 1]
    seen = {start: 0 if anchor is None else k}  # admitted set -> its cut
    # admitted sets to scan for successors of cut <= k; and, by cut, the
    # scanned sets whose least successor above k has that cut (no set above
    # k is admitted yet)
    todo, waiting = [start], {}
    while full not in seen:
        if not todo:
            k = min(waiting)
            todo = waiting.pop(k)
        s = todo.pop()
        c, lo = seen[s], low(s)
        above = unset
        for b, bt, t, a, d in rows:
            if s & bt != t or d < lo:
                continue
            cu = c + d - 2 * (a & s).bit_count()
            if cu > k:
                if cu < above:
                    above = cu
            elif s | b not in seen:
                if len(seen) == cap:
                    raise _too_much(g.n, cap + 1, "sets", limit)
                seen[s | b] = cu
                todo.append(s | b)
        if above != unset:
            waiting.setdefault(above, []).append(s)
    value = max(k, max(deg)) if linear else k
    # depth first at the value, smallest vertex first: a set none of whose
    # successors within the value leads to V is dead.  The search above
    # reached V from start under the same rules, so start never dies.
    dead = set()
    stack = [(start, seen[start], iter(rows))]  # set, its cut, rows left to try
    while stack[-1][0] != full:
        s, c, left = stack[-1]
        lo = low(s)
        for b, bt, t, a, d in left:
            if s & bt == t and d >= lo and s | b not in dead:
                cu = c + d - 2 * (a & s).bit_count()
                if cu <= value:
                    stack.append((s | b, cu, iter(rows)))
                    break
        else:
            if len(seen) + len(dead) == cap:
                raise _too_much(g.n, cap + 1, "sets", limit)
            dead.add(s)
            stack.pop()
    order = [] if anchor is None else [anchor]
    order += [(u ^ s).bit_length() for (s, _, _), (u, _, _) in zip(stack, stack[1:])]
    return value, order, len(seen) + len(dead)


def exact_arrangement(g: Graph, objective: str, anchor: Optional[int] = None) -> SolveResult:
    """Optimal arrangement, free or anchored at a vertex: by the cut-bounded
    search for alpha, by the prefix DP for beta."""
    t0 = time.perf_counter()
    _check_objective(objective)
    if objective == "alpha":
        value, order, states = _cut_search(g, anchor)
    else:
        st, cut, x = _dp_tables(g, anchor)
        value = x[-1] if anchor is None else _anchored_start(st, cut, x, anchor)
        prefix = [] if anchor is None else [anchor]
        order, states = _greedy_completion(g, st, cut, x, prefix, value), len(x)
    millis = int((time.perf_counter() - t0) * 1000)
    return SolveResult(objective, "arrangement", int(value), Arrangement(tuple(order)),
                       anchor=anchor, stats={"states": states, "millis": millis})


def exact_linear_reassembling(g: Graph, objective: str,
                              anchor: Optional[int] = None) -> SolveResult:
    """Optimal linear reassembling via anchored arrangements."""
    t0 = time.perf_counter()
    _check_objective(objective)
    if objective == "alpha":
        value, order, states = _cut_search(g, anchor, linear=True)
        # a single vertex has no feasible anchor: its one-leaf tree costs 0
        w = order[0] if g.n > 1 else None
    else:
        st, cut, x = _dp_tables(g, anchor)
        states, best = len(x), None  # (tree value, w, budget)
        for w in [anchor] if anchor is not None else [
                w for w in g.vertices if _anchor_feasible(st.deg, w)]:
            budget = _anchored_start(st, cut, x, w)
            value = budget + 2 * g.m - st.deg[w - 1]
            if best is None or (value, w) < best[:2]:
                best = (value, w, budget)
        value, w, budget = best if best is not None else (0, None, 0)
        order = _greedy_completion(g, st, cut, x, [] if w is None else [w], budget)
    tree = induce_reassembling(g, Arrangement(tuple(order)))
    millis = int((time.perf_counter() - t0) * 1000)
    return SolveResult(objective, "linear_reassembling", int(value), tree,
                       anchor=w, stats={"states": states, "millis": millis})


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
    # _splits yields 2^(k-1) - 1 pairs for each of the C(n, k) sets S of
    # size k >= 2: (3^n + 1) / 2 - 2^n in all
    _check_solvable(g, (3 ** g.n + 1) // 2 - (1 << g.n), "splits")
    st = _states(g, ())
    t0 = time.perf_counter()
    cut = _cut_table(g, st)
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
    tree = ReassemblyTree(masks)
    millis = int((time.perf_counter() - t0) * 1000)
    return SolveResult(objective, "binary_reassembling", best[g.full_mask], tree,
                       stats={"states": len(best), "millis": millis})


# ---------------------------------------------------------------------------
# brute force reference

def brute_force_arrangement(g: Graph, objective: str,
                            anchor: Optional[int] = None) -> SolveResult:
    """Factorial scan over all arrangements (reference implementation)."""
    _check_objective(objective)
    _check_solvable(g, math.factorial(g.n if anchor is None else g.n - 1), "orders")
    t0 = time.perf_counter()
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    if anchor is not None:
        g._check_vertex(anchor)
    head = () if anchor is None else (anchor,)
    best = None
    count = 0
    for perm in itertools.permutations([v for v in g.vertices if v != anchor]):
        order = head + perm
        if anchor is not None:
            if len(order) < 2 or deg[order[1] - 1] < deg[anchor - 1]:
                continue
        count += 1
        prefix = 0
        cur = 0
        value = 0
        for v in order:
            cur += deg[v - 1] - 2 * (adj[v - 1] & prefix).bit_count()
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
