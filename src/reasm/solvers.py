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

An anchored solve (w first) reads the tables only at V - t for placed sets
t that hold w.  These are sets without w, and their entries depend only on
other sets without w, so its layout leaves w out: w has no digit and
stride 0, its class keeps its other members (a class of two leaves a
vertex without a twin), and the states are the sets of V - w, 2^(n-1) of
them for a twin-free graph.  The largest index is then V - w and a set t
holding w has the index of t - w, so the largest index minus t's is still
V - t.  Every cut is read at a complement, cut[V - t] = cut[t].

The prefix table is filled in groups of blocks over the lowest digits,
the leaf.  Each block is one call of a straight-line kernel generated for
the leaf's radices and the number of earlier blocks it carries: exec
compiles it on first use, and an lru_cache keeps the code (never a table)
for the rest of the process.  In a table of _GROUPED states or more, a
group is the leaf and up to two radix-2 digits right above it; a block
holding such a digit takes the result of the block one vertex below it as
a carry and compares it lane by lane.  A group pulls the digits above
it: its kernels start from the lane-parallel min of the final rows one
vertex below it in each such digit it holds.  A kernel spans at most
_LEAF states, whatever its group spans, which bounds its source, its
compile time and the memory its compile leaves behind; a lowest digit
larger than that (K_n is one digit of radix n + 1) is cut into blocks of
about sqrt(size / 4) states, pulled like the digits above.  Both tables
are anonymous mappings from _MAPPED bytes up, returned to the system when
the solve drops them.

One routine, _forked, runs independent items in several processes, for
the prefix fill and for reduction's reduce_beta, whose items are its
anchors.  From _GROUPED states of work up it runs them in this process and
a forked worker per further usable CPU, each pinned to a CPU of its own,
so a _forked call inside any of them runs serially.  The fill's items are
cells, runs of whole groups, one per value of the top digits (at least
two, whose radices multiply to at most _CELLS).  A cell reads only its
own states and the cells one vertex below it in one of those digits, so
the cells of one level, the sum of the top digits, are independent.  The
workers write straight into the mapping of X, which is shared, and the
kernels are compiled before the fork.  X on the heap, or fewer than two
digits above the groups (K_n, stars), leaves a single cell.

Alpha is the cutwidth, which for a fixed bound k is polynomial (Thilikos,
Serna and Bodlaender, "Cutwidth I", J. Algorithms 2005): a prefix set with
cut <= k is a union of components of G - C, where C is its cut, so few
sets qualify.  The cut-bounded search grows prefix sets one vertex at a
time, cut(S + v) = cut(S) + deg(v) - 2 |N(v) & S|, and keeps a set while
its cut stays <= k.  Twins are placed in id order, class by class as the
digits of the same layout list them (anchored, without the anchor), so
its sets are the count vectors above written as vertex masks.  A set
whose successors are not all within k waits in a bucket keyed by the
least of their cuts above k; when nothing within k is left and V is not
reached, k rises to the smallest waiting cut and the sets of that bucket
are scanned again.  The search stores only the sets it admits, each is
scanned once per bound at which it gains successors, and the k at which V
is admitted is the optimum.

Witnesses of the arrangement engines are the lexicographically least
orders within the optimum, and after a one-vertex prefix (an anchor w)
the next vertex must be one of _followers(deg, w), the v != w with
deg(v) >= deg(w).  The anchor check, beta's starts and the brute force
scan read that list; the alpha search tests the degree inline, in its hot
scan, and beta's greedy in its first step.  Beta's greedy completion
appends the smallest unplaced v with spent + X[V - (S + v)] <= budget,
with spent the sum of the cuts so far.  Alpha walks depth first from the
start set at the optimum, trying vertices in increasing order: it steps
to a successor whose cut is within the bound and that is not known to be
dead, and marks a set none of whose successors leads to V as dead, in the
search's one table of stored sets.  The first order to reach V is the
least one.

Binary reassemblings use a second subset DP, over splits of plain bitmask
vertex sets (the quotient does not apply to it), where (+) is the sum for
beta and the maximum for alpha, picked once per solve for both the fill
and the witness: the best tree on S costs best[S] = cut[S] (+) min over
splits {S - A, A} of best[S - A] (+) best[A].  Linear trees are the ones
whose splits peel off one vertex.  Its witness works top down from V and
splits a cluster S at the first A (largest subset of S minus its lowest
vertex first) with cut[S] (+) best[S - A] (+) best[A] <= budget.

Linear reassemblings are solved through arrangements: a linear tree whose
first cluster is {w, w'} with deg(w) <= deg(w') corresponds to an
arrangement anchored at w (w first, second vertex of no smaller degree), and

    beta(G, L) = beta(G, phi) + sum of deg(v) over v != w
    alpha(G, L) = max(max degree, alpha(G, phi))

so minimizing over feasible anchors is exact.  Each objective solves the
free, anchored and linear problems in one call, (g, anchor, linear) ->
(value, order, states).  The beta call, _prefix_search, fills both tables,
over V - w when anchored at w, and starts from X[V] when free; otherwise
from the least (value, w), over the anchor or, for a free linear tree,
over every feasible w, with

    value = cut[V - w] + min over v != w, deg(v) >= deg(w) of X[V - {w, v}]

plus 2m - deg(w) for a linear tree.  Its greedy completion then runs from
the empty prefix or from w, within the beta of that arrangement.  For
alpha, swapping the first two vertices of an order changes only its first
cut, so the least value over all anchors is max(max degree, cutwidth):
one search from the empty set settles it, and the anchor is the first
vertex of the walk's order.

Brute force is only the factorial scan of arrangements, kept as an
independent reference for small instances.

Every engine counts what it will enumerate -- states of the prefix table,
splits (S, A) of the binary DP, or orders of the brute force scan -- and
refuses more than 2^REASM_DP_LIMIT of them before any table or loop starts,
once it has found the graph connected and the anchor, if any, feasible:
one check, _check_solvable, does all three in that order.  The alpha
search cannot count its sets ahead.  It charges 2^5 states for each
distinct set in its table, admitted or dead (a dict entry is about 2^5
times the bytes of a DP state), through the same check: once for the
start set before it starts, then each time the table reaches a power
of two, so the first set past the limit is the one refused.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
import operator
import os
import struct
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .errors import LimitError, ValidationError, VerificationError
from .graph import Graph
from .layout import Arrangement, format_witness, induce_reassembling
from .tree import ReassemblyTree

DEFAULT_DP_LIMIT = 24

# caps on the states spanned by the lowest digits: the prefix table's leaf
# block, and the chunk of the cut table's lane-parallel fills, which bounds
# their temporary ints
_LEAF = 1 << 6
_CHUNK = 1 << 13
# the fewest states of work that run grouped leaf blocks or forked
# workers, and the fewest bytes of a table kept off the heap
_GROUPED = 1 << 18
_MAPPED = 1 << 17
# the most cells of a parallel prefix fill: the top digits above its tile
# whose radices multiply to at most this
_CELLS = 1 << 6


def _lanes(bound: int) -> str:
    """The smallest unsigned array code whose lanes hold every value up to
    `bound` and a larger sentinel, all with the top bit clear."""
    return next(code for code in "BHIQ"
                if bound < (1 << (8 * array(code).itemsize - 1)) - 1)


def _cpus() -> int:
    """The CPUs this process may use: its affinity mask, which taskset,
    cpusets and _forked's pinning narrow, or 1 where there is none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
    """An optimum and its witness.  stats["states"] is the work the engine
    counted and stats["millis"] the time from the solver's entry, its
    checks included."""

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


def _solver(mode: str):
    """Make `solve`, (g, objective, ...) -> (value, witness, anchor, states),
    a public solver of `mode`: it checks the objective, then runs `solve`
    and returns its SolveResult, whose stats["millis"] counts from the
    entry."""
    def wrap(solve):
        @functools.wraps(solve)
        def solver(g: Graph, objective: str, *args, **kwargs) -> SolveResult:
            t0 = time.perf_counter()
            if objective not in ("alpha", "beta"):
                raise ValidationError(f"objective must be 'alpha' or 'beta', got {objective!r}")
            value, witness, anchor, states = solve(g, objective, *args, **kwargs)
            millis = int((time.perf_counter() - t0) * 1000)
            return SolveResult(objective, mode, int(value), witness, anchor,
                               {"states": states, "millis": millis})
        return solver
    return wrap


def _check_work(n: int, count: int, unit: str) -> None:
    """At most 2^dp_limit() units of work (states, splits or orders) for an
    instance on n vertices.  The other engines check before they start; the
    alpha search checks each time its table reaches a power of two."""
    limit = dp_limit()
    if count and (count - 1).bit_length() > limit:  # count > 2^limit, for any int limit
        # rounded up, so a refused count never reads as the limit itself
        power = math.ceil(10 * math.log2(count)) / 10
        raise LimitError(f"instance has {n} vertices and 2^{power:.1f} "
                         f"{unit}, limit is 2^{limit}")


def _check_solvable(g: Graph, count: int, unit: str, anchor: Optional[int] = None) -> None:
    """A connected graph, a feasible anchor if any, and at most
    2^dp_limit() units for the solver to enumerate, checked in that order."""
    if not g.is_connected():
        raise ValidationError("optimizers need a connected graph")
    if anchor is not None:
        g._check_vertex(anchor)
        if not _followers([a.bit_count() for a in g.adj], anchor):
            raise ValidationError(
                f"anchor {anchor} infeasible: no second vertex of degree >= deg({anchor})")
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
    with no vertex skipped keeps the plain bitmask layout), then each class
    of `classes`.  Placing vertex v adds stride[v - 1]; the state holding
    every vertex is size - 1, and the complement of state t is
    size - 1 - t.  A skipped vertex (an anchor) has no digit and stride 0,
    so the states are the sets without it, and size - 1 is V minus it.
    deg[v - 1] is the degree of v in the whole graph, read by the anchor
    and witness loops.
    """

    stride: tuple
    deg: tuple
    digits: tuple
    size: int


def _states(g: Graph, classes, skip: Optional[int] = None) -> _States:
    """The layout of g's states over the twin classes `classes`, with no
    digit for `skip`: its class keeps the other members if two or more
    remain, and a lone remaining member is a vertex without a twin."""
    classes = [c for c in (tuple(v for v in c if v != skip) for c in classes) if len(c) > 1]
    grouped = {v for c in classes for v in c} | {skip}
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
    tops = [h * (len(members) + 1) for h, members in st.digits] or [st.size]
    return max([t for t in tops if t <= cap], default=tops[0])


@functools.lru_cache(maxsize=64)
def _ones(width: int, lanes: int) -> int:
    """An int with a 1 in each of `lanes` lanes of `width` bytes."""
    return int.from_bytes((1).to_bytes(width, sys.byteorder) * lanes, sys.byteorder)


def _table(code: str, size: int, fill: int) -> memoryview:
    """`size` lanes of the array code `code`, each holding `fill`, as a
    memoryview cast to that code.

    A table of at least _MAPPED bytes is an anonymous mapping, returned to
    the system as soon as its last view is gone.  It is MAP_SHARED, so
    processes forked while it exists write into the same pages, as the
    parallel prefix fill needs.  On the heap, a freed table
    of that size can stay resident, and the tables of consecutive solves
    pile up there.  The mapping starts zeroed and is filled by doubling, so
    no temporary as large as the table is made.  A smaller table is an
    array: making and filling a mapping of a few hundred to a few thousand
    lanes took 20-35 us against about 1 us for the array, a large share of
    a small table's whole fill."""
    width = struct.calcsize(code)
    if size * width < _MAPPED:
        return memoryview(array(code, [fill]) * size)
    raw = memoryview(mmap.mmap(-1, size * width, flags=mmap.MAP_SHARED))
    if fill:
        raw[:width] = fill.to_bytes(width, sys.byteorder)
        done = width
        while done < len(raw):
            raw[done:2 * done] = raw[:min(done, len(raw) - done)]
            done *= 2
    return raw.cast(code)


def _cut_table(g: Graph, st: _States) -> memoryview:
    """Boundary degree of every state, a _table in lanes of _lanes(m).

    Filled by doubling, one digit at a time from the lowest: with h the
    digit's stride and v its first member, the states holding c of its
    vertices (and any state k < h of the digits below) are those holding
    c - 1 plus one vertex v, so

        cut[c h + k] = cut[(c - 1) h + k] + deg(v) - 2 (nb[k] + t (c - 1))

    where nb[k] counts v's neighbours in state k and t = 1 for true twins
    (the c - 1 twins already placed are neighbours too).  A fill runs over
    its h states in chunks of min(h, chunk) lanes, chunk being the states
    spanned by the lowest digits whose radices multiply to at most _CHUNK
    (a chunk below h divides it: both are products of the lowest radices),
    one lane-parallel add per chunk.  Over the chunk from state j, nb is a
    fixed pattern over its lanes plus a constant, v's neighbours counted
    in the digits of j above the chunk.  The add reads only the source
    lanes, h states below, as one int.  No lane under- or overflows, since
    every result is a cut, at most m.
    """
    cut = _table(_lanes(g.m), st.size, 0)
    width, order = cut.itemsize, sys.byteorder
    chunk = _low_span(st, _CHUNK)
    view = cut.cast("B")
    for h, members in st.digits:
        v = members[0]
        a = g.adj[v - 1]
        # v's neighbours by digit: 2 nb over the lowest min(h, chunk) states
        # as lanes, and the digits above those
        nbrs = [(s, len(other) + 1) for s, other in st.digits
                if s < h and a >> (other[0] - 1) & 1]
        lanes = min(h, chunk)
        n = lanes * width
        ones = _ones(width, lanes)
        nb2 = sum(int.from_bytes(b"".join((2 * c).to_bytes(width, order) * s for c in range(r))
                                 * (lanes // (s * r)), order) for s, r in nbrs if s < lanes)
        up = [(s, r) for s, r in nbrs if s >= lanes]
        t = a >> (members[-1] - 1) & 1  # true twins are adjacent; a class of one has c = 1
        for c in range(1, len(members) + 1):
            d = st.deg[v - 1] - 2 * t * (c - 1)
            for j in range(0, h, lanes):
                i, o = (c * h + j) * width, ((c - 1) * h + j) * width
                b = int.from_bytes(view[o:o + n], order)
                b += (d - 2 * sum(j // s % r for s, r in up)) * ones - nb2
                view[i:i + n] = b.to_bytes(n, order)
    view.release()
    return cut


@functools.lru_cache(maxsize=None)
def _leaf_kernel(radices: tuple, carries: int):
    """The straight-line kernel of a leaf block whose digits have these
    radices, lowest first, taking `carries` earlier blocks' results.

    kernel(m, c, done) takes the block's lanes of X (the minima pulled
    from the digits above, or the sentinel) and of cut, and the results of
    the blocks of its group run before it, and returns the block's X: in
    state order, x_lo = c_lo + min(m_lo, y_lo for each carry y, x_j for each
    j in lows[lo]), where lows[lo] are the states of the block one vertex
    below lo.  A group's block q carries blocks q - 1 and q - 2 where q
    holds those digits: with one carry q is 1 or 2 and its carry is
    done[0]; the one block with two, q = 3, carries done[2] and done[1].
    Each key is compiled once per process; its source holds only indices
    taken from the radices, and since every layout spans at most _LEAF
    states and takes at most two carries, the cache holds few of them.
    """
    strides = [math.prod(radices[:i]) for i in range(len(radices))]
    span = math.prod(radices)
    # locals m0, m1, ... unpacked from m, c0, ... from c, and y0, ... and
    # z0, ... from the carried blocks
    carried = dict(zip("yz", [(), ("done[0]",), ("done[2]", "done[1]")][carries]))
    lines = ["def kernel(m, c, done):"]
    lines += ["    " + "".join(f"{name}{lo}, " for lo in range(span)) + f"= {value}"
              for name, value in ({"m": "m", "c": "c"} | carried).items()]
    for lo in range(span):
        lines.append(f"    t = m{lo}")
        lines += [f"    if {y}{lo} < t: t = {y}{lo}" for y in carried]
        lines += [f"    if x{lo - h} < t: t = x{lo - h}"
                  for h, r in zip(strides, radices) if lo // h % r]
        lines.append(f"    x{lo} = c{lo} + t")
    lines.append("    return " + "".join(f"x{lo}, " for lo in range(span)))
    namespace = {}
    # a code object, not a string: CPython takes a KeyboardInterrupt raised
    # inside exec of a string as unhandled, and ends by SIGINT, not exit 130
    exec(compile("\n".join(lines), "<string>", "exec"), namespace)
    return namespace["kernel"]


def _prefix_table(cut: memoryview, st: _States) -> memoryview:
    """X[T] = cut[T] + min over v in T of X[T - v], with X[0] = 0: the least
    sum of the cuts of an order of T, T itself included.

    States are filled in increasing order, in groups of leaf blocks.  The
    leaf digits are the lowest ones whose radices multiply to at most
    _LEAF, and each block over them is one _leaf_kernel call.  A group is
    the leaf and the radix-2 digits right above it, at most two (strides 64
    and 128 on a twin-free graph): its blocks q = 0, 1, 2, 3 run in order,
    and block q takes as carries the results of blocks q - 1 and q - 2
    where q holds those digits, so those digits are compared inside the
    kernels, never pulled.  A group reads its lanes of cut with one
    struct.unpack_from, and each block writes its X with one pack_into.
    Grouping compiles two more kernels, about 6 ms in a fresh process, and
    saves about 30 ns a state (15-50 ns on twin-free tables of 2^12 to
    2^18 states), so a one-shot solve earns them back from about _GROUPED
    states: a smaller table, or a layout with no radix-2 digit right above
    the leaf, runs groups of one block through the same loop.

    No kernel spans more than _LEAF states, whatever its group spans.  A
    compile needs memory in proportion to the kernel's source, and much of
    it stays resident for the process: a 256-state kernel over a whole
    group ran faster, but its compile alone left about 4 MB, against 0.5
    MB for the two 64-state kernels with carries.  If the lowest digit
    alone is larger than _LEAF (K_n is one digit of radix n + 1), its range
    is cut into groups of one block of span states, the first one short,
    run by the kernel of one digit of radix span: a short block keeps the
    first lanes of its result.  Per state, compiling a kernel costs about
    four times what running a block (a call and a pull) does, so compile
    and blocks together, about 4 span + size / span block runs, are least
    near span = sqrt(size / 4), capped at _LEAF.

    Every digit above a group is pulled: for each such digit, of stride h,
    that its first state i holds, the L lanes of X from i - h (L being the
    lanes a group reads) hold its states less one vertex of that digit, all
    final, and their lane-wise min is the kernels' m (the first group reads
    its own lanes).  A lowest digit cut into blocks pulls alike: the L lanes
    from i - 1 hold the final X one state below the block, then sentinels.

    X is a _table of k-bit lanes from _lanes (its values are at most m n),
    off the heap from _MAPPED bytes up like cut, and unfilled states hold
    the sentinel 2^(k-1) - 1.  The min of rows a and b: with hi the top
    bit of every lane, t = ((a | hi) - b) & hi has hi in exactly the lanes
    where a >= b (no borrow crosses a lane, as a, b < 2^(k-1)), and
    t - (t >> (k - 1)) fills the bits below it, picking b there.

    One routine, fill(start, stop), runs the groups of the states from
    start to stop, and _forked runs it on each cell, level by level.
    """
    size = len(cut)
    code = _lanes(sum(st.deg) // 2 * len(st.deg))
    width, order = struct.calcsize(code), sys.byteorder
    k = 8 * width
    x = _table(code, size, (1 << (k - 1)) - 1)
    x[0] = 0
    period = _low_span(st, _LEAF)
    radix = [(h, len(members) + 1) for h, members in st.digits]
    grouped = 0
    if period <= _LEAF:
        # the leaf digits, then up to two radix-2 digits in each group
        span = period
        leaf = tuple(r for h, r in radix if h * r <= span)
        upper = [(h, r) for h, r in radix if h * r > span]
        if size >= _GROUPED:
            grouped = len(list(itertools.takewhile(lambda d: d[1] == 2, upper[:2])))
            upper = upper[grouped:]
        tile = span << grouped
        groups = [(0, tile)]
    else:
        # one period of the lowest digit in groups of one block, the first
        # one short if span does not divide it
        span = min(_LEAF, math.isqrt(size // 4))
        leaf, upper, tile = (span,), radix, period
        groups = [(max(b - span, 0), b) for b in reversed(range(period, 0, -span))]
    # a group reads (and pulls) span << grouped lanes from its first state
    lanes = span << grouped
    hi = _ones(width, lanes) << (k - 1)
    read_m = struct.Struct(f"{lanes}{code}").unpack
    read_cut = struct.Struct(f"{lanes}{cut.format}").unpack_from
    # block q of a group: its first lane and its kernel, which carries the
    # blocks q - 1 and q - 2 where q holds those digits
    plan = [(q * span, _leaf_kernel(leaf, q.bit_count())) for q in range(1 << grouped)]
    # each group's blocks, each with the writer of its lanes inside the group
    groups = [(a, b, [(o, kernel, struct.Struct(f"{min(span, b - a - o)}{code}").pack_into)
                      for o, kernel in plan]) for a, b in groups]

    def fill(start, stop):
        for base in range(start, stop, tile):
            for a, b, blocks in groups:
                i, j = base + a, base + b
                # X one vertex below in each digit above the group that i holds, or i's own
                rows = ([int.from_bytes(x[i - h:i - h + lanes], order)
                         for h, r in upper if i // h % r]
                        or [int.from_bytes(x[i:i + lanes], order)])
                m = rows.pop()
                for row in rows:
                    t = ((m | hi) - row) & hi
                    m ^= (m ^ row) & (t - (t >> (k - 1)))
                m = read_m(m.to_bytes(lanes * width, order))
                c = read_cut(cut, i * cut.itemsize)
                done = []
                for o, kernel, write in blocks:
                    y = kernel(m[o:o + span], c[o:o + span], done)
                    write(x, (i + o) * width, *y[:j - i - o])
                    done.append(y)

    # the cells: one per value of the top digits above the tile whose radices
    # multiply to at most _CELLS, by level, the sum of those digits; X on
    # the heap, which forked workers would not share, is one cell
    above = [d for d in upper if d[0] >= tile and isinstance(x.obj, mmap.mmap)]
    top = [d for i, d in enumerate(above) if math.prod(r for _, r in above[i:]) <= _CELLS]
    cell = top[0][0] if top else size
    levels = [[] for _ in range(sum(r - 1 for _, r in top) + 1)]
    for c in range(0, size, cell):
        levels[sum(c // h % r for h, r in top)].append(c)
    _forked(lambda c: fill(c, c + cell), levels, size,
            f"prefix table fill (n = {len(st.deg)}, {size} states)")
    return x


def _forked(run, levels, work: int, what: str) -> dict:
    """{item: run(item)} for every item of `levels`, level by level; the
    items of a level may not read each other's results.

    From `work` of _GROUPED states up, with os.fork and no other thread,
    this process and a forked worker per further usable CPU, at most one
    per item of a level, run them, each pinned to a CPU of its own.  Rank
    p runs the items p, p + procs, ... of each level, this process those
    of the ranks it could not fork.  After each level every worker sends
    its results, pickled, or the exception it raised, which is raised
    here, and waits for a byte back.  Every worker ends with os._exit and
    is reaped before this returns or raises, also when SIGINT comes just
    before or during the clean-up; one that ended early raises
    VerificationError."""
    procs = min(_cpus(), max(map(len, levels))) if work >= _GROUPED else 1
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return {item: run(item) for level in levels for item in level}
    import pickle  # here, so that a serial run never loads it
    import signal
    results, ranks = {}, [0]
    workers = []  # (pid, reader of its results, write end of the bytes to it)
    # left to itself, the scheduler can keep a worker on its parent's CPU
    # for the whole run
    mask = sorted(os.sched_getaffinity(0))
    _pin({mask[0]})
    # SIGINT waits while workers are forked, until each is listed here and
    # inside its try there
    held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        for rank in range(1, procs):
            pipes = []
            try:
                pipes += os.pipe()
                pipes += os.pipe()
                up, tell, hear, down = pipes
                pid = os.fork()
            except OSError:
                for fd in pipes:
                    os.close(fd)
                ranks += range(rank, procs)
                break
            if pid == 0:
                status = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                    _pin({mask[rank % len(mask)]})
                    for fd in [up, down] + [fd for _, r, w in workers for fd in (r.fileno(), w)]:
                        os.close(fd)
                    with open(tell, "wb") as out:
                        for level in levels:
                            try:
                                sent = {item: run(item) for item in level[rank::procs]}
                            except BaseException as exc:
                                sent = exc
                            pickle.dump(sent, out)
                            out.flush()
                            if isinstance(sent, BaseException) or not os.read(hear, 1):
                                break
                        else:
                            status = 0
                finally:
                    os._exit(status)
            workers.append((pid, open(up, "rb"), down))
            os.close(tell)
            os.close(hear)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        for level in levels:
            for rank in ranks:
                results.update((item, run(item)) for item in level[rank::procs])
            try:
                sent = [pickle.load(reader) for _, reader, _ in workers]
            except (EOFError, pickle.UnpicklingError):  # a worker ended early
                break
            for part in sent:
                if isinstance(part, BaseException):
                    raise part
                results.update(part)
            try:
                for _, _, w in workers:
                    os.write(w, b"\0")
            except BrokenPipeError:  # a worker ended after it sent
                break
    finally:
        try:
            # SIGINT waits until every worker is reaped: the restore below
            # delivers it.  One that came in before the clean-up is raised
            # here, once it is blocked, as CPython runs a signal's handler
            # right after the mask changes
            signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        finally:
            # a worker still waiting reads its end closed and stops
            for _, reader, w in workers:
                reader.close()
                os.close(w)
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, *_ in workers]
            _pin(mask)
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
    if any(statuses):
        raise VerificationError(f"{what} failed: worker exit statuses {statuses}")
    return results


def _pin(cpus) -> None:
    """Run this process on `cpus` only, where the system lets it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _followers(deg, w: int) -> list:
    """The vertices v != w with deg(v) >= deg(w), ascending: those that may
    follow w as the second vertex of an order anchored at w."""
    return [v for v, d in enumerate(deg, start=1) if v != w and d >= deg[w - 1]]


def _prefix_search(g: Graph, anchor: Optional[int] = None, linear: bool = False) -> tuple:
    """(value, order, states) of a beta arrangement, free or anchored at
    `anchor`, or of a linear tree (`linear`): the optimum read off the
    prefix table, and the lexicographically least order within it.
    Anchored or linear, the first vertex w is followed by a vertex of
    degree >= deg(w).  Anchored, the tables leave the anchor out: they
    hold only the sets without it, the ones read, 2^(n-1) states for a
    twin-free graph.  Every cut is read at a complement, cut[V - t], which
    is cut[t] in either layout."""
    st = _states(g, _twin_classes(g), skip=anchor)
    _check_solvable(g, st.size, "states", anchor)
    cut = _cut_table(g, st)
    x = _prefix_table(cut, st)
    full = st.size - 1
    if anchor is None and not linear:
        value, w, budget = x[full], None, x[full]
    else:
        starts = []  # (value, w, budget): budget is the beta of the arrangement
        for w in g.vertices if anchor is None else [anchor]:
            sw = st.stride[w - 1]
            # x[full - sw - sv] = cut[w + v] + the least sum of the cuts after {w, v};
            # anchored, sw = 0 and full is V - w
            ends = [x[full - sw - st.stride[v - 1]] for v in _followers(st.deg, w)]
            if ends:
                budget = cut[full - sw] + min(ends)
                starts.append((budget + (2 * g.m - st.deg[w - 1] if linear else 0), w, budget))
        # a single vertex has no feasible anchor: its one-leaf tree costs 0
        value, w, budget = min(starts, default=(0, None, 0))
    # greedy: append the smallest unplaced v with spent + X[V - (S + v)] <= budget,
    # where spent is the sum of the cuts so far, each read at its complement;
    # after w, deg(v) >= deg(w)
    order = [] if w is None else [w]
    rest = [v for v in g.vertices if v != w]
    t, low = (0, 0) if w is None else (st.stride[w - 1], st.deg[w - 1])
    spent = cut[full - t]
    while rest:
        for v in rest:
            u = t + st.stride[v - 1]
            # x[full - u] = cut[u] + the least sum of the cuts after u
            if st.deg[v - 1] >= low and spent + x[full - u] <= budget:
                break
        else:
            raise VerificationError(
                f"prefix table is inconsistent at {order}, budget {budget} "
                f"(n = {g.n}, m = {g.m}, anchor {anchor}, linear {linear})")
        rest.remove(v)
        order.append(v)
        t, spent, low = u, spent + cut[full - u], 0
    return value, order, len(x)


def _cut_search(g: Graph, anchor: Optional[int] = None, linear: bool = False) -> tuple:
    """(value, order, sets stored) of an alpha arrangement, free or anchored
    at `anchor`, or of a linear tree (`linear`): the least bound within
    which an order keeps all its prefix cuts (for a linear tree, at least
    the maximum degree), and the lexicographically least such order.
    Anchored or linear, a one-vertex prefix w is followed by a vertex of
    degree >= deg(w)."""
    # a stored set is a dict entry, about 2^5 times the bytes of a DP state
    per_set = 5
    unit = f"states (2^{per_set} per set)"
    _check_solvable(g, 1 << per_set, unit, anchor)  # the start set
    st = _states(g, _twin_classes(g), skip=anchor)
    deg = st.deg
    before = {}  # vertex -> the bit of the twin placed just before it
    for _, c in st.digits:
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
    # every stored set -> its cut, or None once the witness walk finds it
    # dead
    seen = {start: 0 if anchor is None else k}

    def store(s, cut):
        # the work is checked before a new set enters a table whose size is
        # a power of two, so the first set past the limit is refused
        if s not in seen and not len(seen) & (len(seen) - 1):
            _check_work(g.n, (len(seen) + 1) << per_set, unit)
        seen[s] = cut

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
                store(s | b, cu)
                todo.append(s | b)
        if above != unset:
            waiting.setdefault(above, []).append(s)
    value = max(k, max(deg)) if linear else k
    # depth first at the value, smallest vertex first: a set none of whose
    # successors within the value leads to V is dead, and is marked so in
    # seen, stored like an admitted set if the search did not admit it.
    # The search above reached V from start under the same rules, so start
    # never dies.
    stack = [(start, seen[start], iter(rows))]  # set, its cut, rows left to try
    while stack[-1][0] != full:
        s, c, left = stack[-1]
        lo = low(s)
        for b, bt, t, a, d in left:
            if s & bt == t and d >= lo:
                cu = c + d - 2 * (a & s).bit_count()
                if cu <= value and seen.get(s | b, 0) is not None:
                    stack.append((s | b, cu, iter(rows)))
                    break
        else:
            store(s, None)
            stack.pop()
    order = [] if anchor is None else [anchor]
    order += [(u ^ s).bit_length() for (s, _, _), (u, _, _) in zip(stack, stack[1:])]
    return value, order, len(seen)


def _engine(objective: str):
    """The arrangement engine of an objective: the cut-bounded search for
    alpha, the prefix DP for beta."""
    return _cut_search if objective == "alpha" else _prefix_search


@_solver("arrangement")
def exact_arrangement(g: Graph, objective: str, anchor: Optional[int] = None):
    """Optimal arrangement, free or anchored at a vertex."""
    value, order, states = _engine(objective)(g, anchor)
    return value, Arrangement(tuple(order)), anchor, states


@_solver("linear_reassembling")
def exact_linear_reassembling(g: Graph, objective: str, anchor: Optional[int] = None):
    """Optimal linear reassembling via anchored arrangements."""
    value, order, states = _engine(objective)(g, anchor, linear=True)
    # a single vertex has no feasible anchor: its one-leaf tree costs 0
    w = order[0] if g.n > 1 else None
    tree = induce_reassembling(g, Arrangement(tuple(order)))
    return value, tree, w, states


def _splits(s: int):
    """Non-empty subsets of s without its lowest vertex, largest first."""
    rest = s & (s - 1)
    a = rest
    while a:
        yield a
        a = (a - 1) & rest


@_solver("binary_reassembling")
def exact_binary_reassembling(g: Graph, objective: str):
    """Optimal binary reassembling by subset DP over splits."""
    # _splits yields 2^(k-1) - 1 pairs for each of the C(n, k) sets S of
    # size k >= 2: (3^n + 1) / 2 - 2^n in all
    _check_solvable(g, (3 ** g.n + 1) // 2 - (1 << g.n), "splits")
    st = _states(g, ())
    fold = operator.add if objective == "beta" else max
    cut = _cut_table(g, st)
    best = list(cut)
    for s in range(3, len(best)):
        if s & (s - 1):
            best[s] = fold(cut[s], min(fold(best[s ^ a], best[a]) for a in _splits(s)))
    # top down: the first split that fits the budget; a beta child must be
    # optimal, an alpha child only has to stay within the parent's budget
    masks = []
    stack = [(g.full_mask, best[g.full_mask])]
    while stack:
        s, budget = stack.pop()
        masks.append(s)
        for a in _splits(s):
            if fold(cut[s], fold(best[s ^ a], best[a])) <= budget:
                for child in (s ^ a, a):
                    stack.append((child, best[child] if objective == "beta" else budget))
                break
    return best[g.full_mask], ReassemblyTree(masks), None, len(best)


# ---------------------------------------------------------------------------
# brute force reference

@_solver("arrangement")
def brute_force_arrangement(g: Graph, objective: str, anchor: Optional[int] = None):
    """Factorial scan over all arrangements (reference implementation)."""
    _check_solvable(g, math.factorial(g.n if anchor is None else g.n - 1), "orders", anchor)
    deg = [a.bit_count() for a in g.adj]
    # anchored, the orders (anchor, v) + rest for each follower v: the
    # feasible orders, still in lexicographic order
    heads = [()] if anchor is None else [(anchor, v) for v in _followers(deg, anchor)]
    orders = (head + rest for head in heads
              for rest in itertools.permutations([u for u in g.vertices if u not in head]))
    fold = sum if objective == "beta" else max
    best = None
    for count, order in enumerate(orders, start=1):
        value = fold(g._prefix_cuts(order))
        if best is None or value < best[0]:
            best = (value, order)
    return best[0], Arrangement(best[1]), anchor, count
