"""Reductions between beta-optimal linear reassembling and beta-optimal
linear arrangement, and the degree-3 pipeline for alpha.

The beta reduction glues a clique onto a chosen anchor w: the auxiliary
graph G_w adds p = sum of all degrees of G fresh vertices U, joined to w and
to each other so that U + {w} induces a complete graph on p + 1 vertices.
An order of V(G_w) is scored by the closed form below, which counts
base-graph and clique edges apart.  Two normalization moves --
descattering (pull a base vertex out of the clique block) and rebalancing
(put all of V - {w} on one side of w) -- never increase beta, which forces
every beta-optimal order of G_w into the shape  U ... U  w  V-{w},  and in
that shape the restriction to V is an optimal anchored solution of the
original problem.  Minimizing over all anchors gives the exact optimum.
_normal_step makes one move: _descatter on a scattered order, else
_rebalance on an unbalanced one.  One guarded walk, _normalize, is the
only normalization loop: it makes the moves to a fixpoint and raises past
4 |order| + beta moves.  normalize_sequence runs it alone; _normal_forms,
which finds the normal form of every order of G_w, runs it only from the
unscattered ones.

An order's beta has a closed form.  Let q_1 < ... < q_n be the positions of
the base vertices pi_1 ... pi_n and k_1 < ... < k_{p+1} those of U + {w},
with q_{n+1} = k_{p+2} = n + p + 1.  Then

    beta = sum_j cut_G(pi_1..pi_j) (q_{j+1} - q_j) + sum_c c (p+1-c) (k_{c+1} - k_c).

A descattering move therefore changes beta by an amount that only the moved
vertex v, the clique run of t vertices it crosses and the set L of base
vertices on the run's far side from v decide.  With
g(x, S) = deg(x) - 2 |N(x) & S|, the clique term falls by t (p+1-t) and the
base term rises by t g(v, L) if w is not in the run, or else, with w at
offset o from the run's end nearest L, by
o g(v, L) + g(v, L) - g(w, L) + (t-1-o) g(v, L + {w}).

For alpha on graphs of maximum degree <= 3 the pipeline branches on whether
every degree-3 vertex is a cut vertex.  Where that holds, the cut-bounded
search solves the arrangement problem directly; otherwise the alpha-optimal
linear reassembling, found by the same search, induces an alpha-optimal
arrangement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import NamedTuple, Optional

from .errors import ValidationError, VerificationError
from .graph import Graph
from .layout import (Arrangement, evaluate_arrangement, format_witness,
                     induce_arrangement, induce_reassembling)
from .solvers import (_check_work, _cpus, _pooled, _states, _twin_classes,
                      exact_arrangement, exact_linear_reassembling)
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


class VCSequence(NamedTuple):
    """An order of V(G_w) scored by the closed form of the module
    docstring: `beta` is the sum of the cuts of all its prefixes in G_w,
    and `k_pos` holds the 1-based positions of the clique side U + {w},
    ascending."""

    aux: AuxiliaryGraph
    order: tuple
    beta: int
    k_pos: tuple


def vc_sequence(aux: AuxiliaryGraph, order) -> VCSequence:
    order = tuple(order)
    nv = aux.base.n + aux.p
    if len(order) != nv or set(order) != set(range(1, nv + 1)):
        raise ValidationError("order is not a permutation of the auxiliary vertices")
    return _score(aux, order)


def _clique_term(p: int, k_pos: tuple, end: int) -> int:
    """sum_c c (p+1-c) (k_{c+1} - k_c) over the clique positions k_pos,
    with k_{p+2} = end."""
    ends = k_pos[1:] + (end,)
    return sum(c * (p + 1 - c) * (b - a) for c, a, b in zip(range(1, p + 2), k_pos, ends))


def _score(aux: AuxiliaryGraph, order: tuple) -> VCSequence:
    """vc_sequence's closed form, for orders that a move built from a
    permutation."""
    n, w = aux.base.n, aux.w
    end = len(order) + 1
    q = [i for i, v in enumerate(order, start=1) if v <= n]
    k_pos = tuple(i for i, v in enumerate(order, start=1) if v > n or v == w)
    cuts = aux.base._prefix_cuts([order[i - 1] for i in q])
    gaps = [b - a for a, b in zip(q, q[1:] + [end])]
    beta = sum(map(mul, cuts, gaps)) + _clique_term(aux.p, k_pos, end)
    return VCSequence(aux, order, beta, k_pos)


def _aux_layouts(aux) -> tuple:
    """(perms, rows): the parts of every order of the auxiliary vertex set
    up to permuting U among itself (U vertices are interchangeable by
    symmetry).  Such an order is a choice of the base positions, an order
    of the base vertices there, and U ascending in the other positions.
    perms holds (perm, slot of w, prefix cuts) per base order, in
    itertools.permutations order; rows holds, per choice of base positions
    in itertools.combinations order, (positions, gaps between them, a
    function that lays perm + U out as the order, and per slot of w the
    clique layout: its clique positions and clique term)."""
    g, p = aux.base, aux.p
    n, total = g.n, g.n + p
    perms = [(perm, perm.index(aux.w), g._prefix_cuts(perm))
             for perm in itertools.permutations(g.vertices)]
    rows = []
    for positions in itertools.combinations(range(1, total + 1), n):
        upos = sorted(set(range(1, total + 1)).difference(positions))
        gaps = [b - a for a, b in zip(positions, positions[1:] + (total + 1,))]
        source = [0] * total  # index into perm + U of each position's vertex
        for slot, i in enumerate(positions):
            source[i - 1] = slot
        for u, i in enumerate(upos, start=n):
            source[i - 1] = u
        # itemgetter of one index returns the item, not a 1-tuple
        place = itemgetter(*source) if total > 1 else tuple
        layouts = []
        for q in positions:
            k_pos = tuple(sorted(upos + [q]))
            layouts.append((k_pos, _clique_term(p, k_pos, total + 1)))
        rows.append((positions, gaps, place, layouts))
    return perms, rows


def _row_sequences(aux, row, perms):
    """The scored orders with the base positions of `row`, one per base
    order of `perms`, in that order.  beta is _score's closed form taken
    apart: the clique term of w's slot, plus the dot product of the base
    order's prefix cuts with the gaps between base positions."""
    _, gaps, place, layouts = row
    us = tuple(aux.u_vertices)
    for perm, slot, cuts in perms:
        k_pos, clique = layouts[slot]
        yield VCSequence(aux, place(perm + us), clique + sum(map(mul, cuts, gaps)), k_pos)


def _scatter_positions(seq: VCSequence):
    """None if the clique vertices sit consecutively; otherwise (i, j, k, l)
    where i/l are the outermost clique positions and j/k the nearest base
    vertices inside them: the first gap in `k_pos` from the left and the
    last from the right."""
    pos = seq.k_pos
    i, l = pos[0], pos[-1]
    last = len(pos) - 1
    if l - i == last:
        return None
    a = 1
    while pos[a] == i + a:
        a += 1
    b = 1
    while pos[last - b] == l - b:
        b += 1
    return i, i + a, l - b, l


def scatter(seq: VCSequence) -> int:
    """0 iff the clique vertices sit consecutively; otherwise min(j-i, l-k)
    in the notation of _scatter_positions."""
    pos = _scatter_positions(seq)
    if pos is None:
        return 0
    i, j, k, l = pos
    return min(j - i, l - k)


def unbalance(seq: VCSequence) -> int:
    """The vertices on the wrong side of w for the nearer of the balanced
    shapes  U w V-{w}  and  V-{w} w U;  0 iff the order has one of them."""
    aux = seq.aux
    n, p = aux.base.n, aux.p
    w_pos = seq.order.index(aux.w) + 1
    b_left = seq.k_pos.index(w_pos)  # U vertices left of w
    a_left = w_pos - 1 - b_left  # base vertices left of w
    return min((n - 1 - a_left) + b_left, a_left + (p - b_left))


def _descatter(seq: VCSequence, pos: tuple) -> VCSequence:
    """The descattering move at the scatter positions `pos` of seq: pull
    the blocking base vertex across the nearer outer clique run (left on
    ties), scored by the delta in the module docstring.  Strictly
    decreases beta."""
    i, j, k, l = pos
    aux, order, beta, k_pos = seq
    if j - i <= l - k:
        t = j - i
        v = order[j - 1]
        run = order[i - 1:j - 1]
        beyond = order[:i - 1]  # base vertices only: i is the first clique position
        moved = beyond + (v,) + run + order[j:]
        k_pos = tuple(range(i + 1, j + 1)) + k_pos[t:]
    else:
        t = l - k
        v = order[k - 1]
        run = order[k:l][::-1]  # offsets count from the end nearest `beyond`
        beyond = order[l:]
        moved = order[:k - 1] + order[k:l] + (v,) + beyond
        k_pos = k_pos[:-t] + tuple(range(k, l))
    adj = aux.base.adj
    side = 0
    for x in beyond:
        side |= 1 << (x - 1)
    nv = adj[v - 1]
    g_v = nv.bit_count() - 2 * (nv & side).bit_count()
    w = aux.w
    if w in run:
        o = run.index(w)
        nw = adj[w - 1]
        g_w = nw.bit_count() - 2 * (nw & side).bit_count()
        g_vw = g_v - 2 * (nv >> (w - 1) & 1)
        delta = (o + 1) * g_v - g_w + (t - 1 - o) * g_vw
    else:
        delta = t * g_v
    moved_beta = beta + delta - t * (aux.p + 1 - t)
    if moved_beta >= beta:
        raise VerificationError(f"descattering {order} left beta {beta} at {moved_beta}")
    return VCSequence(aux, moved, moved_beta, k_pos)


def _rebalance(seq: VCSequence) -> VCSequence:
    """One rebalancing step on an unscattered, unbalanced sequence.

    Split the order into the base vertices left of the clique block, the
    block (p + 1 vertices, w at offset k inside it) and the base vertices
    right of it.  k = 0 moves the right side to just before the block; k = p
    mirrors that; otherwise w is transposed with the block end on the side
    holding more of its base neighbors.  On a tie w goes to the left end
    and the right side then moves before the block, as for k = 0.  beta
    never increases.
    """
    aux = seq.aux
    p = aux.p
    i0 = seq.k_pos[0] - 1
    order = list(seq.order)
    left, run, right = order[:i0], order[i0:i0 + p + 1], order[i0 + p + 1:]
    k = run.index(aux.w)
    if k == 0:
        order = left + right + run
    elif k == p:
        order = run + left + right
    else:
        nbrs = aux.base.adj[aux.w - 1]
        d_left = sum(nbrs >> (v - 1) & 1 for v in left)
        d_right = sum(nbrs >> (v - 1) & 1 for v in right)
        end = 0 if d_left >= d_right else p
        run[k], run[end] = run[end], run[k]
        # on a tie w now leads the block, so the k = 0 move follows (it
        # leaves the order as it is when `right` is empty)
        order = left + right + run if d_left == d_right else left + run + right
    out = _score(aux, tuple(order))
    if out.beta > seq.beta:
        raise VerificationError(f"rebalancing {seq.order} raised beta {seq.beta} to {out.beta}")
    return out


def _normal_step(seq: VCSequence) -> tuple:
    """(scattered, step) for the one normalization step: descatter a
    scattered sequence, else rebalance an unbalanced one; step is None at a
    fixpoint."""
    pos = _scatter_positions(seq)
    if pos is not None:
        return True, _descatter(seq, pos)
    return False, _rebalance(seq) if unbalance(seq) > 0 else None


def normalize_sequence(seq: VCSequence) -> VCSequence:
    """Descatter then rebalance to a fixpoint: scatter 0, unbalance 0, and
    beta no larger than the input's.  Balanced inputs come back unchanged."""
    return _normalize(seq, {})


def _normalize(seq: VCSequence, table: dict, moves: int = 0) -> VCSequence:
    """The normal form of seq, an order that `moves` moves already reached.

    `table` maps each order a walk reached to its normal form and the
    number of moves from it to there.  The walk stops at a fixpoint or at
    the first order in the table, then adds every order it passed.
    verify's balance_lemmas shares one table among the walks from the
    unscattered orders of an anchor, which rebalance only.  More
    than 4 |order| + beta moves in all, with the normal form's beta, raise
    VerificationError.  beta never rises along a walk, so a walk that
    passes the bound taken at its start, as a cycle does, stays past it."""
    limit = 4 * len(seq.order) + seq.beta - moves
    walk = []
    hit = table.get(seq.order)
    while hit is None and len(walk) <= limit:
        _, nxt = _normal_step(seq)
        if nxt is None:
            hit = table[seq.order] = (seq, 0)
        else:
            walk.append(seq)
            seq = nxt
            hit = table.get(seq.order)
    if hit is None or moves + len(walk) + hit[1] > 4 * len(seq.order) + hit[0].beta:
        raise VerificationError(f"normalization did not terminate, at order {seq.order}")
    nf, depth = hit
    for d, passed in enumerate(reversed(walk), start=depth + 1):
        table[passed.order] = (nf, d)
    return nf


def _normal_forms(aux):
    """Yield (s, scattered, t, nf) for every order s of _aux_layouts(aux),
    scored: whether s is scattered, t its one normalization step (None at
    a fixpoint) and nf its normal form, which equals normalize_sequence(s).
    verify's balance_lemmas suite checks the normalization lemmas on them.

    The order with base order r (of perms) at row c (of rows) has the
    enumeration index c n! + r.  A descattering move lowers the clique
    span (the last position of U + {w} minus the first) by one, so the
    clique layouts are visited in increasing span.  A scattered order makes
    its one _descatter move and takes the normal form recorded at the
    enumeration index of the order it reached, visited at the lower span;
    a target with none raises.  Only the unscattered orders (span p) walk,
    through _normalize and one table, which holds only orders that a
    rebalancing move reached."""
    perms, rows = _aux_layouts(aux)
    n = aux.base.n
    size = len(perms)
    rank = {perm: r for r, (perm, _, _) in enumerate(perms)}
    row_start = {row[0]: c * size for c, row in enumerate(rows)}  # positions -> index
    by_slot = [([r for r, x in enumerate(perms) if x[1] == slot],
                [x for x in perms if x[1] == slot]) for slot in range(n)]
    nfs: list = [None] * (len(rows) * size)  # normal form by enumeration index
    table: dict = {}
    for _, c, slot in sorted((k_pos[-1] - k_pos[0], c, slot)
                             for c, (_, _, _, layouts) in enumerate(rows)
                             for slot, (k_pos, _) in enumerate(layouts)):
        ranks, slot_perms = by_slot[slot]
        seqs = _row_sequences(aux, rows[c], slot_perms)
        head = next(seqs)
        pos = _scatter_positions(head)  # the same for every order of the layout
        at = None
        for r, s in zip(ranks, itertools.chain((head,), seqs)):
            if pos is None:
                scattered, t = _normal_step(s)
                nf = s if t is None else _normalize(t, table, 1)
            else:
                scattered, t = True, _descatter(s, pos)
                if at is None:
                    # the layout's orders all move their base vertices alike
                    moved = tuple(i for i, v in enumerate(t.order, start=1) if v <= n)
                    at, pick = row_start[moved], itemgetter(*(i - 1 for i in moved))
                r_t = rank.get(pick(t.order))
                nf = None if r_t is None else nfs[at + r_t]
                if nf is None:
                    raise VerificationError(f"descattering {s.order} gave {t.order}, "
                                            f"which has no normal form recorded")
            nfs[c * size + r] = nf
            yield s, scattered, t, nf


def _is_right_balanced(seq: VCSequence) -> bool:
    p = seq.aux.p
    return seq.k_pos[p] == p + 1 and seq.order[p] == seq.aux.w


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
        s = _score(aux, s.order[::-1])
    if not _is_right_balanced(s):
        raise VerificationError(f"anchor {w}: normalized order {s.order} does not "
                                f"have the shape U ... U w V-{{w}}")
    # positions 1..p+1 hold U + {w} with w last, so w leads the restriction
    restricted = tuple(v for v in s.order if v <= g.n)
    anchored_tree = induce_reassembling(g, Arrangement(restricted))
    if direction == R2A:
        beta = measures(g, anchored_tree).beta
        obj = anchored_tree
    else:
        arr = induce_arrangement(g, anchored_tree)
        beta = evaluate_arrangement(g, arr).beta
        obj = arr
    return w, beta, obj, scatter0, balanced


def _check_auxiliary_states(g: Graph) -> None:
    """Refuse, before any G_w is built, the first anchor whose DP would
    refuse G_w.  G_w's twin classes are G's without w plus the clique U,
    one class of p members, and w has no twin: its states are those of G's
    layout anchored at w, times 2 for w and p + 1 for U."""
    classes = _twin_classes(g)
    p = 2 * g.m
    for w in g.vertices:
        _check_work(g.n + p, _states(g, classes, skip=w).size * 2 * (p + 1), "states")


def reduce_beta(g: Graph, direction: str, jobs: int = 1) -> ReductionReport:
    """Solve one beta problem exactly through the other, one auxiliary graph
    per anchor; the winner is the (beta, anchor) lexicographic minimum.

    `jobs` caps the worker processes, which are also at most one per anchor
    and one per CPU the process may use (solvers._cpus): the pool starts
    all of its workers at once, and they fill their tables serially."""
    if direction not in (R2A, A2R):
        raise ValidationError(f"direction must be {R2A!r} or {A2R!r}")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    if not g.is_connected():
        raise ValidationError("beta reduction needs a connected graph")
    _check_auxiliary_states(g)
    workers = min(jobs, g.n, _cpus())
    args = (_solve_anchor, itertools.repeat(g), g.vertices, itertools.repeat(direction))
    # both maps keep the order of g.vertices, so rows are in anchor order
    if workers > 1:
        # imported here: a serial run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_pooled) as pool:
            rows = list(pool.map(*args))
    else:
        rows = list(map(*args))
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
    max_degree: int
    all_deg3_are_cut: bool
    noncut_deg3_witness: Optional[int]  # the smallest degree-3 non-cut vertex
    value: int
    witness: Arrangement

    def to_json(self) -> dict:
        return {"problem": "alpha", "branch": self.branch,
                "classifier": {"max_degree": self.max_degree,
                               "all_deg3_are_cut": self.all_deg3_are_cut,
                               "noncut_deg3_witness": self.noncut_deg3_witness},
                "value": self.value,
                "witness": format_witness(self.witness)}


def reduce_alpha(g: Graph) -> AlphaReductionReport:
    """Cutwidth-optimal arrangement for max degree <= 3.

    If every degree-3 vertex is a cut vertex, solve the arrangement problem
    directly.  Otherwise solve the alpha-optimal linear reassembling and
    return its induced arrangement, which is then alpha-optimal among
    arrangements.  Both run the cut-bounded search, which refuses (exit 3)
    once it stores more sets than the work limit allows.
    """
    if not g.is_connected():
        raise ValidationError("alpha reduction needs a connected graph")
    maxdeg = g.max_degree()
    if maxdeg > 3:
        raise ValidationError(f"alpha reduction needs maximum degree <= 3, got {maxdeg}")
    # v is a cut vertex iff G - v is disconnected
    noncut = next((v for v in g.vertices if g.degree(v) == 3
                   and g.is_connected(g.full_mask ^ (1 << (v - 1)))), None)
    if noncut is None:
        res = exact_arrangement(g, "alpha")
        branch, value, arr = "all_deg3_cut", res.value, res.witness
    else:
        arr = induce_arrangement(g, exact_linear_reassembling(g, "alpha").witness)
        branch, value = "noncut_deg3", evaluate_arrangement(g, arr).alpha
    return AlphaReductionReport(branch=branch, max_degree=maxdeg,
                                all_deg3_are_cut=noncut is None,
                                noncut_deg3_witness=noncut, value=value, witness=arr)
