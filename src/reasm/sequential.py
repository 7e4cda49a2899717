"""Sequential reassembling: edge orderings, partition chains, and the
round-trip between strict binary reassemblings and edge orderings.

Processing an edge ordering merges vertex blocks: at each step the first
remaining edge joins the blocks of its endpoints and every remaining edge
inside the merged block is consumed along with it.  A connected graph on n
vertices always produces a chain of exactly n partitions (n - 1 merges).
The process walks the ordering once: an edge whose ends already share a
block went with the merge that joined them, and a merge consumes exactly the
edges between its two blocks.
The blocks appearing in the chain form a strict binary reassembling; in the
other direction every strict reassembling has a canonical edge ordering that
reproduces it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ValidationError, VerificationError
from .graph import (MAX_EDGES, _LINE_ENDS, Graph, _check_size, _int_pair, data_lines,
                    vertices_of)
from .tree import ReassemblyTree, _check_ground, first_nonstrict_pair, print_tree


def _norm_edge(e) -> tuple:
    u, v = e
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class MergeStep:
    merged: tuple  # (A, B) as vertex masks, lower-vertex side first
    bridges: tuple  # edges between A and B, lexicographic


@dataclass(frozen=True)
class SeqTrace:
    n: int
    steps: tuple  # n - 1 MergeSteps

    @property
    def chain(self) -> tuple:
        """The n partitions, singletons first, (V,) last; a partition is a
        tuple of block masks ordered by lowest vertex.  Replayed from the
        merges on each call: the trace stores no partition."""
        parts = {v: 1 << (v - 1) for v in range(1, self.n + 1)}  # lowest vertex -> block
        chain = [tuple(parts.values())]
        for a, b in (s.merged for s in self.steps):
            # the merged block keeps a's place in the lowest-vertex order
            parts[(a & -a).bit_length()] = a | b
            del parts[(b & -b).bit_length()]
            chain.append(tuple(parts.values()))
        return tuple(chain)

    def tree(self) -> ReassemblyTree:
        """The binary reassembling whose clusters are all blocks of the chain:
        the singletons and the union made by each merge step."""
        merged = (a | b for a, b in (s.merged for s in self.steps))
        return ReassemblyTree([*(1 << v for v in range(self.n)), *merged])


def seq_reassemble(g: Graph, ordering) -> SeqTrace:
    """Run the block-merging process for an ordering of all edges of g."""
    pi = [_norm_edge(e) for e in ordering]
    if len(pi) != g.m or set(pi) != set(g.edges):
        raise ValidationError("ordering is not a permutation of the graph's edges")
    if not g.is_connected():
        raise ValidationError("sequential reassembling needs a connected graph")
    block = {v: v for v in g.vertices}  # vertex -> id of its block
    mask = {v: 1 << (v - 1) for v in g.vertices}  # block id -> its vertex mask
    steps = []
    for u, v in pi:
        ia, ib = block[u], block[v]
        if ia == ib:
            continue  # consumed by the merge that joined u and v
        ma, mb = mask[ia], mask[ib]
        if ma.bit_count() < mb.bit_count():
            ia, ib = ib, ia  # relabel only the smaller block
        for x in vertices_of(mask.pop(ib)):
            block[x] = ia
        mask[ia] = ma | mb
        # every edge inside either block went with an earlier merge, so the
        # edges consumed now are exactly those between the two blocks
        bridges = g.bridges(ma, mb)
        if ma & -ma > mb & -mb:
            ma, mb = mb, ma  # ma holds the lower vertex
        steps.append(MergeStep(merged=(ma, mb), bridges=bridges))
    return SeqTrace(g.n, tuple(steps))


def block_tree(g: Graph, ordering) -> ReassemblyTree:
    """The binary reassembling whose clusters are all blocks of the chain."""
    return seq_reassemble(g, ordering).tree()


def chain_to_ordering(g: Graph, chain) -> tuple:
    """Emit an edge ordering that reproduces a strict maximal chain of
    partitions, each a collection of block masks: per merge, the
    lexicographically least bridge first, then the other consumed edges in
    lexicographic order."""
    if len(chain) != g.n:
        raise ValidationError(f"chain must have exactly {g.n} partitions")
    if sorted(chain[0]) != [1 << (v - 1) for v in g.vertices]:
        raise ValidationError("chain must start with the singleton partition")
    if list(chain[-1]) != [g.full_mask]:
        raise ValidationError("chain must end with the one-block partition")
    out = []
    for idx, (cur, nxt) in enumerate(zip(chain, chain[1:])):
        cur, nxt = set(cur), set(nxt)
        gone = sorted(cur - nxt, key=lambda m: m & -m)  # lower-vertex side first
        if len(gone) != 2 or nxt - cur != {gone[0] | gone[1]}:
            raise ValidationError(f"step {idx + 1} is not a single merge of two blocks")
        bridges = g.bridges(*gone)
        if not bridges:
            raise ValidationError(f"non-strict chain: no edge between "
                                  f"{list(vertices_of(gone[0]))} and {list(vertices_of(gone[1]))}")
        out.extend(bridges)  # already lexicographic; the least one leads
    return tuple(out)


def canonical_ordering(g: Graph, tree: ReassemblyTree) -> tuple:
    """Canonical edge ordering of a strict reassembling.

    Built bottom-up: a singleton contributes nothing; an internal cluster
    concatenates its children's orderings (the one with the smaller first
    edge leading) followed by the bridge set in lexicographic order.
    Feeding the result back through the block-merging process reproduces the
    tree.
    """
    _check_ground(g, tree)
    bad = first_nonstrict_pair(g, tree)
    if bad is not None:
        raise ValidationError(f"tree is not strict: no edge between "
                              f"{list(vertices_of(bad[0]))} and {list(vertices_of(bad[1]))}")

    can = {}  # ordering of each cluster whose parent is not done yet
    for m in tree.clusters:
        if m not in tree._children:
            can[m] = ()
            continue
        a, b = tree._children[m]
        ca, cb = can.pop(a), can.pop(b)
        if ca and cb and cb[0] < ca[0]:
            ca, cb = cb, ca
        can[m] = ca + cb + g.bridges(a, b)
    out = can[tree.ground_mask]
    if len(out) != g.m:
        raise VerificationError(f"canonical ordering of {print_tree(tree)} has "
                                f"{len(out)} edges, not m = {g.m}")
    return out


def parse_ordering(text: str) -> tuple:
    # a text has at most 1 + (its line ends) lines; only when that may pass
    # the cap are they counted, up to the first past it, before any becomes
    # an edge
    if 1 + sum(map(text.count, _LINE_ENDS)) > MAX_EDGES:
        _check_size("ordering file has at least", 0,
                    sum(1 for _ in itertools.islice(data_lines(text), MAX_EDGES + 1)))
    edges = [_norm_edge(_int_pair(lineno, line, "'u v'")) for lineno, line in data_lines(text)]
    if not edges:
        raise ValidationError("empty ordering file")
    return tuple(edges)


def format_ordering(ordering) -> str:
    return "\n".join(f"{u} {v}" for u, v in ordering) + "\n"
