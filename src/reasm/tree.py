"""Reassembling trees: cluster collections over a graph's vertex set.

A reassembling of V is a set of non-empty clusters such that every singleton
is present, V itself is present, and every proper cluster X has exactly one
disjoint sibling Y with X | Y again a cluster.  Such a collection always has
exactly 2n - 1 members and forms an unordered binary tree whose leaves are
the singletons.

Every cluster is a vertex bitmask (bit v-1 = vertex v), so the ground set,
the union of the clusters, may be any set of positive ints -- a parsed tree
keeps the vertex ids it was written with.  Every tree, whether given as
clusters, parsed or built by a solver, is checked by one merge sweep in
ascending cluster size, which also records each non-singleton cluster's
child pair.  The module evaluates the alpha/beta measures and reads and
writes the bracket text format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import LimitError, ValidationError
from .graph import MAX_VERTICES, Graph, data_lines, vertices_of


class ReassemblyTree:
    """Immutable reassembling tree over the union of its cluster masks.

    `clusters` holds the masks sorted by (size, value); equality compares
    them."""

    __slots__ = ("ground_mask", "clusters", "_children")

    def __init__(self, masks: Iterable[int]):
        masks = set(masks)
        if not all(isinstance(m, int) and m >= 0 for m in masks):
            raise ValidationError("clusters must be vertex masks, non-negative ints")
        if 0 in masks:
            raise ValidationError("empty cluster")
        ground = 0
        for m in masks:
            ground |= m
        n = ground.bit_count()
        # the clusters not yet inside a larger one partition V; each is kept
        # under the bit of its lowest vertex
        head = {}
        for v in vertices_of(ground):
            bit = 1 << (v - 1)
            if bit not in masks:
                raise ValidationError(f"missing singleton {{{v}}}")
            head[bit] = bit
        if ground not in masks:
            raise ValidationError("missing root cluster V")
        if len(masks) != 2 * n - 1:
            raise ValidationError(
                f"expected {2 * n - 1} clusters for {n} vertices, got {len(masks)}")
        clusters = sorted(masks, key=lambda m: (m.bit_count(), m))
        # Ascending-size sweep over the non-singletons: a cluster's children
        # must be the head at its lowest vertex and the head it pops for the
        # remaining part.
        children = {}
        for x in clusters[n:]:
            low = x & -x
            a = head.get(low, 0)
            b = x ^ a
            if head.get(b & -b) != b:
                raise ValidationError(
                    f"cluster {set(vertices_of(x))} is not the union of a sibling pair")
            del head[b & -b]
            children[x] = (min(a, b), max(a, b))
            head[low] = x
        self.ground_mask = ground
        self.clusters = tuple(clusters)
        self._children = children

    @property
    def n(self) -> int:
        return self.ground_mask.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, ReassemblyTree) and self.clusters == other.clusters

    def __hash__(self) -> int:
        return hash(self.clusters)

    def __repr__(self) -> str:
        return f"ReassemblyTree({print_tree(self)!r})"

    def is_linear(self) -> bool:
        """True iff the non-singleton clusters form a single nested chain."""
        chain = self.clusters[self.n:]
        return all(a & b == a for a, b in zip(chain, chain[1:]))


@dataclass(frozen=True)
class MeasureReport:
    alpha: int
    beta: int
    per_cluster: dict  # cluster mask -> boundary degree

    def to_json(self) -> dict:
        rows = sorted(((vertices_of(m), d) for m, d in self.per_cluster.items()),
                      key=lambda row: (len(row[0]), row[0]))
        return {"alpha": self.alpha, "beta": self.beta,
                "clusters": [{"set": list(c), "degree": d} for c, d in rows]}


def _check_ground(g: Graph, tree: ReassemblyTree) -> None:
    if tree.ground_mask != g.full_mask:
        raise ValidationError("tree ground set does not match the graph's vertex set")


def measures(g: Graph, tree: ReassemblyTree) -> MeasureReport:
    """alpha = max boundary degree over all clusters (singletons included),
    beta = sum of boundary degrees over all 2n - 1 clusters."""
    _check_ground(g, tree)
    per = {m: g.cut_mask(m) for m in tree.clusters}
    vals = per.values()
    return MeasureReport(alpha=max(vals), beta=sum(vals), per_cluster=per)


# ---------------------------------------------------------------------------
# text format: "(((1 2) (3 4)) ((5 6) (7 8)))"; printing puts the child with
# the smaller minimum vertex first, so print_tree(parse_tree(s)) == s on
# normalized text.

def parse_tree(text: str) -> ReassemblyTree:
    """The tree of the text, read a token at a time, so that a refusal comes
    at the first token at fault, before the rest of the file is split."""
    # each token is a bracket or a run of anything else
    tokens = (tok.group() for _, line in data_lines(text)
              for tok in re.finditer(r"[()]|[^\s()]+", line))
    seen = set()
    masks = []
    open_pairs = []  # per unclosed '(': the child masks read so far
    root = None
    opens = 0
    for tok in tokens:
        if root is not None:
            raise ValidationError("unbalanced brackets: trailing input")
        if tok == ")":
            if not open_pairs or len(open_pairs[-1]) < 2:
                raise ValidationError("unbalanced brackets: unexpected ')'")
            a, b = open_pairs.pop()
            m = a | b
        elif open_pairs and len(open_pairs[-1]) == 2:
            raise ValidationError("unbalanced brackets: expected ')'")
        elif tok == "(":
            # a tree on at most MAX_VERTICES leaves has one '(' per internal cluster
            opens += 1
            if opens == MAX_VERTICES:
                raise LimitError(f"tree file has at least {opens} opening brackets, "
                                 f"limit is {MAX_VERTICES - 1}")
            open_pairs.append([])
            continue
        else:
            try:
                v = int(tok)
            except ValueError:
                raise ValidationError(f"unexpected token {tok!r}") from None
            if v < 1:
                raise ValidationError(f"vertex ids must be positive, got {v}")
            if v > MAX_VERTICES:  # refused before its 2^v mask is built
                raise LimitError(f"leaf {v} is above the vertex limit, limit is {MAX_VERTICES}")
            if v in seen:
                raise ValidationError(f"repeated leaf {v}")
            seen.add(v)
            m = 1 << (v - 1)
        masks.append(m)
        if open_pairs:
            open_pairs[-1].append(m)
        else:
            root = m
    if root is None:
        if open_pairs and len(open_pairs[-1]) == 2:
            raise ValidationError("unbalanced brackets: expected ')'")
        raise ValidationError("unbalanced brackets: unexpected end of input")
    return ReassemblyTree(masks)


def print_tree(tree: ReassemblyTree) -> str:
    out = []
    todo = [tree.ground_mask]  # masks still to render, and literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item in tree._children:
            a, b = tree._children[item]
            if a & -a > b & -b:
                a, b = b, a
            out.append("(")
            todo.extend((")", b, " ", a))
        else:
            out.append(str(item.bit_length()))
    return "".join(out)
