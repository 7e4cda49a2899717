"""Linear arrangements and their correspondence with linear reassemblings.

An arrangement of a graph on n vertices is a permutation x1..xn.  The i-th
edge cut is the boundary degree of the prefix {x1..xi}; alpha is the largest
cut (cutwidth), beta the sum of all cuts, and gamma the total edge length.
beta == gamma holds for every graph and every arrangement, connected or not,
and evaluate_arrangement checks that identity at runtime.

A linear reassembling (all non-singleton clusters nested) induces an
arrangement by reading its chain; an arrangement induces a linear
reassembling whose non-singleton clusters are the prefixes.  The two maps
are mutually inverse on linear trees.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Union

from .errors import ValidationError, VerificationError
from .graph import MAX_VERTICES, Graph, _check_size, data_lines, vertices_of
from .tree import ReassemblyTree, _check_ground, print_tree


@dataclass(frozen=True)
class Arrangement:
    """Immutable vertex order."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if len(set(self.order)) != len(self.order):
            raise ValidationError("arrangement repeats a vertex")
        if not self.order:
            raise ValidationError("empty arrangement")


@dataclass(frozen=True)
class ArrangementReport:
    cuts: tuple[int, ...]  # cuts[i-1] = boundary degree of {x1..xi}; last entry 0
    alpha: int
    beta: int
    gamma: int

    def to_json(self) -> dict:
        return {"cuts": list(self.cuts), "alpha": self.alpha,
                "beta": self.beta, "gamma": self.gamma}


def _check_permutation(g: Graph, arr: Arrangement) -> None:
    if set(arr.order) != set(g.vertices):
        raise ValidationError("arrangement is not a permutation of the graph's vertices")


def _gamma(g: Graph, order) -> int:
    """The total edge length of g laid out in `order`, a permutation of its
    vertices."""
    pos = {v: i for i, v in enumerate(order)}
    return sum(abs(pos[u] - pos[v]) for u, v in g.edges)


def evaluate_arrangement(g: Graph, arr: Arrangement) -> ArrangementReport:
    """All edge cuts plus alpha/beta/gamma; beta and gamma are computed by
    independent routes and must agree."""
    _check_permutation(g, arr)
    cuts = g._prefix_cuts(arr.order)
    beta = sum(cuts)
    gamma = _gamma(g, arr.order)
    if beta != gamma:
        raise VerificationError(f"beta {beta} != gamma {gamma} on arrangement {arr.order}")
    return ArrangementReport(cuts=tuple(cuts), alpha=max(cuts), beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# induced maps

def induce_arrangement(g: Graph, tree: ReassemblyTree) -> Arrangement:
    """Arrangement read off a linear reassembling: within the first cluster
    the lower-degree vertex goes first (ties toward the smaller id), then
    vertices follow the chain."""
    _check_ground(g, tree)
    if not tree.is_linear():
        raise ValidationError("tree is not linear")
    if g.n == 1:
        return Arrangement((1,))
    chain = tree.clusters[tree.n:]
    a, b = vertices_of(chain[0])
    if (g.degree(b), b) < (g.degree(a), a):
        a, b = b, a
    # each cluster adds one vertex to the one before it
    order = [a, b] + [(x ^ y).bit_length() for y, x in zip(chain, chain[1:])]
    return Arrangement(tuple(order))


def induce_reassembling(g: Graph, arr: Arrangement) -> ReassemblyTree:
    """Linear reassembling whose non-singleton clusters are the prefixes."""
    _check_permutation(g, arr)
    masks = [1 << (v - 1) for v in arr.order]
    prefix = masks[0]
    for bit in masks[1:]:
        prefix |= bit
        masks.append(prefix)
    return ReassemblyTree(masks)


def parse_arrangement(text: str) -> Arrangement:
    tokens = (tok.group() for _, line in data_lines(text) for tok in re.finditer(r"\S+", line))
    data = list(itertools.islice(tokens, MAX_VERTICES + 1))  # before any int() is built
    if not data:
        raise ValidationError("empty arrangement file")
    _check_size("arrangement file has at least", len(data), 0)
    try:
        order = tuple(int(t) for t in data)
    except ValueError:
        raise ValidationError("arrangement file must contain integers") from None
    return Arrangement(order)


def format_arrangement(arr: Arrangement) -> str:
    return " ".join(str(v) for v in arr.order) + "\n"


def format_witness(obj: Union[Arrangement, ReassemblyTree]) -> str:
    """One-line text of an arrangement or a tree, without a newline."""
    if isinstance(obj, Arrangement):
        return format_arrangement(obj).strip()
    return print_tree(obj)
