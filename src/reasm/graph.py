"""Simple undirected graphs with bitset adjacency.

Vertices are the integers 1..n.  Every vertex set in the package, from the
parsers to the printers, is an int bitmask with bit (v - 1) standing for
vertex v; all boundary-degree style computations reduce to popcounts of
mask intersections, which keeps the subset DP in `solvers` and the measure
evaluation in `tree` cheap.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import LimitError, ValidationError


def vertices_of(mask: int) -> tuple[int, ...]:
    """The vertex ids set in `mask`, ascending; time grows with their count,
    not with the highest id."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 1..n.

    `edges` is normalized to a sorted tuple of (u, v) pairs with u < v;
    duplicate edges collapse.  `adj[v - 1]` is the neighbor bitmask of v.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        seen = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValidationError(f"edge {e} has an endpoint outside 1..{self.n}")
            seen.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        object.__setattr__(self, "adj", tuple(adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v - 1].bit_count()

    def max_degree(self) -> int:
        return max(a.bit_count() for a in self.adj)

    def _prefix_cuts(self, order) -> list:
        """Boundary degree of each prefix of `order`, distinct vertices that
        the caller has checked: entry i is the cut of order[:i + 1].  Adding
        v closes its edges into the prefix and opens the rest."""
        cuts = []
        prefix = cut = 0
        for v in order:
            nbrs = self.adj[v - 1]
            cut += nbrs.bit_count() - 2 * (nbrs & prefix).bit_count()
            prefix |= 1 << (v - 1)
            cuts.append(cut)
        return cuts

    def bridges(self, a: int, b: int) -> tuple[tuple[int, int], ...]:
        """Edges with one endpoint in vertex mask `a` and the other in `b`
        (disjoint masks), in lexicographic order; scans the smaller side."""
        if (a | b) & ~self.full_mask:
            raise ValidationError(f"bridge sets must be vertex masks within 1..{self.n}")
        if a & b:
            raise ValidationError("bridge sets must be disjoint")
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = [(v, w) if v < w else (w, v)
               for v in vertices_of(a) for w in vertices_of(self.adj[v - 1] & b)]
        out.sort()
        return tuple(out)

    def is_connected(self, mask: Optional[int] = None) -> bool:
        """Whether the subgraph induced by vertex mask `mask` (default V) is
        connected: one breadth-first search inside it from its lowest vertex."""
        if mask is None:
            mask = self.full_mask
        elif mask & ~self.full_mask:
            raise ValidationError(f"connectivity needs a vertex mask within 1..{self.n}")
        reached = frontier = mask & -mask
        while frontier:
            nxt = 0
            for v in vertices_of(frontier):
                nxt |= self.adj[v - 1]
            frontier = nxt & mask & ~reached
            reached |= frontier
        return reached == mask

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValidationError(f"vertex {v} outside 1..{self.n}")


# ---------------------------------------------------------------------------
# file format: first data line "n m", then m lines "u v"; '#' starts a
# comment, blank lines are ignored, duplicate edge lines collapse.  A header
# with n above MAX_VERTICES or m above MAX_EDGES is refused (LimitError)
# before anything of that size is allocated: the adjacency bitsets take up
# to n^2 / 8 bytes, 12.5 MB at the cap, and a million edges about 230 MB
# (complete_graph(1414)).  `generate` refuses the same sizes.

MAX_VERTICES = 10_000
MAX_EDGES = 1_000_000


# the characters str.splitlines() ends a line at ("\r\n" is one line end)
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_END = re.compile(f"\r\n|[{_LINE_ENDS}]")
_SLICE = 1 << 16  # characters data_lines splits at once, up to the next line end


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of every line that holds data once its '#'
    comment is cut off and it is stripped; every file format reads these.
    The lines are those of str.splitlines(), made a slice at a time, so a
    caller can stop at a size cap."""
    lineno = pos = 0
    while pos < len(text):
        end = _LINE_END.search(text, pos + _SLICE)
        end = end.end() if end else len(text)
        for line in text[pos:end].splitlines():
            lineno += 1
            line = line.partition("#")[0].strip()
            if line:
                yield lineno, line
        pos = end


def _int_pair(lineno: int, line: str, what: str) -> tuple[int, int]:
    """The two ints of a data line; every other line is refused."""
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise ValidationError(f"line {lineno}: expected {what}, got {line!r}") from None
    return a, b


def _check_size(what: str, n: int, m: int) -> None:
    if n > MAX_VERTICES:
        raise LimitError(f"{what} {n} vertices, limit is {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise LimitError(f"{what} {m} edges, limit is {MAX_EDGES}")


def parse_graph(text: str) -> Graph:
    rows = data_lines(text)
    lineno, head = next(rows, (0, ""))  # a data line is never empty
    if not head:
        raise ValidationError("empty graph file")
    n, m = _int_pair(lineno, head, "'n m' header")
    if n < 0 or m < 0:
        raise ValidationError(f"line {lineno}: header declares a negative size, got {head!r}")
    _check_size(f"line {lineno}: header declares", n, m)
    body = list(itertools.islice(rows, m))
    count = len(body) + sum(1 for _ in rows)  # lines past m are counted, not stored
    if count != m:
        raise ValidationError(f"header declares {m} edges but file has {count} edge lines")
    return Graph(n, tuple(_int_pair(lineno, line, "'u v'") for lineno, line in body))


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators

# 3-regular labeling of the 3-cube used throughout the tests: it is the
# lexicographically least completion of the chain seed {1,2},{1,3},{3,4},
# {3,5},{5,6},{5,7},{7,8} that is isomorphic to the cube and reproduces the
# pinned tree measures (see tests/test_graph.py).
QCUBE3_EDGES = ((1, 2), (1, 3), (1, 6), (2, 4), (2, 8), (3, 4),
                (3, 5), (4, 7), (5, 6), (5, 7), (6, 8), (7, 8))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(1, n + 1), 2)))


def star_graph(leaves: int) -> Graph:
    """Star with center 1 and the given number of leaves 2..leaves+1."""
    return Graph(leaves + 1, tuple((1, k) for k in range(2, leaves + 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))


def qcube3_graph() -> Graph:
    return Graph(8, QCUBE3_EDGES)


def ring_tree_graph(ring_sizes: Iterable[int], path_len: int = 1) -> Graph:
    """Chain of vertex-disjoint rings, consecutive rings joined by a path.

    `path_len` is the number of edges on each joining path (>= 1, so rings
    never share vertices).  The two attachment points of every joint have
    degree 3 and are cut vertices; everything else has degree 2.
    """
    sizes = list(ring_sizes)
    if not sizes:
        raise ValidationError("need at least one ring")
    if any(s < 3 for s in sizes):
        raise ValidationError("ring sizes must be >= 3")
    if path_len < 1:
        raise ValidationError("path length must be >= 1")
    edges, last = [], 0  # last: the highest vertex id so far
    for size in sizes:
        # after the first ring, a path from the last vertex: all but its
        # final edge, then the ring, then the edge that joins the ring
        first = last + path_len if last else 1
        edges += [(u, u + 1) for u in range(last, first - 1)]
        edges += [(first + i, first + (i + 1) % size) for i in range(size)]
        if last:
            edges.append((first - 1, first))
        last = first + size - 1
    return Graph(last, tuple(edges))


def generate(family: str, size: Optional[int] = None, *,
             ring_sizes: Optional[Iterable[int]] = None,
             path_len: Optional[int] = None) -> Graph:
    """Build a named graph family.

    complete/star/path/cycle take `size` (for star: the number of leaves);
    qcube3 takes no parameters; ring_tree takes `ring_sizes` and `path_len`
    (None means 1), which no other family accepts, and no size.
    """
    if family != "ring_tree" and (ring_sizes is not None or path_len is not None):
        raise ValidationError(f"ring sizes and path length are for ring_tree only, "
                              f"not {family!r}")
    if family in ("qcube3", "ring_tree") and size is not None:
        raise ValidationError(f"{family} takes no size")
    if family == "qcube3":
        return qcube3_graph()
    if family == "ring_tree":
        if ring_sizes is None:
            raise ValidationError("ring_tree needs ring_sizes")
        if path_len is None:
            path_len = 1
        sizes = tuple(ring_sizes)
        ring_n, joints = sum(sizes), max(len(sizes) - 1, 0)
        _check_size("ring_tree would have", ring_n + joints * (path_len - 1),
                    ring_n + joints * path_len)
        return ring_tree_graph(sizes, path_len)
    if size is None:
        raise ValidationError(f"family {family!r} needs a size")
    builders = {"complete": complete_graph, "star": star_graph,
                "path": path_graph, "cycle": cycle_graph}
    if family not in builders:
        raise ValidationError(f"unknown family {family!r}")
    # (n, m) of the graph the builder would make
    n, m = {"complete": (size, size * (size - 1) // 2), "star": (size + 1, size),
            "path": (size, size - 1), "cycle": (size, size)}[family]
    _check_size(f"{family} would have", n, m)
    return builders[family](size)
