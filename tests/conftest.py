"""Shared fixtures: the exhaustive small-graph catalog, vertex masks, an
independent binary-tree enumerator, a per-mask prefix-cost recurrence, the
prefix table's per-state leaf loop, deep caterpillar trees, the
order-by-order enumeration of an auxiliary graph, the first non-strict
sibling pair of a tree, a process-pool stand-in and a CLI runner."""

import itertools
import math
import warnings
from functools import lru_cache
from pathlib import Path

import networkx as nx
import pytest

from reasm.graph import Graph, vertices_of
from reasm.tree import ReassemblyTree

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Hypothesis imports libcst, where installed, to report a failing example.
# That import warns that mypy_extensions.TypedDict is deprecated, which
# under -W error raises inside pytest's report hook and ends the whole run
# in an INTERNALERROR; imported once here, with only that warning ignored,
# the report finds it loaded.  An ini filter cannot do this, since the
# command line's -W error is applied after the ini filters.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def mask_of(vertices) -> int:
    """Bitmask of a vertex collection: bit v - 1 stands for vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _from_networkx(nxg) -> Graph:
    relabel = {node: i + 1 for i, node in enumerate(sorted(nxg.nodes()))}
    edges = tuple((relabel[u], relabel[v]) for u, v in nxg.edges())
    return Graph(len(relabel), edges)


@lru_cache(maxsize=None)
def connected_atlas(max_n: int) -> tuple:
    """One representative per isomorphism class of connected graphs with
    1..max_n vertices (atlas order)."""
    out = []
    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(nxg):
            out.append(_from_networkx(nxg))
    return tuple(out)


@pytest.fixture(scope="session")
def atlas6() -> tuple:
    graphs = connected_atlas(6)
    # 1 + 1 + 2 + 6 + 21 + 112 classes for n = 1..6
    assert len(graphs) == 143
    return graphs


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@lru_cache(maxsize=None)
def _trees_over(mask: int) -> tuple:
    if mask & (mask - 1) == 0:
        return ((mask,),)
    low = mask & -mask
    rest = mask ^ low
    out = []
    # the child holding the lowest vertex is enumerated as `low | s`, so
    # every unordered pair of children appears exactly once
    s = rest
    while s:
        s = (s - 1) & rest
        left, right = low | s, mask ^ (low | s)
        if not right:
            continue
        for lt in _trees_over(left):
            for rt in _trees_over(right):
                out.append(lt + rt + (mask,))
    return tuple(out)


def binary_tree_masks(n: int) -> tuple:
    """Cluster masks of every binary tree over {1..n}, one tuple per tree."""
    trees = _trees_over((1 << n) - 1)
    assert len(trees) == double_factorial(2 * n - 3)
    return trees


def prefix_costs(g: Graph, objective: str) -> list:
    """X[T] = cut(T) (+) min over v in T of X[T - v], X[0] = 0, one mask at
    a time from `Graph.cut_mask` ((+) is + for beta, max for alpha)."""
    x = [0] * (1 << g.n)
    for t in range(1, 1 << g.n):
        best = min(x[t & ~(1 << i)] for i in range(g.n) if t >> i & 1)
        cut = g.cut_mask(t)
        x[t] = cut + best if objective == "beta" else max(cut, best)
    return x


def leaf_loop(radices: tuple, m, c, *carries) -> list:
    """A leaf block of the prefix table filled one state at a time, the
    reference for its generated kernels.  m and c are the block's lanes of
    X (the minima pulled from the rows below, or the sentinel) and of cut,
    over leaf digits of these radices, lowest first, and each carry is the
    X of a block one vertex below this one; state lo takes c[lo] plus the
    least of m[lo], each carry's lane lo and X one vertex below lo inside
    the block."""
    strides = [math.prod(radices[:i]) for i in range(len(radices))]
    lows = [tuple(lo - h for h, r in zip(strides, radices) if lo // h % r)
            for lo in range(len(m))]
    blk = list(m)
    for lo, offs, cut in zip(range(len(blk)), lows, c):
        best = min([blk[lo]] + [y[lo] for y in carries])
        for j in offs:
            v = blk[j]
            if v < best:
                best = v
        blk[lo] = cut + best
    return blk


def caterpillar_text(n: int) -> str:
    """The linear tree ((((1 2) 3) 4) ... n), nested n - 1 levels deep."""
    return "(" * (n - 1) + "1 " + " ".join(f"{v})" for v in range(2, n + 1))


def distinct_aux_orders(aux):
    """All orders of the auxiliary vertex set up to permuting U among itself:
    choose the positions of the base vertices, order them, and fill the rest
    with U ascending."""
    base = list(aux.base.vertices)
    us = list(aux.u_vertices)
    total = len(base) + len(us)
    for positions in itertools.combinations(range(total), len(base)):
        pos_set = set(positions)
        upos = [i for i in range(total) if i not in pos_set]
        for perm in itertools.permutations(base):
            order: list = [0] * total
            for i, v in zip(positions, perm):
                order[i] = v
            for i, u in zip(upos, us):
                order[i] = u
            yield tuple(order)


def first_nonstrict_pair(g: Graph, tree: ReassemblyTree):
    """First sibling pair (in `clusters` order of their parent) with no edge
    between the two sides, as masks with the lower-vertex side first, or
    None if the tree is strict."""
    assert tree.ground_mask == g.full_mask
    for m in tree.clusters[tree.n:]:
        a, b = tree._children[m]
        if a.bit_count() > b.bit_count():
            a, b = b, a  # scan the smaller side
        if not any(g.adj[v - 1] & b for v in vertices_of(a)):
            return (a, b) if a & -a < b & -b else (b, a)
    return None


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """Replace the reductions' process pool by an in-process stand-in that
    records the `max_workers` of every pool asked for.  The workers'
    initializer is not run: it would mark this process a pool worker."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def run_cli(capsys):
    from reasm.cli import main

    def go(*argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go
