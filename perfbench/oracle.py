"""Independent reference computations for checking reasm's outputs.

Nothing here imports reasm.  Graphs are (n, edges) with vertices 1..n and
edges as (u, v) pairs; internally adjacency is a list of bitmasks with
vertex v at bit v - 1.  A cut is the number of edges leaving a vertex set.

Optima come from forward subset DPs over prefix sets, the mirror image of
the program's suffix tables, so an error in one does not hide in the other.
"""

from __future__ import annotations

import random

INF = float("inf")


def adjacency(n: int, edges) -> list:
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def degrees(n: int, edges) -> list:
    """deg[v] for v in 1..n; index 0 is unused."""
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def cut_of(adj: list, mask: int) -> int:
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        out += (adj[low.bit_length() - 1] & ~mask).bit_count()
    return out


def twin_share(n: int, edges) -> float:
    """Share of vertices with a twin: another vertex of the same open
    neighborhood N(v) or the same closed neighborhood N[v]."""
    adj = adjacency(n, edges)
    classes: dict = {}
    for v in range(n):
        classes.setdefault(("open", adj[v]), []).append(v)
        classes.setdefault(("closed", adj[v] | (1 << v)), []).append(v)
    twins = set()
    for members in classes.values():
        if len(members) > 1:
            twins.update(members)
    return len(twins) / n


# ---------------------------------------------------------------------------
# instance generators

def random_connected(rng: random.Random, n: int, m: int) -> tuple:
    """A random recursive tree (vertex v joins a random earlier vertex)
    plus random extra edges, m edges in all."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}")
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    return tuple(sorted(edges))


def complete(n: int) -> tuple:
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def path(n: int) -> tuple:
    return tuple((v, v + 1) for v in range(1, n))


def cycle(n: int) -> tuple:
    return path(n) + ((1, n),)


def star(leaves: int) -> tuple:
    return tuple((1, v) for v in range(2, leaves + 2))


def qcube3() -> tuple:
    """The 3-cube on vertices 1..8: v - 1 read as three bits."""
    return tuple((u + 1, v + 1) for u in range(8) for v in range(u + 1, 8)
                 if (u ^ v).bit_count() == 1)


def ring_tree(ring_sizes, path_len: int = 1) -> tuple:
    """Rings in a chain, consecutive rings joined by a path of path_len
    edges from the last vertex of one ring to the first of the next."""
    edges = []
    nxt = 1
    prev_last = None
    for size in ring_sizes:
        if prev_last is not None:
            tail = prev_last
            for _ in range(path_len - 1):
                edges.append((tail, nxt))
                tail = nxt
                nxt += 1
            edges.append((tail, nxt))
        ring = list(range(nxt, nxt + size))
        nxt += size
        edges.extend((ring[i], ring[(i + 1) % size]) for i in range(size))
        prev_last = ring[-1]
    return nxt - 1, tuple(edges)


def auxiliary(n: int, edges, w: int) -> tuple:
    """The base graph plus 2m new vertices forming a clique with w."""
    p = 2 * len(edges)
    k = [w] + list(range(n + 1, n + p + 1))
    extra = tuple((min(a, b), max(a, b)) for i, a in enumerate(k) for b in k[i + 1:])
    return n + p, tuple(edges) + extra


# ---------------------------------------------------------------------------
# measuring witnesses

def arrangement_measures(n: int, edges, order) -> tuple:
    """(alpha, beta) of an arrangement; raises ValueError unless `order` is
    a permutation of 1..n."""
    order = list(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"arrangement {order} is not a permutation of 1..{n}")
    adj = adjacency(n, edges)
    prefix = 0
    cuts = []
    for v in order:
        prefix |= 1 << (v - 1)
        cuts.append(cut_of(adj, prefix))
    return max(cuts), sum(cuts)


def parse_tree(text: str):
    """Nested tuples from '((1 2) 3)' text; leaves are ints."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("tree text ends early")
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return int(tok)
        kids = []
        while pos < len(tokens) and tokens[pos] != ")":
            kids.append(node())
        if pos >= len(tokens):
            raise ValueError("tree text has an unclosed '('")
        pos += 1
        return tuple(kids)

    root = node()
    if pos != len(tokens):
        raise ValueError("tree text has trailing tokens")
    return root


def tree_measures(n: int, edges, text: str, linear: bool = False) -> tuple:
    """(alpha, beta) of a reassembly tree over all 2n - 1 clusters.

    Raises ValueError unless the tree is binary with leaves exactly 1..n,
    and, when `linear`, every merge takes at least one singleton."""
    adj = adjacency(n, edges)
    cuts = []
    leaves = []

    def walk(node) -> int:
        if isinstance(node, int):
            leaves.append(node)
            mask = 1 << (node - 1)
        else:
            if len(node) != 2:
                raise ValueError(f"node with {len(node)} children in {text}")
            if linear and not any(isinstance(k, int) for k in node):
                raise ValueError(f"tree {text} is not linear")
            mask = walk(node[0]) | walk(node[1])
        cuts.append(cut_of(adj, mask))
        return mask

    walk(parse_tree(text))
    if sorted(leaves) != list(range(1, n + 1)):
        raise ValueError(f"tree leaves {sorted(leaves)} are not 1..{n}")
    return max(cuts), sum(cuts)


# ---------------------------------------------------------------------------
# exact optima

class ArrangementOptima:
    """Forward subset DP: best[S] is the least cost of the cuts of the
    prefixes of an arrangement of S (S itself included), summed for beta
    and maximized for alpha."""

    def __init__(self, n: int, edges):
        self.n = n
        self.deg = degrees(n, edges)
        adj = adjacency(n, edges)
        full = (1 << n) - 1
        cut = [0] * (full + 1)
        beta = [0] * (full + 1)
        alpha = [0] * (full + 1)
        for s in range(1, full + 1):
            low = s & -s
            rest = s ^ low
            v = low.bit_length() - 1
            c = cut[rest] + (adj[v] & ~s).bit_count() - (adj[v] & rest).bit_count()
            cut[s] = c
            bb = ba = INF
            r = s
            while r:
                low = r & -r
                r ^= low
                t = s ^ low
                if beta[t] < bb:
                    bb = beta[t]
                if alpha[t] < ba:
                    ba = alpha[t]
            beta[s] = c + bb
            alpha[s] = c if c > ba else ba
        self.beta = beta
        self.alpha = alpha

    def arrangement(self, objective: str) -> int:
        table = self.beta if objective == "beta" else self.alpha
        return table[-1]

    def anchored_beta(self, w: int):
        """Least beta over arrangements starting w, v with deg v >= deg w;
        None if no such v.  The cuts after the first two positions are
        the cuts of the reversed order of the remaining vertices."""
        full = len(self.beta) - 1
        best = None
        for v in range(1, self.n + 1):
            if v == w or self.deg[v] < self.deg[w]:
                continue
            rest = full ^ (1 << (w - 1)) ^ (1 << (v - 1))
            val = self.deg[w] + self.beta[rest]
            if best is None or val < best:
                best = val
        return best

    def linear_beta(self) -> int:
        """beta of an optimal linear reassembling.  Its clusters are the n
        singletons, the prefixes of sizes 2..n-1 of an order and the root,
        so it is the degree sum plus the least sum of those prefix cuts; an
        order starting at w has the prefix cuts deg w + beta[V - w]."""
        full = len(self.beta) - 1
        return sum(self.deg) + min(self.beta[full ^ (1 << (w - 1))] - self.deg[w]
                                   for w in range(1, self.n + 1))


def binary_optimum(n: int, edges, objective: str) -> int:
    """Optimum over all binary reassembly trees by a subset DP over splits
    (the lowest vertex of each set stays on the left)."""
    adj = adjacency(n, edges)
    best = {}
    for s in range(1, 1 << n):
        c = cut_of(adj, s)
        if s & (s - 1) == 0:
            best[s] = c
            continue
        low = s & -s
        rest = s ^ low
        val = INF
        a = rest
        while a:  # a is the right part, never empty and never all of s
            left, right = s ^ a, a
            if objective == "beta":
                cand = best[left] + best[right]
            else:
                cand = max(best[left], best[right])
            if cand < val:
                val = cand
            a = (a - 1) & rest
        best[s] = c + val if objective == "beta" else max(c, val)
    return best[(1 << n) - 1]
