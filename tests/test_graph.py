import itertools
import random

import networkx as nx
import pytest

from reasm.errors import LimitError, ValidationError
from reasm import graph
from reasm.graph import (_LINE_ENDS, MAX_VERTICES, Graph, QCUBE3_EDGES, complete_graph,
                         cycle_graph, data_lines, format_graph, generate, parse_graph,
                         path_graph, qcube3_graph, ring_tree_graph, star_graph, vertices_of)
from reasm.reduction import reduce_alpha
from reasm.tree import measures, parse_tree
from reasm.verify import FIXTURE_TREES

from conftest import mask_of

from conftest import connected_atlas


def test_edges_normalize():
    g = Graph(3, ((3, 1), (1, 2), (2, 1)))
    assert g.edges == ((1, 2), (1, 3))
    assert g.m == 2
    assert g.degree(1) == 2 and g.degree(2) == 1


@pytest.mark.parametrize("n, edges", [
    (0, ()),
    (2, ((1, 1),)),
    (2, ((1, 3),)),
    (2, ((0, 1),)),
])
def test_graph_rejects_bad_data(n, edges):
    with pytest.raises(ValidationError):
        Graph(n, edges)


def test_parse_format_roundtrip():
    g = ring_tree_graph((3, 4), path_len=2)
    assert parse_graph(format_graph(g)) == g


def test_parse_comments_and_blanks():
    text = "# a triangle\n\n3 3\n1 2 # first\n2 3\n1 3\n"
    assert parse_graph(text) == complete_graph(3)


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n",
    "3\n",
    "x y\n",
    "2 1\n",  # missing edge line
    "2 1\n1 2\n1 2\n",  # extra edge line
    "2 1\n1 2 3\n",
    "2 1\n1 b\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_graph(text)


def test_parse_caps_the_header():
    assert parse_graph(f"{MAX_VERTICES} 1\n1 2\n").n == MAX_VERTICES
    # refused on the header alone, even with the edge lines missing
    with pytest.raises(LimitError, match=f"limit is {MAX_VERTICES}"):
        parse_graph(f"{MAX_VERTICES + 1} 1\n")


@pytest.mark.parametrize("text", ["1 -1\n", "3 -1\n1 2\n", "-1 0\n", "-2 -1\n"])
def test_parse_refuses_a_negative_header(text):
    with pytest.raises(ValidationError, match="line 1: header declares a negative size"):
        parse_graph(text)


@pytest.mark.parametrize("slice_len", [1, 2, 3, 5, 1 << 16])
def test_data_lines_are_the_lines_of_splitlines(monkeypatch, slice_len):
    # slices end at a line end, "\r\n" kept whole, wherever they are cut
    monkeypatch.setattr(graph, "_SLICE", slice_len)
    rng = random.Random(slice_len)
    pieces = list(_LINE_ENDS) + ["\r\n", "a", "b", " ", "\t", "#"]
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(40)))
        want = ((i, line.partition("#")[0].strip())
                for i, line in enumerate(text.splitlines(), 1))
        assert list(data_lines(text)) == [(i, line) for i, line in want if line], repr(text)


def test_boundary_degree_and_cut_mask():
    g = cycle_graph(5)
    assert g.cut_mask(mask_of([1])) == 2
    assert g.cut_mask(mask_of([1, 2, 3])) == 2
    assert g.cut_mask(g.full_mask) == 0
    for r in range(1, 5):
        for block in itertools.combinations(range(1, 6), r):
            b = set(block)
            assert g.cut_mask(mask_of(block)) == sum((u in b) != (v in b) for u, v in g.edges)


def _check_prefix_cuts(g, order):
    assert g._prefix_cuts(order) == [g.cut_mask(mask_of(order[:i + 1]))
                                     for i in range(len(order))]


def test_prefix_cuts_are_the_cuts_of_the_prefixes():
    # every order of every connected graph with n <= 5 (31 graphs, 2,679
    # orders), then random graphs, disconnected ones included
    orders = 0
    for g in connected_atlas(5):
        for order in itertools.permutations(g.vertices):
            _check_prefix_cuts(g, order)
            orders += 1
    assert orders == 2679
    rng = random.Random(5)
    disconnected = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        g = Graph(n, tuple(e for e in itertools.combinations(range(1, n + 1), 2)
                           if rng.random() < 0.2))
        disconnected += not g.is_connected()
        order = list(g.vertices)
        rng.shuffle(order)
        _check_prefix_cuts(g, order)
    assert disconnected > 100


def test_bridges():
    g = path_graph(4)
    assert g.bridges(mask_of([1, 2]), mask_of([3, 4])) == ((2, 3),)
    assert g.bridges(mask_of([1]), mask_of([3, 4])) == ()
    assert g.bridges(mask_of([3, 4]), mask_of([1, 2])) == ((2, 3),)
    k4 = complete_graph(4)
    assert k4.bridges(mask_of([1, 2]), mask_of([3, 4])) == ((1, 3), (1, 4), (2, 3), (2, 4))
    # the larger side first: still lexicographic
    assert k4.bridges(mask_of([2, 3, 4]), mask_of([1])) == ((1, 2), (1, 3), (1, 4))
    with pytest.raises(ValidationError):
        g.bridges(mask_of([1, 2]), mask_of([2, 3]))  # blocks must be disjoint
    with pytest.raises(ValidationError):
        g.bridges(mask_of([1]), mask_of([5]))  # vertex 5 is not in the graph


def test_connectivity_and_cut_vertices_against_networkx():
    for g in connected_atlas(6):
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(g.vertices)
        assert g.is_connected()
        cuts = set(nx.articulation_points(nxg))
        for v in g.vertices:
            # G - v stays connected exactly when v is not a cut vertex
            assert g.is_connected(g.full_mask ^ (1 << (v - 1))) == (v not in cuts)
    two = Graph(2, ())
    assert not two.is_connected()
    assert Graph(1, ()).is_connected()
    p4 = path_graph(4)
    assert p4.is_connected(mask_of([2, 3])) and not p4.is_connected(mask_of([1, 3]))
    for bad in (mask_of([5]), -1):
        with pytest.raises(ValidationError, match="vertex mask"):
            p4.is_connected(bad)


def test_families():
    assert complete_graph(8).m == 28
    assert star_graph(7) == Graph(8, tuple((1, v) for v in range(2, 9)))
    assert path_graph(1).m == 0
    assert cycle_graph(3) == complete_graph(3)
    rt = ring_tree_graph((3, 4), path_len=2)
    assert (rt.n, rt.m) == (8, 9)
    assert sorted(rt.degree(v) for v in rt.vertices) == [2] * 6 + [3] * 2


def test_ring_tree_attachment_points_are_cut():
    rep = reduce_alpha(ring_tree_graph((3, 5, 4), path_len=2))
    assert (rep.branch, rep.max_degree, rep.all_deg3_are_cut) == ("all_deg3_cut", 3, True)
    assert rep.noncut_deg3_witness is None


@pytest.mark.parametrize("kwargs", [
    {"ring_sizes": ()},
    {"ring_sizes": (2, 3)},
    {"ring_sizes": (3, 3), "path_len": 0},
])
def test_ring_tree_rejects_bad_parameters(kwargs):
    with pytest.raises(ValidationError):
        ring_tree_graph(**kwargs)


def test_generate_dispatcher():
    assert generate("cycle", 5) == cycle_graph(5)
    assert generate("qcube3") == qcube3_graph()
    assert generate("ring_tree", ring_sizes=(3, 3)) == ring_tree_graph((3, 3))
    with pytest.raises(ValidationError):
        generate("path")  # size missing
    with pytest.raises(ValidationError):
        generate("grid", 4)
    with pytest.raises(ValidationError):
        generate("ring_tree")  # ring sizes missing
    with pytest.raises(ValidationError, match="ring_tree only"):
        generate("path", 3, ring_sizes=(3, 4))
    with pytest.raises(ValidationError, match="ring_tree only"):
        generate("cycle", 5, path_len=2)
    with pytest.raises(ValidationError, match="at least 3 vertices"):
        generate("cycle", 2)


def test_qcube3_is_the_3_cube():
    g = qcube3_graph()
    assert g.n == 8 and g.m == 12
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert nx.is_isomorphic(nx.Graph(list(g.edges)), nx.hypercube_graph(3))


def test_qcube3_labeling_is_the_least_constrained_completion():
    """The pinned labeling is reproducible: it is the lexicographically
    least 3-regular completion of its chain seed that is isomorphic to the
    cube and gives the catalog measures for the b1/b3 trees."""
    seed = ((1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (5, 7), (7, 8))
    rest = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)
            if (u, v) not in seed]
    cube = nx.hypercube_graph(3)
    b1, b3 = (parse_tree(FIXTURE_TREES[name]) for name in ("b1", "b3"))
    hits = []
    for combo in itertools.combinations(rest, 5):
        edges = seed + combo
        deg = [0] * 9
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if any(d != 3 for d in deg[1:]):
            continue
        g = Graph(8, edges)
        if not nx.is_isomorphic(nx.Graph(list(g.edges)), cube):
            continue
        m1, m3 = measures(g, b1), measures(g, b3)
        if (m1.alpha, m1.beta, m3.alpha, m3.beta) == (4, 48, 5, 49):
            hits.append(g.edges)
    assert min(hits) == tuple(sorted(QCUBE3_EDGES))


def test_mask_helpers():
    assert mask_of([3, 1]) == 0b101
    assert vertices_of(0b1011) == (1, 2, 4)
    assert mask_of(vertices_of(0b11010)) == 0b11010
