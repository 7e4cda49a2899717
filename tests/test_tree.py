import itertools
import random

import pytest

from reasm import graph, tree as tree_module
from reasm.errors import ValidationError
from reasm.graph import complete_graph, path_graph, star_graph, vertices_of
from reasm.solvers import exact_binary_reassembling, exact_linear_reassembling
from reasm.tree import ReassemblyTree, measures, parse_tree, print_tree
from reasm.verify import _random_connected_graph

from conftest import (binary_tree_masks, caterpillar_text, connected_atlas, cut_of,
                      first_nonstrict_pair, mask_of)

B1 = "((((1 2) (3 4)) (5 6)) (7 8))"
CHAIN8 = "(((((((1 2) 3) 4) 5) 6) 7) 8)"


def test_parse_print_roundtrip():
    for text in (B1, CHAIN8, "(1 2)", "((2 3) 1)"):
        tree = parse_tree(text)
        assert parse_tree(print_tree(tree)) == tree


def test_deep_caterpillar_roundtrip():
    # deeper than Python's default recursion limit
    text = caterpillar_text(1100)
    tree = parse_tree(text)
    assert tree.is_linear() and len(tree.clusters) - tree.n == 1099
    assert print_tree(tree) == text
    assert ReassemblyTree(tree.clusters) == tree


def test_parse_skips_comments():
    assert parse_tree("# c\n((1 2) # inner\n 3)\n# end") == parse_tree("((1 2) 3)")
    with pytest.raises(ValidationError):
        parse_tree("# ((1 2) 3)")


def test_unordered_children_print_canonically():
    # the same tree written with children swapped
    assert parse_tree("(((((((2 3) 4) 1) 5) 6) 7) 8)") == \
        parse_tree("(((((1 ((2 3) 4)) 5) 6) 7) 8)")
    assert print_tree(parse_tree("(3 (2 1))")) == "((1 2) 3)"


@pytest.mark.parametrize("text", [
    "",
    "(1",
    "1)",
    "(1 2))",
    "(1 (2)",
    "(1 1)",
    "(1 x)",
    "(0 1)",
    "(1 2) 3",
    "(1 2 3)",
    "(1 2",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_tree(text)


def test_cluster_census():
    tree = parse_tree(B1)
    assert tree.n == 8
    assert len(tree.clusters) == 15  # 2n - 1
    assert mask_of({1, 2, 3, 4}) in tree.clusters
    assert tree.clusters == tuple(sorted(tree.clusters, key=lambda m: (m.bit_count(), m)))
    assert tree.ground_mask == (1 << 8) - 1


def test_validation_rejects_broken_cluster_sets():
    with pytest.raises(ValidationError, match="missing singleton"):
        ReassemblyTree([0b1, 0b11])
    with pytest.raises(ValidationError, match="expected 5 clusters"):
        ReassemblyTree([0b001, 0b010, 0b100, 0b111])
    with pytest.raises(ValidationError, match="sibling"):
        ReassemblyTree([0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b0101, 0b1111])
    with pytest.raises(ValidationError, match="empty"):
        ReassemblyTree([0b01, 0, 0b11, 0b10])


def test_constructor_accepts_exactly_the_binary_trees():
    # every family of seven distinct non-empty subsets of {1..4}
    trees = {frozenset(masks) for masks in binary_tree_masks(4)}
    accepted = set()
    for family in itertools.combinations(range(1, 16), 7):
        try:
            ReassemblyTree(family)
        except ValidationError:
            continue
        accepted.add(frozenset(family))
    assert len(trees) == 15 and accepted == trees


def test_constructor_takes_masks_only():
    with pytest.raises(ValidationError):
        ReassemblyTree([0b001, 0b010, 0b100, 0b011, 0b110, 0b111])
    assert ReassemblyTree([1, 2, 4, 3, 7]) == parse_tree("((1 2) 3)")
    # a negative int has infinitely many bits set; vertex sets are refused
    for bad in ([1, 2, -1], [-3, 1, 2], [frozenset({1}), frozenset({2}), frozenset({1, 2})]):
        with pytest.raises(ValidationError, match="non-negative"):
            ReassemblyTree(bad)


def test_equality_is_by_cluster_set():
    a = parse_tree("((1 2) (3 4))")
    b = parse_tree("((4 3) (2 1))")
    assert a == b and hash(a) == hash(b)
    assert a != parse_tree("(((1 2) 3) 4)")


def test_measures_by_hand():
    # path 1-2-3, tree ((1 2) 3): boundaries 1,2,1 for singletons, 1 for
    # {1,2}, 0 for the root
    rep = measures(path_graph(3), parse_tree("((1 2) 3)"))
    assert (rep.alpha, rep.beta) == (2, 5)
    assert rep.per_cluster[0b011] == 1
    json = rep.to_json()
    assert json["alpha"] == 2 and json["beta"] == 5
    assert {"set": [1, 2], "degree": 1} in json["clusters"]


def _assert_measures_match_the_oracle(g, tree):
    rep = measures(g, tree)
    assert rep.per_cluster == {m: cut_of(g, m) for m in tree.clusters}
    assert (rep.alpha, rep.beta) == (max(rep.per_cluster.values()), sum(rep.per_cluster.values()))
    return rep


def test_measures_match_the_cut_oracle():
    # the bottom-up cuts against each cluster's own: every binary tree over
    # {1..n} of every connected graph with n <= 5, and the binary and linear
    # optima of random connected graphs with n <= 9, where the report also
    # gives the optimum's value
    for g in connected_atlas(5):
        for masks in binary_tree_masks(g.n):
            _assert_measures_match_the_oracle(g, ReassemblyTree(masks))
    rng = random.Random(37)
    for n in range(1, 10):
        for _ in range(4):
            g = _random_connected_graph(rng, n, rng.randint(0, 2 * n))
            for objective in ("alpha", "beta"):
                for solve in (exact_binary_reassembling, exact_linear_reassembling):
                    res = solve(g, objective)
                    rep = _assert_measures_match_the_oracle(g, res.witness)
                    assert getattr(rep, objective) == res.value


def test_measures_scan_the_smaller_side_of_each_merge(monkeypatch):
    # on the 3000-vertex caterpillar of P3000 every merge adds one leaf, so
    # the smaller sides hold n - 1 vertices in all, where a rescan of every
    # cluster would visit n^2 / 2
    n = 3000
    g, tree = path_graph(n), parse_tree(caterpillar_text(n))
    smaller = sum(min(a, b, key=int.bit_count).bit_count() for a, b in tree._children.values())
    assert smaller == n - 1
    scanned = []

    def counted(mask):
        out = vertices_of(mask)
        scanned.append(len(out))
        return out
    monkeypatch.setattr(tree_module, "vertices_of", counted)
    monkeypatch.setattr(graph, "vertices_of", counted)
    rep = measures(g, tree)
    assert 0 < sum(scanned) <= smaller
    assert (rep.alpha, rep.beta) == (2, 3 * n - 4)


def test_measures_rejects_wrong_ground_set():
    with pytest.raises(ValidationError):
        measures(path_graph(3), parse_tree("(1 2)"))


def test_linearity():
    chain = parse_tree(CHAIN8)
    assert chain.is_linear()
    assert chain.clusters[chain.n:] == tuple((1 << k) - 1 for k in range(2, 9))
    assert not parse_tree(B1).is_linear()
    assert parse_tree("(1 2)").is_linear()


def test_strictness():
    s3 = star_graph(3)
    good = parse_tree("(((1 2) 3) 4)")
    assert first_nonstrict_pair(s3, good) is None
    bad = parse_tree("(((2 3) 1) 4)")
    assert first_nonstrict_pair(s3, bad) == (0b010, 0b100)
    # unequal sides: the pair keeps the min-vertex side first
    assert first_nonstrict_pair(path_graph(4), parse_tree("(((1 2) 4) 3)")) == \
        (0b0011, 0b1000)


def test_every_enumerated_tree_validates():
    for masks in binary_tree_masks(4):
        tree = ReassemblyTree(masks)
        assert len(tree.clusters) == 7
        rep = measures(complete_graph(4), tree)
        assert rep.beta == sum(rep.per_cluster.values())
