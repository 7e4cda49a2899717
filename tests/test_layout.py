import itertools
import random

import pytest

from reasm.errors import ValidationError
from reasm.graph import complete_graph, path_graph, star_graph
from reasm.layout import (Arrangement, edge_length, evaluate_arrangement,
                          format_arrangement, induce_arrangement,
                          induce_reassembling, parse_arrangement)
from reasm.tree import measures, parse_tree

from conftest import connected_atlas, is_anchored_arrangement


def test_arrangement_basics():
    arr = Arrangement((3, 1, 2))
    assert arr.n == 3
    assert arr.position(3) == 1 and arr.position(2) == 3
    assert arr.reversed() == Arrangement((2, 1, 3))
    with pytest.raises(ValidationError):
        Arrangement((1, 1, 2))
    with pytest.raises(ValidationError):
        Arrangement(())
    with pytest.raises(ValidationError):
        arr.position(9)


def test_parse_format_roundtrip():
    text = "# comment\n2 1 3\n"
    arr = parse_arrangement(text)
    assert arr == Arrangement((2, 1, 3))
    assert parse_arrangement(format_arrangement(arr)) == arr
    with pytest.raises(ValidationError):
        parse_arrangement("# nothing\n")
    with pytest.raises(ValidationError):
        parse_arrangement("1 two 3")


def test_evaluate_by_hand():
    rep = evaluate_arrangement(path_graph(4), Arrangement((1, 2, 3, 4)))
    assert rep.cuts == (1, 1, 1, 0)
    assert (rep.alpha, rep.beta, rep.gamma) == (1, 3, 3)
    rep = evaluate_arrangement(star_graph(7), Arrangement((2, 3, 4, 1, 5, 6, 7, 8)))
    assert (rep.alpha, rep.beta, rep.gamma) == (4, 16, 16)
    assert rep.to_json()["cuts"] == [1, 2, 3, 4, 3, 2, 1, 0]


def test_evaluate_rejects_non_permutations():
    with pytest.raises(ValidationError):
        evaluate_arrangement(path_graph(3), Arrangement((1, 2)))
    with pytest.raises(ValidationError):
        evaluate_arrangement(path_graph(3), Arrangement((1, 2, 4)))


def test_edge_length():
    arr = Arrangement((2, 3, 1))
    assert edge_length(arr, (2, 1)) == 2
    assert edge_length(arr, (3, 1)) == 1


def test_beta_equals_total_edge_length():
    rng = random.Random(5)
    for g in connected_atlas(5):
        order = list(g.vertices)
        rng.shuffle(order)
        rep = evaluate_arrangement(g, Arrangement(tuple(order)))
        assert rep.beta == rep.gamma == sum(
            edge_length(Arrangement(tuple(order)), e) for e in g.edges)
        assert rep.beta == evaluate_arrangement(
            g, Arrangement(tuple(order)).reversed()).beta


def test_induce_arrangement_first_pair_rule():
    # star: the leaf of the first cluster must come before the center
    s3 = star_graph(3)
    tree = parse_tree("(((1 2) 3) 4)")
    assert induce_arrangement(s3, tree) == Arrangement((2, 1, 3, 4))
    # tie on degree: the smaller id goes first
    p4 = path_graph(4)
    tree = parse_tree("(((2 3) 1) 4)")
    assert induce_arrangement(p4, tree).order[:2] == (2, 3)


def test_induce_arrangement_rejects():
    with pytest.raises(ValidationError, match="not linear"):
        induce_arrangement(complete_graph(4), parse_tree("((1 2) (3 4))"))
    with pytest.raises(ValidationError, match="ground set"):
        induce_arrangement(complete_graph(4), parse_tree("((1 2) 3)"))


def test_roundtrips_exhaustive_small():
    for g in connected_atlas(4):
        for perm in itertools.permutations(g.vertices):
            arr = Arrangement(perm)
            tree = induce_reassembling(g, arr)
            assert tree.is_linear()
            back = induce_arrangement(g, tree)
            # the two orders describe the same tree
            assert induce_reassembling(g, back) == tree
            if g.n >= 2:
                a, b = back.order[0], back.order[1]
                assert (g.degree(a), a) <= (g.degree(b), b)


def test_measure_identities_against_induced_arrangement():
    rng = random.Random(11)
    for g in connected_atlas(5):
        order = list(g.vertices)
        rng.shuffle(order)
        arr = Arrangement(tuple(order))
        tree = induce_reassembling(g, arr)
        rep_t = measures(g, tree)
        rep_a = evaluate_arrangement(g, arr)
        total_deg = sum(g.degree(v) for v in g.vertices)
        assert rep_t.beta == rep_a.beta + total_deg - g.degree(order[0])
        assert rep_t.alpha == max(g.max_degree(), rep_a.alpha)


def test_tree_beta_under_reversal():
    g = star_graph(3)
    arr = Arrangement((2, 1, 3, 4))
    fwd = measures(g, induce_reassembling(g, arr)).beta
    rev = measures(g, induce_reassembling(g, arr.reversed())).beta
    # the anchor moves from the first to the last vertex
    assert rev - fwd == g.degree(2) - g.degree(4)


def test_anchoring_predicates():
    g = star_graph(7)
    assert is_anchored_arrangement(g, Arrangement((2, 3, 4, 1, 5, 6, 7, 8)), 2)
    assert not is_anchored_arrangement(g, Arrangement((2, 3, 4, 1, 5, 6, 7, 8)), 3)
    # center first would need a second vertex of degree >= 7
    assert not is_anchored_arrangement(g, Arrangement((1, 2, 3, 4, 5, 6, 7, 8)), 1)

