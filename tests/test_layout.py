import random

import pytest

from reasm.errors import ValidationError
from reasm.graph import Graph, complete_graph, path_graph, star_graph
from reasm.layout import (Arrangement, _gamma, evaluate_arrangement,
                          format_arrangement, induce_arrangement,
                          induce_reassembling, parse_arrangement)
from reasm.tree import measures, parse_tree

from conftest import connected_atlas


def test_arrangement_basics():
    arr = Arrangement((3, 1, 2))
    assert len(arr.order) == 3
    with pytest.raises(ValidationError):
        Arrangement((1, 1, 2))
    with pytest.raises(ValidationError):
        Arrangement(())


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
    # gamma is the sum of the edge lengths
    order = (2, 3, 1)
    assert _gamma(Graph(3, ((1, 2),)), order) == 2
    assert _gamma(Graph(3, ((1, 3),)), order) == 1
    assert _gamma(Graph(3, ((1, 2), (1, 3))), order) == 3


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


def test_tree_beta_under_reversal():
    g = star_graph(3)
    arr = Arrangement((2, 1, 3, 4))
    fwd = measures(g, induce_reassembling(g, arr)).beta
    rev = measures(g, induce_reassembling(g, Arrangement(arr.order[::-1]))).beta
    # the anchor moves from the first to the last vertex
    assert rev - fwd == g.degree(2) - g.degree(4)
    # an arrangement and its reversal have the same beta
    rng = random.Random(5)
    for g in connected_atlas(5):
        arr = Arrangement(tuple(rng.sample(g.vertices, g.n)))
        assert (evaluate_arrangement(g, arr).beta
                == evaluate_arrangement(g, Arrangement(arr.order[::-1])).beta)
