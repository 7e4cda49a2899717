import random

import pytest

from reasm import graph, sequential, verify
from reasm.errors import LimitError, ValidationError
from reasm.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from reasm.sequential import (block_tree, canonical_ordering,
                              chain_to_ordering, format_ordering,
                              parse_ordering, seq_reassemble)
from reasm.tree import parse_tree

from conftest import caterpillar_text, connected_atlas, first_nonstrict_pair, mask_of


def masks(*groups):
    return tuple(mask_of(g) for g in groups)


def test_trace_on_a_path():
    g = path_graph(3)
    trace = seq_reassemble(g, [(1, 2), (2, 3)])
    assert trace.chain == (
        masks({1}, {2}, {3}),
        masks({1, 2}, {3}),
        masks({1, 2, 3}),
    )
    assert trace.steps == (masks({1}, {2}), masks({1, 2}, {3}))
    assert g.bridges(*trace.steps[1]) == ((2, 3),)


def test_merge_consumes_every_parallel_bridge():
    # after {1,2} forms, the edge (1,3) merges in 3 and (2,3) goes with it
    g = complete_graph(3)
    trace = seq_reassemble(g, [(1, 2), (1, 3), (2, 3)])
    assert trace.steps == (masks({1}, {2}), masks({1, 2}, {3}))
    assert g.bridges(*trace.steps[1]) == ((1, 3), (2, 3))


def test_consumed_keeps_input_order():
    # a merge's pair puts the side with the lower vertex first, whichever
    # block the edge that joins them names first, and its edges come
    # sorted, whatever order the ordering consumed them in
    g = complete_graph(3)
    trace = seq_reassemble(g, [(2, 3), (1, 3), (1, 2)])
    assert trace.steps == (masks({2}, {3}), masks({1}, {2, 3}))
    assert g.bridges(*trace.steps[1]) == ((1, 2), (1, 3))
    # the path 1-4-3-2: (3, 4) joins the block of 3, {2, 3}, to that of 4
    trace = seq_reassemble(Graph(4, ((1, 4), (2, 3), (3, 4))), [(1, 4), (2, 3), (3, 4)])
    assert trace.steps == (masks({1}, {4}), masks({2}, {3}), masks({1, 4}, {2, 3}))


def test_bridges_are_the_edges_between_the_blocks_sorted():
    # replayed from the ordering, the edges each merge consumes, those whose
    # ends first share a block at that merge, are the graph's bridges of its
    # pair
    rng = random.Random(7)
    for g in connected_atlas(6):
        for _ in range(3):
            pi = list(g.edges)
            rng.shuffle(pi)
            steps = seq_reassemble(g, pi).steps
            consumed = [[] for _ in steps]
            for e in pi:
                ends = mask_of(e)
                k = next(k for k, (a, b) in enumerate(steps) if not ends & ~(a | b))
                consumed[k].append(e)
            assert [g.bridges(a, b) for a, b in steps] == [tuple(sorted(c)) for c in consumed]
            assert all(a & -a < b & -b for a, b in steps)


def test_trace_rejects_bad_input():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        seq_reassemble(g, [(1, 2)])
    with pytest.raises(ValidationError):
        seq_reassemble(g, [(1, 2), (1, 3)])
    with pytest.raises(ValidationError):
        seq_reassemble(g, [(1, 2), (2, 3), (2, 3)])
    with pytest.raises(ValidationError):
        seq_reassemble(Graph(3, ((1, 2),)), [(1, 2)])  # disconnected


def test_block_tree_examples():
    g = star_graph(3)
    assert block_tree(g, [(1, 2), (1, 3), (1, 4)]) == parse_tree("(((1 2) 3) 4)")
    assert block_tree(g, [(1, 4), (1, 3), (1, 2)]) == parse_tree("(((1 4) 3) 2)")
    g = cycle_graph(4)
    assert block_tree(g, [(1, 2), (3, 4), (2, 3), (1, 4)]) == \
        parse_tree("((1 2) (3 4))")


def test_block_trees_are_strict():
    rng = random.Random(3)
    for g in (path_graph(5), cycle_graph(6), complete_graph(5), star_graph(4)):
        for _ in range(20):
            pi = list(g.edges)
            rng.shuffle(pi)
            tree = block_tree(g, pi)
            assert first_nonstrict_pair(g, tree) is None
            assert len(tree.clusters) == 2 * g.n - 1


def test_chain_to_ordering_inverts_the_trace():
    rng = random.Random(4)
    rec = verify._Recorder("chain round trip")
    for g in (path_graph(5), cycle_graph(5), complete_graph(4)):
        for _ in range(10):
            pi = list(g.edges)
            rng.shuffle(pi)
            verify._chain_roundtrip(rec, g, seq_reassemble(g, pi))
    assert rec.failures == 0, rec.bad
    assert rec.checks == 30


def test_chain_to_ordering_rejects_bad_chains():
    g = path_graph(3)
    good = seq_reassemble(g, [(1, 2), (2, 3)]).chain
    with pytest.raises(ValidationError):
        chain_to_ordering(g, good[1:])  # does not start with singletons
    with pytest.raises(ValidationError):
        chain_to_ordering(g, good[:-1])  # does not end with one block
    # a merge of two blocks with no edge between them
    bad = (masks({1}, {2}, {3}), masks({1, 3}, {2}), masks({1, 2, 3}))
    with pytest.raises(ValidationError, match=r"no edge between \[1\] and \[3\]"):
        chain_to_ordering(g, bad)
    # chains of the right length that go wrong elsewhere
    for bad, message in [
            ((masks({1, 2}, {3}), masks({1, 2}, {3}), masks({1, 2, 3})), "start with"),
            ((masks({1}, {2}, {3}), masks({1, 2}, {3}), masks({1, 2}, {3})), "end with"),
            ((masks({1}, {2}, {3}), masks({1, 2, 3}), masks({1, 2, 3})),
             "step 1 is not a single merge")]:
        with pytest.raises(ValidationError, match=message):
            chain_to_ordering(g, bad)


def test_canonical_ordering_of_a_deep_caterpillar():
    g = path_graph(1100)
    tree = parse_tree(caterpillar_text(g.n))
    can = canonical_ordering(g, tree)
    assert can == g.edges
    assert block_tree(g, can) == tree


def test_canonical_ordering_needs_a_strict_tree():
    s3 = star_graph(3)
    with pytest.raises(ValidationError, match="not strict"):
        canonical_ordering(s3, parse_tree("(((2 3) 1) 4)"))


def test_ordering_file_roundtrip():
    pi = ((1, 2), (2, 3), (1, 3))
    text = format_ordering(pi)
    assert parse_ordering(text) == pi
    assert parse_ordering("1 2 # comment\n\n2 3\n") == ((1, 2), (2, 3))
    with pytest.raises(ValidationError):
        parse_ordering("")
    with pytest.raises(ValidationError):
        parse_ordering("1 2 3\n")
    with pytest.raises(ValidationError):
        parse_ordering("1 x\n")


def test_ordering_lines_are_counted_only_near_the_cap(monkeypatch):
    # the data lines are counted in a pass of their own only when the text
    # has at least MAX_EDGES line ends, so a smaller ordering is scanned once
    scans, data_lines = [], sequential.data_lines

    def counted(text):
        scans.append(text)
        return data_lines(text)

    monkeypatch.setattr(sequential, "data_lines", counted)
    assert parse_ordering("1 2\r\n2 3\f3 4\x1c4 5\u2028") == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert len(scans) == 1
    for module in (graph, sequential):
        monkeypatch.setattr(module, "MAX_EDGES", 3)
    scans.clear()
    assert parse_ordering("1 2\n\n\n# 3 4\n2 3") == ((1, 2), (2, 3))
    assert len(scans) == 2
    with pytest.raises(LimitError, match="ordering file has at least 4 edges, limit is 3"):
        parse_ordering("1 2\n2 3\r3 4\v4 5")
