"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact; there are no tolerances.  The whole file is
expected to stay well under five minutes.  Where a `verify` suite checks an
identity, the criterion runs that suite, or its per-instance checker over an
exhaustive range.
"""

import itertools
import random
import time

from reasm import verify
from reasm.graph import (Graph, complete_graph, cycle_graph, parse_graph, path_graph,
                         qcube3_graph, ring_tree_graph, star_graph)
from reasm.layout import (Arrangement, evaluate_arrangement, induce_reassembling,
                          parse_arrangement)
from reasm.reduction import A2R, R2A, build_auxiliary, reduce_alpha, reduce_beta
from reasm.solvers import (_cut_search, brute_force_arrangement, exact_arrangement,
                           exact_binary_reassembling, exact_linear_reassembling)
from reasm.tree import ReassemblyTree, measures, parse_tree
from reasm.verify import FIXTURE_ARRANGEMENTS, FIXTURE_GRAPHS, FIXTURE_TREES, run_suites

from conftest import FIXTURES, binary_tree_masks, first_nonstrict_pair


def verdict(number: int, text: str) -> None:
    # reached only when every assert above it held
    print(f"criterion {number:2d}: PASS - {text}")


def test_criterion_01_fixture_measures():
    # the fixture files hold the catalog that the fixtures suite pins
    for name in ("q3", "k8", "s7"):
        assert parse_graph((FIXTURES / f"{name}.g").read_text()) == FIXTURE_GRAPHS[name], name
    for name, text in FIXTURE_TREES.items():
        assert parse_tree((FIXTURES / f"{name}.t").read_text()) == parse_tree(text), name
    for name, order in FIXTURE_ARRANGEMENTS.items():
        assert parse_arrangement((FIXTURES / f"{name}.a").read_text()).order == order, name
    res = verify.suite_fixtures()
    assert res.ok, res.detail
    assert res.checks == 22
    verdict(1, "all 15 pinned fixture measures reproduce exactly")


def test_criterion_02_exhaustive_binary_optima():
    q3, k8, s7 = qcube3_graph(), complete_graph(8), star_graph(7)
    b1, b4, b5 = (parse_tree(FIXTURE_TREES[name]) for name in ("b1", "b4", "b5"))
    elapsed = {}

    def brute(g, objective):
        t0 = time.perf_counter()
        res = exact_binary_reassembling(g, objective)
        elapsed[(g, objective)] = time.perf_counter() - t0
        assert getattr(measures(g, res.witness), objective) == res.value
        return res

    res = brute(q3, "alpha")
    assert res.value == 4 == measures(q3, b1).alpha  # b1 attains it
    # the catalog trees b1/b2 (beta 48) are alpha-optimal but not
    # beta-optimal: the exhaustive beta optimum over all binary trees is 47
    res = brute(q3, "beta")
    assert res.value == 47 < measures(q3, b1).beta

    res = brute(k8, "beta")
    assert res.value == 127 == measures(k8, b4).beta  # b4 attains it

    # for the star the binary optimum is 28; the best LINEAR tree costs 29
    # and b5 attains that
    res = brute(s7, "beta")
    assert res.value == 28
    assert not res.witness.is_linear()
    assert b5.is_linear()
    assert exact_linear_reassembling(s7, "beta").value == 29 == measures(s7, b5).beta

    assert all(dt <= 60.0 for dt in elapsed.values()), elapsed
    verdict(2, "exhaustive binary optima reproduce "
               "(q3: alpha 4 / beta 47; k8: beta 127; s7: beta 28, linear 29)")


def test_criterion_03_beta_equals_gamma_randomized(monkeypatch):
    # the suite's own draws, each graph noted on its way to the checker
    graphs, check = [], verify._beta_equals_gamma
    monkeypatch.setattr(verify, "_beta_equals_gamma",
                        lambda rec, g, arr: graphs.append(g) or check(rec, g, arr))
    res = verify.suite_beta_equals_gamma(20260815, 1000)
    assert res.ok and res.checks == len(graphs) == 1000, res.detail
    connected = sum(g.is_connected() for g in graphs)
    disconnected = len(graphs) - connected
    assert connected > 100 and disconnected > 100
    verdict(3, f"beta == gamma on 1000 random instances "
               f"({connected} connected, {disconnected} disconnected)")


def test_criterion_04_roundtrips_exhaustive(atlas6):
    rec = verify._Recorder("criterion 4")
    linear_checked = strict_checked = 0
    for g in atlas6:
        # every linear tree appears exactly once among the orders whose
        # first two vertices are increasing
        for perm in itertools.permutations(g.vertices):
            if g.n >= 2 and perm[0] > perm[1]:
                continue
            verify._roundtrip(rec, g, Arrangement(perm))
            linear_checked += 1
        for masks in binary_tree_masks(g.n):
            tree = ReassemblyTree(masks)
            if first_nonstrict_pair(g, tree) is None:
                verify._bin_can(rec, g, tree)
                strict_checked += 1
    assert rec.failures == 0, rec.bad
    assert rec.checks == 3 * linear_checked + strict_checked
    verdict(4, f"roundtrips hold on all connected graphs with n <= 6 "
               f"({linear_checked} linear, {strict_checked} strict trees)")


def test_criterion_05_anchored_beta_identity_exhaustive(atlas6):
    checked = 0
    for g in atlas6:
        total_deg = 2 * g.m
        for perm in itertools.permutations(g.vertices):
            arr = Arrangement(perm)
            tree_rep = measures(g, induce_reassembling(g, arr))
            arr_rep = evaluate_arrangement(g, arr)
            assert tree_rep.beta - arr_rep.beta == total_deg - g.degree(perm[0])
            assert tree_rep.alpha == max(g.max_degree(), arr_rep.alpha)
            checked += 1
    verdict(5, f"anchored beta identity holds on all {checked} orders "
               f"of all connected graphs with n <= 6")


def test_criterion_06_dp_equals_brute_force_exhaustive(atlas6):
    rec = verify._Recorder("criterion 6")
    for g in atlas6:
        verify._dp_vs_brute(rec, g)
    assert rec.failures == 0, rec.bad
    # per objective: one free comparison and one per anchor
    assert rec.checks == 2 * sum(1 + g.n for g in atlas6)
    verdict(6, "subset DP equals brute force (both objectives, free and "
               "anchored) on all connected graphs with n <= 6")


def test_criterion_07_balance_lemmas_exhaustive():
    res = run_suites(["balance_lemmas"])[0]
    assert res.ok, res.detail
    assert res.checks == 83592
    # the 12-vertex auxiliary graphs of C4 and of the paw, at every anchor
    paw = Graph(4, ((1, 2), (2, 3), (1, 3), (3, 4)))
    for g, checks in ((cycle_graph(4), 94256), (paw, 94240)):
        rec = verify._Recorder("balance_lemmas")
        for w in g.vertices:
            verify._balance_lemmas(rec, build_auxiliary(g, w))
        assert (rec.checks, rec.failures) == (checks, 0), rec.bad
    verdict(7, f"balance lemmas hold on every order of every auxiliary "
               f"graph with at most 10 vertices ({res.checks} checks), "
               f"and of those of C4 and the paw")


def test_criterion_08_beta_reduction_end_to_end():
    t0 = time.perf_counter()
    small = [path_graph(3), path_graph(4), cycle_graph(4), cycle_graph(5),
             star_graph(3), complete_graph(4)]
    for g in small:
        assert build_auxiliary(g, 1).combined.n <= 17
    # auxiliary graphs of 32, 23 and 26 vertices, solved over twin classes
    q3 = qcube3_graph()
    large = [q3, ring_tree_graph((3, 4)), ring_tree_graph((3, 3), path_len=3)]
    for g in small + large:
        r2a = reduce_beta(g, R2A)
        assert r2a.best_value == exact_linear_reassembling(g, "beta").value
        assert r2a.checks == {"scatter0": True, "balanced": True}
        a2r = reduce_beta(g, A2R)
        assert a2r.best_value == exact_arrangement(g, "beta").value
        assert a2r.checks == {"scatter0": True, "balanced": True}
        if g is q3:
            assert (r2a.best_value, a2r.best_value) == (49, 28)
    dt = time.perf_counter() - t0
    assert dt <= 120.0
    verdict(8, f"beta reduction matches direct optima in both directions "
               f"on p3, p4, c4, c5, s3, k4, q3 and two ring trees ({dt:.1f}s)")


def test_criterion_09_alpha_reduction_end_to_end():
    cases = [
        (qcube3_graph(), "noncut_deg3", 5),
        (complete_graph(4), "noncut_deg3", 4),
        (ring_tree_graph((3, 4)), "all_deg3_cut", 2),
        (ring_tree_graph((3, 3), path_len=3), "all_deg3_cut", 2),
    ]
    for g, branch, value in cases:
        rep = reduce_alpha(g)
        assert (rep.branch, rep.value) == (branch, value)
        assert rep.value == exact_arrangement(g, "alpha").value
        assert evaluate_arrangement(g, rep.witness).alpha == rep.value
        if g.n <= 10:
            assert rep.value == brute_force_arrangement(g, "alpha").value
    # beyond the 2^24 states of the subset DP: a chain of five 5-rings, and
    # the complete binary tree of height h = 4, whose cutwidth is
    # ceil(h / 2) + 1 = 3: no order keeps every prefix cut <= 2
    tree = Graph(31, tuple((v // 2, v) for v in range(2, 32)))
    for g, n, value in ((ring_tree_graph((5,) * 5), 25, 2), (tree, 31, 3)):
        rep = reduce_alpha(g)
        assert (g.n, rep.branch, rep.value) == (n, "all_deg3_cut", value)
        assert evaluate_arrangement(g, rep.witness).alpha == value
    # the free search starts at ceil(3 / 2) = 2 and rises to 3
    assert _cut_search(tree)[0] == 3
    verdict(9, "alpha reduction gives the exact cutwidth on q3, k4, three "
               "ring trees and a binary tree")


def test_criterion_10_structural_invariants():
    rng = random.Random(99)
    for trial in range(100):
        n = rng.randint(1, 10)
        g = verify._random_connected_graph(rng, n, rng.randint(0, n))

        # a random binary tree over V validates and has 2n - 1 clusters
        blocks = [1 << (v - 1) for v in g.vertices]
        clusters = list(blocks)
        while len(blocks) > 1:
            i, j = sorted(rng.sample(range(len(blocks)), 2))
            blocks[i] |= blocks.pop(j)
            clusters.append(blocks[i])
        tree = ReassemblyTree(clusters)
        assert len(tree.clusters) == 2 * g.n - 1

        w = rng.randint(1, n)
        aux = build_auxiliary(g, w)
        assert aux.combined.n <= n * n
        assert aux.combined.m <= (n**4 - 2 * n**3 + 3 * n**2 - 2 * n) // 2
    verdict(10, "cluster census and auxiliary size bounds hold on 100 "
                "random bases")
