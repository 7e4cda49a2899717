import itertools
import json
import multiprocessing
import random

import networkx as nx
import pytest

from reasm.errors import LimitError, ValidationError
from reasm import solvers
from reasm.graph import (Graph, complete_graph, cycle_graph, format_graph, path_graph,
                         qcube3_graph, ring_tree_graph, star_graph)
from reasm.layout import Arrangement, evaluate_arrangement
from reasm.reduction import (A2R, R2A, _check_auxiliary_states, _normal_step,
                             _scatter_positions, build_auxiliary, normalize_sequence,
                             reduce_alpha, reduce_beta, scatter, unbalance, vc_sequence)
from reasm.solvers import _states, _twin_classes, exact_arrangement, exact_linear_reassembling
from reasm.tree import measures
from reasm.verify import BALANCE_BASES

from conftest import connected_atlas, distinct_aux_orders


def test_auxiliary_states_are_counted_from_the_base(monkeypatch):
    checked = []
    monkeypatch.setattr("reasm.reduction._check_work",
                        lambda n, count, unit: checked.append((n, count, unit)))
    for g in connected_atlas(5):
        checked.clear()
        _check_auxiliary_states(g)
        want = []
        for w in g.vertices:
            aux = build_auxiliary(g, w).combined
            want.append((aux.n, _states(aux, _twin_classes(aux)).size, "states"))
        assert checked == want


def test_beta_reduction_is_refused_before_building(monkeypatch):
    monkeypatch.setattr("reasm.reduction.build_auxiliary", None)  # must not be called
    monkeypatch.setenv("REASM_DP_LIMIT", "4")
    # K_{1,2}: anchor 1 has 2 * 3 * 5 = 30 states, anchor 2 has 2^3 * 5 = 40
    star = star_graph(2)
    for direction in (R2A, A2R):
        with pytest.raises(LimitError, match=r"^instance has 7 vertices and 2\^5.0 states"):
            reduce_beta(star, direction)
    monkeypatch.setenv("REASM_DP_LIMIT", "5")
    with pytest.raises(LimitError, match=r"and 2\^5.4 states, limit is 2\^5$"):
        reduce_beta(star, R2A)


def p2_aux():
    return build_auxiliary(path_graph(2), 1)


def test_auxiliary_shape():
    g = cycle_graph(4)
    aux = build_auxiliary(g, 2)
    assert aux.p == 2 * g.m == 8
    assert aux.u_vertices == range(5, 13)
    assert aux.combined.n == g.n + aux.p == 12
    # base edges plus a complete graph on the 8 fresh vertices and w
    assert aux.combined.m == g.m + 9 * 8 // 2
    assert set(g.edges) <= set(aux.combined.edges)
    for u, v in itertools.combinations(list(aux.u_vertices) + [2], 2):
        assert (min(u, v), max(u, v)) in set(aux.combined.edges)


def test_auxiliary_rejects():
    with pytest.raises(ValidationError):
        build_auxiliary(Graph(3, ((1, 2),)), 1)  # disconnected
    with pytest.raises(ValidationError):
        build_auxiliary(path_graph(2), 5)


def test_vc_sequence_worked_example():
    aux = p2_aux()
    seq = vc_sequence(aux, (3, 4, 1, 2))
    assert seq.beta == 5
    assert scatter(seq) == 0 and unbalance(seq) == 0
    assert vc_sequence(aux, seq.order[::-1]).beta == 5


def _oracle_cases():
    for g, w in ((path_graph(2), 1), (path_graph(3), 1), (path_graph(3), 2)):
        aux = build_auxiliary(g, w)
        yield aux, itertools.permutations(range(1, aux.combined.n + 1))
    aux = build_auxiliary(cycle_graph(4), 1)
    rng = random.Random(4)
    vs = list(range(1, aux.combined.n + 1))
    yield aux, (tuple(rng.sample(vs, len(vs))) for _ in range(200))


def test_vc_sequence_matches_the_arrangement_measure():
    # the one scan against an independent evaluation: beta from the
    # combined graph's arrangement measure, k_pos from the clique side
    for aux, orders in _oracle_cases():
        n = aux.base.n
        for order in orders:
            seq = vc_sequence(aux, order)
            assert seq.beta == evaluate_arrangement(aux.combined, Arrangement(order)).beta
            assert seq.k_pos == tuple(i for i, v in enumerate(order, start=1)
                                      if v > n or v == aux.w)


def test_vc_sequence_rejects_non_permutations():
    for order in ((1, 2, 3), (1, 2, 3, 3), (1, 2, 3, 5), (1, 2, 3, 4, 4)):
        with pytest.raises(ValidationError, match="not a permutation"):
            vc_sequence(p2_aux(), order)


def test_scatter_and_unbalance():
    aux = p2_aux()
    assert scatter(vc_sequence(aux, (3, 2, 4, 1))) == 1
    assert unbalance(vc_sequence(aux, (3, 2, 4, 1))) == 1
    assert scatter(vc_sequence(aux, (2, 3, 4, 1))) == 0
    assert unbalance(vc_sequence(aux, (2, 3, 4, 1))) == 1
    assert unbalance(vc_sequence(aux, (2, 1, 3, 4))) == 0


def test_scatter_positions_match_their_definition():
    # every order of P4's G_1 up to permuting U: 10! / 6! = 5040
    aux = build_auxiliary(path_graph(4), 1)
    orders = 0
    for order in distinct_aux_orders(aux):
        seq = vc_sequence(aux, order)
        clique = [q for q, v in enumerate(order, start=1) if v > aux.base.n or v == aux.w]
        i, l = clique[0], clique[-1]
        gaps = [q for q in range(i, l + 1) if q not in clique]  # base vertices inside
        assert _scatter_positions(seq) == ((i, gaps[0], gaps[-1], l) if gaps else None)
        assert scatter(seq) == (min(gaps[0] - i, l - gaps[-1]) if gaps else 0)
        orders += 1
    assert orders == 5040


def _descatter_reference(seq):
    """The move by list surgery, scored by vc_sequence's closed form; and
    whether w sits in the clique run the moved vertex crosses."""
    i, j, k, l = _scatter_positions(seq)
    order = list(seq.order)
    if j - i <= l - k:
        run = order[i - 1:j - 1]
        order.insert(i - 1, order.pop(j - 1))
    else:
        run = order[k:l]
        order.insert(l - 1, order.pop(k - 1))
    return vc_sequence(seq.aux, order), seq.aux.w in run


def _check_descatter(aux, order, branches):
    seq = vc_sequence(aux, order)
    scattered, out = _normal_step(seq)
    if not scattered:
        return
    ref, w_in_run = _descatter_reference(seq)
    assert (out.order, out.beta, out.k_pos) == (ref.order, ref.beta, ref.k_pos), order
    branches[w_in_run] += 1


def test_descatter_delta_matches_a_full_scan():
    # every scattered order of the suite's auxiliary graphs, then random
    # orders of two bases of the reduce benchmark (n + p = 15 and 16)
    branches = [0, 0]
    for g in BALANCE_BASES:
        for w in g.vertices:
            aux = build_auxiliary(g, w)
            for order in distinct_aux_orders(aux):
                _check_descatter(aux, order, branches)
    assert branches == [31580, 9334]  # w outside the run, w inside it
    rng = random.Random(21)
    for g in (cycle_graph(5), complete_graph(4)):
        branches = [0, 0]
        for w in g.vertices:
            aux = build_auxiliary(g, w)
            vs = list(range(1, aux.combined.n + 1))
            for _ in range(2000 // g.n):
                rng.shuffle(vs)
                _check_descatter(aux, vs, branches)
        assert min(branches) > 100 and sum(branches) > 1500, (g.edges, branches)


def test_descatter_strictly_decreases_beta():
    aux = p2_aux()
    seq = vc_sequence(aux, (3, 2, 4, 1))
    scattered, out = _normal_step(seq)
    assert scattered and out.beta == 7 < seq.beta == 8
    assert scatter(out) == 0


@pytest.mark.parametrize("g, w, order, expected, betas", [
    (path_graph(2), 1, (1, 3, 4, 2), (2, 1, 3, 4), (7, 5)),  # k = 0
    (path_graph(2), 1, (2, 3, 4, 1), (3, 4, 1, 2), (7, 5)),  # k = p
    (path_graph(2), 1, (2, 3, 1, 4), (2, 1, 3, 4), (6, 5)),  # w moves left
    (path_graph(2), 1, (3, 1, 4, 2), (3, 4, 1, 2), (6, 5)),  # w moves right
    (path_graph(3), 2, (1, 4, 2, 5, 6, 7, 3), (1, 3, 2, 4, 5, 6, 7), (26, 23)),  # tie
])
def test_rebalance_move_branches(g, w, order, expected, betas):
    seq = vc_sequence(build_auxiliary(g, w), order)
    scattered, out = _normal_step(seq)
    assert not scattered and out.order == expected
    assert (seq.beta, out.beta) == betas


def test_normalize_sequence():
    aux = p2_aux()
    out = normalize_sequence(vc_sequence(aux, (3, 2, 4, 1)))
    assert out.order == (3, 4, 1, 2)
    assert out.beta == 5
    # balanced input is a fixpoint
    assert normalize_sequence(out) is out
    for perm in itertools.permutations(range(1, 5)):
        seq = vc_sequence(aux, perm)
        norm = normalize_sequence(seq)
        assert norm.beta <= seq.beta
        assert scatter(norm) == 0 and unbalance(norm) == 0


@pytest.mark.parametrize("g", [path_graph(3), complete_graph(3), star_graph(3)])
def test_reduce_beta_matches_direct_solves(g):
    tree_opt = exact_linear_reassembling(g, "beta").value
    arr_opt = exact_arrangement(g, "beta").value
    r2a = reduce_beta(g, R2A)
    assert r2a.best_value == tree_opt
    assert measures(g, r2a.best_object).beta == tree_opt
    assert len(r2a.anchors) == g.n
    assert r2a.checks == {"scatter0": True, "balanced": True}
    a2r = reduce_beta(g, A2R)
    assert a2r.best_value == arr_opt
    assert evaluate_arrangement(g, a2r.best_object).beta == arr_opt


def test_reduce_beta_parallel_matches_serial():
    g = path_graph(3)
    assert reduce_beta(g, R2A, jobs=2).to_json() == reduce_beta(g, R2A).to_json()


@pytest.mark.parametrize("jobs, cpus, sizes", [
    (100000, 64, [4]),  # one worker per anchor at most
    (3, 64, [3]),
    (100000, 2, [2]),  # one worker per CPU at most
    (4, None, []),  # unknown CPU count: serial
    (1, 64, []),
])
def test_reduce_beta_bounds_workers(monkeypatch, pool_sizes, jobs, cpus, sizes):
    # the usable CPUs are the affinity mask's; a platform without one falls
    # back to the CPU count, which may be unknown
    if cpus is None:
        monkeypatch.delattr("reasm.solvers.os.sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr("reasm.solvers.os.sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr("reasm.solvers.os.cpu_count", lambda: cpus)
    g = cycle_graph(4)
    assert reduce_beta(g, R2A, jobs=jobs).to_json() == reduce_beta(g, R2A).to_json()
    assert pool_sizes == sizes


def _fill_cpus(g, w, direction):
    """A stand-in for reduction._solve_anchor whose beta is the CPU count
    that a prefix fill in the worker would split its table over."""
    return w, solvers._cpus(), None, True, True


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in reaches the workers through fork")
def test_pool_workers_fill_their_tables_serially(monkeypatch):
    # two pool workers on two CPUs that each forked fill workers of their
    # own would run four processes: a pool worker counts one CPU
    monkeypatch.setattr("reasm.reduction._solve_anchor", _fill_cpus)
    monkeypatch.setattr("reasm.reduction._cpus", lambda: 2)
    report = reduce_beta(path_graph(3), R2A, jobs=2)
    assert report.anchors == ((1, 1), (2, 1), (3, 1))
    assert not solvers._POOLED
    monkeypatch.setattr(solvers, "_POOLED", True)
    assert solvers._cpus() == 1


def test_reduce_beta_rejects():
    with pytest.raises(ValidationError):
        reduce_beta(path_graph(3), "sideways")
    with pytest.raises(ValidationError):
        reduce_beta(Graph(3, ((1, 2),)), R2A)
    for jobs in (0, -3):
        with pytest.raises(ValidationError, match="jobs"):
            reduce_beta(path_graph(3), R2A, jobs=jobs)


def test_reduce_beta_report_json():
    out = reduce_beta(path_graph(3), R2A).to_json()
    assert out["problem"] == "beta"
    assert out["direction"] == R2A
    assert [row["w"] for row in out["anchors"]] == [1, 2, 3]
    assert out["best"]["beta"] == 5
    assert out["best"]["object"] == "((1 2) 3)"


def test_reduce_alpha_branches():
    k4 = complete_graph(4)
    rep = reduce_alpha(k4)
    assert rep.branch == "noncut_deg3"
    assert rep.value == exact_arrangement(k4, "alpha").value
    assert evaluate_arrangement(k4, rep.witness).alpha == rep.value

    rt = ring_tree_graph((3, 4))
    rep = reduce_alpha(rt)
    assert rep.branch == "all_deg3_cut"
    assert rep.value == exact_arrangement(rt, "alpha").value

    out = rep.to_json()
    assert out["problem"] == "alpha"
    assert out["classifier"]["all_deg3_are_cut"] is True


def test_reduce_alpha_rejects():
    with pytest.raises(ValidationError, match="degree"):
        reduce_alpha(complete_graph(8))
    with pytest.raises(ValidationError):
        reduce_alpha(Graph(3, ((1, 2),)))


def test_reduce_alpha_classifies_by_cut_vertices():
    graphs = [g for g in connected_atlas(7) if g.max_degree() <= 3]
    assert len(graphs) == 113  # 1, 1, 2, 6, 10, 29, 64 for n = 1..7
    # the ring trees of criterion 9
    graphs += [ring_tree_graph((3, 4)), ring_tree_graph((3, 3), path_len=3)]
    for g in graphs:
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(g.vertices)
        cuts = set(nx.articulation_points(nxg))
        noncut = [v for v in g.vertices if g.degree(v) == 3 and v not in cuts]
        rep = reduce_alpha(g)
        assert rep.max_degree == g.max_degree()
        assert rep.all_deg3_are_cut == (not noncut)
        assert rep.branch == ("noncut_deg3" if noncut else "all_deg3_cut")
        assert rep.noncut_deg3_witness == (noncut[0] if noncut else None)


def test_alpha_search_refuses_above_its_set_cap(monkeypatch, run_cli, tmp_path):
    # the alpha search charges 2^5 states per stored set, so a limit of 2^10
    # holds 32 sets, and it refuses the first set past them: K_31 stores
    # its 32 prefix sets, and K_32's 33rd is refused
    monkeypatch.setenv("REASM_DP_LIMIT", "10")
    refused = []
    check_work = solvers._check_work

    def recording_check(n, count, unit):
        try:
            check_work(n, count, unit)
        except LimitError:
            refused.append(count)
            raise

    monkeypatch.setattr(solvers, "_check_work", recording_check)
    assert exact_arrangement(complete_graph(31), "alpha").stats["states"] == 32
    with pytest.raises(LimitError, match=r"^instance has 32 vertices and 2\^10\.1 states "
                                         r"\(2\^5 per set\), limit is 2\^10$") as exc:
        exact_arrangement(complete_graph(32), "alpha")
    assert exc.value.exit_code == 3 and refused == [33 << 5]
    # q3 needs 35 sets in each of its solves, so every alpha verb refuses it,
    # and a solve writes no witness file; a ring tree's 10 sets fit
    q3, rt = tmp_path / "q3.g", tmp_path / "rt34.g"
    q3.write_text(format_graph(qcube3_graph()))
    rt.write_text(format_graph(ring_tree_graph((3, 4))))
    witness = tmp_path / "q3.witness"
    for argv in (("solve", q3, "--objective", "alpha", "--witness-out", witness),
                 ("solve", q3, "--objective", "alpha", "--mode", "linear",
                  "--witness-out", witness),
                 ("reduce", q3, "--problem", "alpha")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: instance has 8 vertices and 2^10.1 states "
                              "(2^5 per set), limit is 2^10")
    assert not witness.exists()
    assert refused == [33 << 5] * 4
    code, out, _ = run_cli("reduce", rt, "--problem", "alpha")
    assert code == 0 and (json.loads(out)["branch"], json.loads(out)["value"]) == (
        "all_deg3_cut", 2)