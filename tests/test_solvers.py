import ast
import itertools
import math
import mmap
import os
import random
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from array import array
from pathlib import Path

import pytest

from reasm.errors import LimitError, ValidationError, VerificationError
from reasm.graph import (Graph, complete_graph, cycle_graph, parse_graph,
                         path_graph, qcube3_graph, ring_tree_graph, star_graph, vertices_of)
from reasm.layout import Arrangement, evaluate_arrangement, induce_reassembling
from reasm.reduction import build_auxiliary
from reasm import solvers
from reasm.solvers import (_States, _cut_table, _lanes, _leaf_kernel, _prefix_table, _states,
                           _twin_classes,
                           brute_force_arrangement, dp_limit, exact_arrangement,
                           exact_binary_reassembling, exact_linear_reassembling)
from reasm.tree import measures, print_tree

from conftest import (FIXTURES, binary_tree_masks, connected_atlas, cut_of, leaf_loop,
                      prefix_costs)


def random_connected(rng: random.Random, n: int) -> Graph:
    """A random spanning tree plus each other pair with probability 1/3."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    edges |= {(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
              if rng.random() < 1 / 3}
    return Graph(n, tuple(edges))


def test_cut_table_matches_cut_mask():
    rng = random.Random(12)
    for n in range(1, 13):
        g = random_connected(rng, n)
        assert list(_cut_table(g, _states(g, ()))) == [cut_of(g, s) for s in range(1 << n)]


def _per_mask_tables(g: Graph) -> tuple:
    """(g, classes, cut by mask, beta prefix cost by mask)."""
    return (g, _twin_classes(g), [cut_of(g, t) for t in range(1 << g.n)],
            prefix_costs(g, "beta"))


@pytest.fixture(scope="module")
def random_tables() -> list:
    # n runs below, at and above the 64-mask leaf block, where pulling
    # starts, and up to n = 15, whose top digit's cut fill spans two 2^13
    # chunks
    rng = random.Random(14)
    return [_per_mask_tables(random_connected(rng, n)) for n in range(1, 16)]


def _assert_tables_match(g: Graph, classes, cuts: list, costs: list) -> _States:
    # a vertex set and its count vector share the cut and the prefix cost
    st = _states(g, classes)
    index = [sum(st.stride[v - 1] for v in vertices_of(t)) for t in range(1 << g.n)]
    assert set(index) == set(range(st.size))
    cut = _cut_table(g, st)
    assert [cut[i] for i in index] == cuts, g
    x = _prefix_table(cut, st)
    assert [x[i] for i in index] == costs, g
    return st


def test_prefix_table_matches_per_mask_recurrence(random_tables):
    for g, _, cuts, costs in random_tables:
        _assert_tables_match(g, (), cuts, costs)


def test_prefix_table_at_a_complement_is_cut_plus_best_completion():
    # X[V - t] = cut[t] + the least sum of the cuts after placing t, taken
    # over every order of the remaining vertices
    for g in connected_atlas(6):
        full = g.full_mask
        st = _states(g, ())
        cut = _cut_table(g, st)
        x = _prefix_table(cut, st)
        for t in range(full + 1):
            after = []
            for order in itertools.permutations(vertices_of(full ^ t)):
                s, cuts = t, []
                for v in order:
                    s |= 1 << (v - 1)
                    cuts.append(cut[s])
                after.append(cuts)
            assert x[full ^ t] == cut[t] + min(sum(c) for c in after)


def test_anchored_table_is_the_full_table_without_the_anchor(atlas6):
    # an anchored solve reads X and cut only at sets without its anchor w,
    # so its layout leaves w out: every set without w has the entries of the
    # full layout.  K5, S6 and K_{3,3} put w in a class of 3 or more, C4 in
    # a class of 2, whose other member is left without a twin.  (A single
    # vertex has no feasible anchor, so no anchored table.)
    twinned = (complete_graph(5), star_graph(6), _complete_multipartite(3, 3), cycle_graph(4))
    for g in atlas6[1:] + twinned:
        classes = _twin_classes(g)
        st = _states(g, classes)
        cut = _cut_table(g, st)
        x = _prefix_table(cut, st)
        for w in g.vertices:
            anchored = _states(g, classes, skip=w)
            assert anchored.stride[w - 1] == 0
            if not classes:
                assert anchored.size == 1 << (g.n - 1)
            sets = [t for t in range(1 << g.n) if not t >> (w - 1) & 1]
            index = [sum(anchored.stride[v - 1] for v in vertices_of(t)) for t in sets]
            assert set(index) == set(range(anchored.size))
            full = [sum(st.stride[v - 1] for v in vertices_of(t)) for t in sets]
            cut_w = _cut_table(g, anchored)
            x_w = _prefix_table(cut_w, anchored)
            assert [cut_w[i] for i in index] == [cut[i] for i in full], (g, w)
            assert [x_w[i] for i in index] == [x[i] for i in full], (g, w)


def test_a_layout_with_no_digits():
    # K1 anchored at its one vertex: no digit, one state, the empty set
    g = Graph(1, ())
    st = _states(g, (), skip=1)
    assert (st.digits, st.size) == ((), 1)
    cut = _cut_table(g, st)
    assert list(cut) == [0] and list(_prefix_table(cut, st)) == [0]


def test_twin_classes():
    assert _twin_classes(qcube3_graph()) == []
    assert _twin_classes(star_graph(3)) == [(2, 3, 4)]  # false twins
    assert _twin_classes(complete_graph(3)) == [(1, 2, 3)]  # true twins
    # the clique glued onto anchor 1 of the path 1-2-3: the false twins 1
    # and 3 are split, and the new vertices are true twins of each other
    assert _twin_classes(build_auxiliary(path_graph(3), 1).combined) == [(4, 5, 6, 7)]


def _complete_multipartite(*parts: int) -> Graph:
    """Parts of these sizes, in vertex id order, each joined to all others."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    pairs = itertools.combinations(range(len(part)), 2)
    return Graph(len(part), tuple((u + 1, v + 1) for u, v in pairs if part[u] != part[v]))


def _quotient_graphs():
    for g in connected_atlas(7):
        if _twin_classes(g):
            yield g
    # every anchor of p3, s3 and c4; the anchors of k4 are all alike
    for base, anchors in ((path_graph(3), (1, 2, 3)), (star_graph(3), (1, 2, 3, 4)),
                          (cycle_graph(4), (1, 2, 3, 4)), (complete_graph(4), (1,))):
        for w in anchors:
            yield build_auxiliary(base, w).combined
    # a pair of true twins above 14 singleton bits: the pair's digit has
    # stride 2^14, so its cut fill spans two 2^13 chunks
    g = random_connected(random.Random(0), 14)
    yield Graph(16, g.edges + ((1, 15), (1, 16), (15, 16)))
    # a path on 10 singleton bits with a pair of false twins hung on each of
    # 1, 2 and 3: the pair digits have strides 1024, 3072 and 9216, and a
    # block holding both members of a pair pulls the row holding one
    p = path_graph(10)
    yield Graph(16, p.edges + tuple((v, 9 + 2 * v + j) for v in (1, 2, 3) for j in (0, 1)))
    # K_{5,5,5}: three class digits of radix 6, 216 states; the leaf spans
    # the lower two, so pulls have stride 36, neither a power of two nor a
    # multiple of the chunk
    yield _complete_multipartite(5, 5, 5)


@pytest.fixture(scope="module")
def quotient_tables() -> list:
    return [_per_mask_tables(g) for g in _quotient_graphs()]


def test_quotient_tables_match_per_mask_tables(quotient_tables):
    for g, classes, cuts, costs in quotient_tables:
        assert _assert_tables_match(g, classes, cuts, costs).size < 1 << g.n
    assert len(quotient_tables) == 665 + 12 + 3


@pytest.mark.parametrize("code", ["I", "Q"])
def test_tables_in_wider_lanes(monkeypatch, random_tables, quotient_tables, code):
    # the lane-parallel pulls and cut fill are exact in every lane
    # width, with the twin-free tables from n = 12 up in groups of blocks
    monkeypatch.setattr(solvers, "_lanes", lambda bound: code)
    monkeypatch.setattr(solvers, "_GROUPED", 1 << 12)
    for g, _, cuts, costs in random_tables:
        _assert_tables_match(g, (), cuts, costs)
    for g, classes, cuts, costs in quotient_tables:
        _assert_tables_match(g, classes, cuts, costs)
    g = quotient_tables[-1][0]
    st = _states(g, _twin_classes(g))
    assert _prefix_table(_cut_table(g, st), st).format == code


def test_cut_fill_in_small_chunks_counts_the_digits_above(monkeypatch, quotient_tables):
    # with chunks of at most 4 lanes, a fill adds, per chunk, v's neighbours
    # counted in the digits above the chunk (j // s % r); here 212 (digit,
    # neighbour digit) pairs put a twin class of radix above 2 there, where
    # the default chunk of 2^13 lanes puts none
    monkeypatch.setattr(solvers, "_CHUNK", 4)
    above = 0
    for g, classes, cuts, costs in quotient_tables:
        if g.n <= 12:
            st = _assert_tables_match(g, classes, cuts, costs)
            chunk = solvers._low_span(st, 4)
            above += sum(chunk <= s < h and len(other) > 1 and g.adj[v - 1] >> (other[0] - 1) & 1
                         for h, (v, *_) in st.digits for s, other in st.digits)
    assert above == 212


def test_prefix_table_in_blocks_of_a_large_lowest_class():
    # a lowest class above _LEAF runs in blocks of isqrt(size // 4)
    # states, the first one short: K300 has one period of 301 = 5 + 37 * 8
    # states, K_{130,2} three of 131 = 5 + 14 * 9 and K_{130,2,2} nine of
    # 131 = 12 + 7 * 17, each block pulling from the one below it and from
    # the classes above
    for g in (complete_graph(300), _complete_multipartite(130, 2),
              _complete_multipartite(130, 2, 2)):
        st = _states(g, _twin_classes(g))
        cut = _cut_table(g, st)
        radix = [(h, len(members) + 1) for h, members in st.digits]
        assert radix[0][1] > solvers._LEAF
        want = [0] * st.size
        for t in range(1, st.size):
            want[t] = cut[t] + min(want[t - h] for h, r in radix if t // h % r)
        assert list(_prefix_table(cut, st)) == want


def _twin_free(rng: random.Random, n: int) -> Graph:
    """The first random_connected graph on n vertices without twins."""
    while True:
        g = random_connected(rng, n)
        if not _twin_classes(g):
            return g


def test_grouped_tables_match_the_per_mask_recurrence(monkeypatch, kernel_calls):
    # twin-free tables of _GROUPED states or more run groups of four 64-state
    # blocks, which take no carry, one or two; the floor is lowered to 2^12
    # here so that the per-mask recurrence can check them.  At n = 16 and
    # 17 the top digits' cut fills span four and eight 2^13 chunks
    monkeypatch.setattr(solvers, "_GROUPED", 1 << 12)
    rng = random.Random(30)
    for n in (12, 14, 16, 17):
        g = _twin_free(rng, n)
        del kernel_calls[:]
        costs = prefix_costs(g, "beta")
        _assert_tables_match(g, (), [cut_of(g, t) for t in range(1 << n)], costs)
        assert {carries for _, carries in kernel_calls} == {0, 1, 2}
        if n == 16:
            anchored = g, costs
    # every anchor of the 16-vertex graph: 2^15 states, the sets without the
    # anchor w, whose index drops w's bit; the top cut fill spans two chunks
    g, costs = anchored
    for w in g.vertices:
        st = _states(g, (), skip=w)
        x = _prefix_table(_cut_table(g, st), st)
        low = (1 << (w - 1)) - 1
        sets = [t for t in range(1 << g.n) if not t >> (w - 1) & 1]
        assert [x[t & low | t >> 1 & ~low] for t in sets] == [costs[t] for t in sets], w


def _with_pairs(base: Graph, hosts) -> Graph:
    """`base` with a pair of false twins hung on each vertex of `hosts`, the
    pairs numbered after base's vertices in host order."""
    n = base.n
    return Graph(n + 2 * len(hosts), base.edges + tuple(
        (v, n + 2 * i + j) for i, v in enumerate(hosts) for j in (1, 2)))


def test_grouping_stops_at_a_twin_class(monkeypatch, kernel_calls):
    # the twin classes take the digits above the vertices without a twin.
    # C6 with four pairs has a class right above its 6-bit leaf and runs
    # groups of one block; C7 with four pairs groups one radix-2 digit and
    # C8 with three pairs two, with pulls of the classes' strides (neither
    # powers of two nor multiples of a group) above them.  The floor is
    # lowered to 2^12 as above
    monkeypatch.setattr(solvers, "_GROUPED", 1 << 12)
    for base, hosts, carries in ((cycle_graph(6), (1, 2, 3, 4), {0}),
                                 (cycle_graph(7), (1, 2, 3, 4), {0, 1}),
                                 (cycle_graph(8), (1, 2, 3), {0, 1, 2})):
        g = _with_pairs(base, hosts)
        classes = _twin_classes(g)
        assert [len(c) for c in classes] == [2] * len(hosts)
        del kernel_calls[:]
        st = _assert_tables_match(g, classes, [cut_of(g, t) for t in range(1 << g.n)],
                                  prefix_costs(g, "beta"))
        assert st.size >= solvers._GROUPED
        assert {c for _, c in kernel_calls} == carries, g


_RESIDENT_AFTER_SOLVES = """
import ast, os, sys
from reasm.graph import Graph
from reasm.solvers import exact_arrangement, exact_linear_reassembling

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

g = Graph(18, ast.literal_eval(sys.argv[1]))
levels = []
for solve, anchor in ((exact_arrangement, None), (exact_linear_reassembling, None),
                      (exact_arrangement, 1)):
    solve(g, "beta", anchor)
    levels.append(rss())
print(levels)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
def test_consecutive_beta_solves_leave_no_tables_resident():
    # a twin-free 18-vertex graph: free and linear, 2^18-state tables of
    # 256 KiB (cut) and 512 KiB (X); anchored, half that.  Each is mapped
    # off the heap and unmapped when its solve returns, so current RSS
    # after the first solve (kernels compiled) is where it stays.  A fresh
    # process, since a heap that earlier work has grown can hide tables
    # left resident on it
    g = _twin_free(random.Random(18), 18)
    src = str(Path(solvers.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _RESIDENT_AFTER_SOLVES, repr(g.edges)],
                         capture_output=True, text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    levels = ast.literal_eval(out.stdout)
    assert all(abs(level - levels[0]) <= 2 ** 19 for level in levels), levels


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """The keys (radices, carries) of every leaf kernel that _prefix_table
    asks for, in call order."""
    calls = []
    monkeypatch.setattr(solvers, "_leaf_kernel",
                        lambda *key: calls.append(key) or _leaf_kernel(*key))
    return calls


def test_leaf_kernels_match_the_leaf_loop(monkeypatch, kernel_calls, random_tables,
                                          quotient_tables):
    # every leaf layout of the table fixtures, with no carry, one or two
    # (the grouping floor lowered to 2^12), on random lanes of X, cut and
    # the carries in every lane width, with about one lane of X and of each
    # carry in four at the sentinel
    monkeypatch.setattr(solvers, "_GROUPED", 1 << 12)
    for g, classes, _, _ in random_tables + quotient_tables:
        st = _states(g, classes)
        _prefix_table(_cut_table(g, st), st)
    layouts = {radices for radices, _ in kernel_calls}
    assert {(2,), (6, 6), (2,) * 6} <= layouts
    assert {((2,) * 6, carries) for carries in (0, 1, 2)} <= set(kernel_calls)
    rng = random.Random(22)
    for radices in sorted(layouts):
        span = math.prod(radices)
        for code in "BHIQ":
            sentinel = (1 << 8 * array(code).itemsize - 1) - 1

            def lanes():
                return array(code, [sentinel if rng.random() < 0.25
                                    else rng.randrange(min(4 * span, sentinel))
                                    for _ in range(span)])
            for carries in (0, 1, 2):
                kernel = _leaf_kernel(radices, carries)
                for _ in range(10):
                    # the group's earlier blocks: block 0, then blocks 1 and 2
                    done = [tuple(lanes()) for _ in range(2 * carries - 1)]
                    ys = [done[0]] if carries == 1 else done[:0:-1]
                    m, c = lanes(), array(code, [rng.randrange(8) for _ in range(span)])
                    assert (list(kernel(tuple(m), tuple(c), done))
                            == leaf_loop(radices, m, c, *ys))


def test_kernels_stay_within_the_leaf_bound(kernel_calls):
    # K300 and K1000 are one digit of radix n + 1, run in blocks of
    # isqrt((n + 1) // 4) states; S200's leaf is its centre's digit and
    # K_{5,5,5}'s its lower two classes.  These tables, and P17's 2^17
    # states, are under _GROUPED states and run groups of one block.  P18's
    # 2^18 states run groups of four 64-state blocks, which take no carry,
    # one or two.  Solved twice each, every key compiles once.
    _leaf_kernel.cache_clear()
    for g in (complete_graph(300), complete_graph(1000), star_graph(200),
              _complete_multipartite(5, 5, 5), path_graph(17), path_graph(18)):
        for _ in range(2):
            value = exact_arrangement(g, "beta").value
            if g.n in (300, 1000):
                assert value == (g.n ** 3 - g.n) // 6
    assert sorted(set(kernel_calls)) == [((2,), 0), ((2,) * 6, 0), ((2,) * 6, 1),
                                         ((2,) * 6, 2), ((6, 6), 0), ((8,), 0), ((15,), 0)]
    assert all(math.prod(radices) <= solvers._LEAF for radices, _ in kernel_calls)
    info = _leaf_kernel.cache_info()
    assert info.misses == info.currsize == 7
    assert info.hits == len(kernel_calls) - 7 == 11


def _parallel_layouts():
    rng = random.Random(34)
    for n in range(12, 17):
        g = _twin_free(rng, n)
        yield g, None
        yield g, n // 2
    # twin classes among the top digits: three pairs (radix 3) above C8's
    # bits, two above C10's, and a triple (radix 4) and a pair above C9's
    for g in (_with_pairs(cycle_graph(8), (1, 2, 3)), _with_pairs(cycle_graph(10), (1, 2)),
              Graph(14, cycle_graph(9).edges + ((1, 10), (1, 11), (1, 12)) + ((2, 13), (2, 14)))):
        st = _states(g, _twin_classes(g))
        assert any(len(members) > 1 for _, members in st.digits[-2:])
        yield g, None
    # a lowest class of radix 131, filled in blocks, below two pairs
    yield _complete_multipartite(130, 2, 2), None


def _fill(g: Graph, skip=None) -> bytes:
    st = _states(g, _twin_classes(g), skip=skip)
    assert st.size >= solvers._GROUPED
    return bytes(_prefix_table(_cut_table(g, st), st).cast("B"))


@pytest.mark.parametrize("procs", [2, 3, "usable"])
def test_parallel_fill_is_byte_identical_to_the_serial_fill(monkeypatch, forks, deadline,
                                                             procs):
    # every table is filled by procs processes (or one per usable CPU, 2
    # on the 2-vCPU VM this package is measured on) and by one, and both
    # tables are the same bytes.  A fill that fell back to one process
    # would fork no worker
    cpus = solvers._cpus if procs == "usable" else lambda: procs
    for g, skip in _parallel_layouts():
        monkeypatch.setattr(solvers, "_cpus", lambda: 1)
        serial = _fill(g, skip)
        monkeypatch.setattr(solvers, "_cpus", cpus)
        before = len(forks)
        assert _fill(g, skip) == serial, (g.edges, skip)
        # each layout has a level of three cells or more
        assert len(forks) - before == min(cpus(), 3) - 1


def test_a_fill_without_two_digits_above_its_groups_runs_serially(monkeypatch, forks):
    # K1030 is one digit of radix 1031, and S600's leaf is its centre's
    # digit, with one class of radix 601 above it; P4 with 100 false twins
    # on vertex 1 has one class of radix 101 above its four bits
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    pendants = tuple((1, v) for v in range(5, 105))
    for g in (complete_graph(1030), star_graph(600), Graph(104, path_graph(4).edges + pendants)):
        _fill(g)
        exact_arrangement(g, "beta")
    assert forks == []


def _kernels_failing(monkeypatch, fails):
    """Leaf kernels that raise RuntimeError on the calls where fails() is
    true, in whichever process runs them."""
    def kernel_of(*key):
        kernel = _leaf_kernel(*key)

        def run(*args):
            if fails():
                raise RuntimeError("a failing leaf kernel")
            return kernel(*args)
        return run
    monkeypatch.setattr(solvers, "_leaf_kernel", kernel_of)


def test_a_failing_fill_worker_fails_the_solve(monkeypatch, forks, deadline):
    # the worker fails in its first cell and sends its error, while the
    # parent waits for it at the first barrier: the solve raises what the
    # serial fill would
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    parent = os.getpid()
    _kernels_failing(monkeypatch, lambda: os.getpid() != parent)
    g = _twin_free(random.Random(14), 14)
    with pytest.raises(RuntimeError, match="a failing leaf kernel"):
        exact_arrangement(g, "beta")
    assert len(forks) == 1


def test_a_failing_parent_reaps_its_fill_workers(monkeypatch, forks, deadline):
    # the parent fails in its second cell, with two workers forked; both
    # stop at the barrier it never reaches and are reaped
    monkeypatch.setattr(solvers, "_cpus", lambda: 3)
    parent, calls = os.getpid(), itertools.count()
    # a cell of this table is one group of four blocks
    _kernels_failing(monkeypatch, lambda: os.getpid() == parent and next(calls) >= 4)
    with pytest.raises(RuntimeError, match="a failing leaf kernel"):
        exact_arrangement(_twin_free(random.Random(14), 14), "beta")
    assert len(forks) == 2


def test_a_live_thread_keeps_the_fill_serial(monkeypatch, forks, deadline):
    # os.fork warns in a process with more than one thread (Python 3.12
    # on), which -W error turns into a failure
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    g = _twin_free(random.Random(14), 14)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            threaded = exact_arrangement(g, "beta")
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert threaded == exact_arrangement(g, "beta") and len(forks) == 1


def test_usable_cpus(monkeypatch):
    # the affinity mask, or one CPU on a platform without one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert solvers._cpus() == cpus
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert solvers._cpus() == 1


@pytest.mark.parametrize("usable, work, workers", [
    (64, 1 << 10, 3),  # one process per item of the largest level at most
    (2, 1 << 10, 1),  # one per usable CPU at most
    (1, 1 << 10, 0),
    (64, (1 << 10) - 1, 0),  # below the floor
])
def test_forked_bounds_its_workers(forks, cpus, deadline, usable, work, workers):
    # every item's result, in whichever process ran it, and the levels in
    # order: the items of level 1 read the write of level 0 in a shared
    # mapping, and level 2 reads theirs.  An item's result is the process
    # that ran it and the CPUs it could use
    cpus(usable)
    done = solvers._table("B", 8, 0)
    assert isinstance(done.obj, mmap.mmap)
    levels = [[0], [1, 2, 3, 4], [5]]
    reads = {0: [], 1: [0], 2: [0], 3: [0], 4: [0], 5: [1, 2, 3, 4]}

    def run(item):
        done[item] = 1 + sum(done[i] for i in reads[item])
        return os.getpid(), tuple(sorted(os.sched_getaffinity(0)))

    got = solvers._forked(run, levels, work, "a test run")
    assert sorted(got) == list(range(6))
    assert done.tolist() == [1, 2, 2, 2, 2, 9, 0, 0]
    # each process on a CPU of its own, or this one on all of them
    places = set(got.values())
    if workers:
        assert sorted(cpu for _, cpu in places) == [(c,) for c in range(workers + 1)]
    else:
        assert places == {(os.getpid(), tuple(range(usable)))}
    assert len(forks) == workers


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("call, fails_at, workers", [("pipe", 0, 0), ("fork", 1, 1)])
def test_a_fill_that_cannot_fork_runs_the_other_ranks_itself(monkeypatch, forks, cpus, deadline,
                                                            call, fails_at, workers):
    # os.pipe failing on its first call, or os.fork on its second, in a
    # 3-CPU fill: this process runs the ranks it could not fork, the table
    # is the serial one, and the pipes made for the refused fork are closed
    g, skip = next(_parallel_layouts())
    cpus(1)
    serial = _fill(g, skip)
    cpus(3)
    real, calls = getattr(os, call), itertools.count()

    def failing(*args):
        if next(calls) == fails_at:
            raise OSError(f"os.{call} refused")
        return real(*args)
    monkeypatch.setattr(os, call, failing)
    fds = _open_fds()
    assert _fill(g, skip) == serial
    assert len(forks) == workers
    assert _open_fds() == fds


@pytest.mark.parametrize("seen_at", ["load", "write"])
def test_a_worker_that_exits_after_its_first_level_fails_the_fill(monkeypatch, forks, cpus,
                                                                 deadline, seen_at):
    # the worker sends its first level and exits with status 9 where it
    # waits for the byte back: after reading it, so that this process finds
    # the worker's pipe ended at the next level's load, or before, and this
    # process writes the byte only once the worker has ended, into a pipe
    # that no one reads
    g, skip = next(_parallel_layouts())
    cpus(2)
    parent, read, write = os.getpid(), os.read, os.write

    def read_then_exit(fd, n):
        if os.getpid() == parent:
            return read(fd, n)
        if seen_at == "load":
            read(fd, n)
        os._exit(9)

    def write_once_ended(fd, data):
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        return write(fd, data)
    monkeypatch.setattr(os, "read", read_then_exit)
    if seen_at == "write":
        monkeypatch.setattr(os, "write", write_once_ended)
    with pytest.raises(VerificationError, match=r"worker exit statuses \[9\]"):
        _fill(g, skip)
    assert len(forks) == 1


def test_a_fill_that_cannot_pin_still_matches_the_serial_fill(monkeypatch, forks, cpus, deadline):
    # every pin is refused, this process's and each worker's
    g, skip = next(_parallel_layouts())
    cpus(1)
    serial = _fill(g, skip)
    cpus(3)
    pins = []

    def refused(pid, chosen):
        pins.append(chosen)
        raise OSError("pinning refused")
    monkeypatch.setattr(os, "sched_setaffinity", refused)
    assert _fill(g, skip) == serial
    assert len(forks) == 2
    # this process's pins, to its first CPU and back, each refused
    assert pins == [{0}, [0, 1, 2]]


@pytest.mark.parametrize("lands", ["in_the_reaping", "before_the_clean_up"])
def test_an_interrupt_at_the_clean_up_still_reaps_every_worker(monkeypatch, forks, cpus,
                                                               deadline, lands):
    # SIGINT in this process's first os.waitpid of the clean-up waits until
    # every worker is reaped, and then ends the fill as KeyboardInterrupt.
    # One that came in just before the clean-up is raised by the call that
    # blocks SIGINT there, as CPython does once the mask has changed, and
    # the reaping still runs.  A worker left unreaped would be a child still
    # here; SIGINT is unblocked again either way
    g, skip = next(_parallel_layouts())
    cpus(2)
    parent, waitpid, sigmask = os.getpid(), os.waitpid, signal.pthread_sigmask
    blocks, raised = [], []

    def interrupted(pid, options):
        if os.getpid() == parent and not raised:
            raised.append(pid)
            signal.raise_signal(signal.SIGINT)
        return waitpid(pid, options)

    def blocked_then_interrupted(how, mask):
        old = sigmask(how, mask)
        if os.getpid() == parent and how == signal.SIG_BLOCK:
            blocks.append(how)
            if len(blocks) == 2:  # the first blocks SIGINT while the workers fork
                raised.append(how)
                raise KeyboardInterrupt
        return old
    if lands == "in_the_reaping":
        monkeypatch.setattr(os, "waitpid", interrupted)
    else:
        monkeypatch.setattr(signal, "pthread_sigmask", blocked_then_interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            _fill(g, skip)
        assert len(raised) == len(forks) == 1
        with pytest.raises(ChildProcessError):
            waitpid(-1, os.WNOHANG)
        assert signal.SIGINT not in sigmask(signal.SIG_BLOCK, [])
    finally:
        for pid in forks:  # so that a failing run leaves nothing behind
            try:
                os.kill(pid, signal.SIGKILL)
                waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def test_tables_below_and_from_the_mapping_floor():
    # under _MAPPED bytes a table is an array, from there an anonymous
    # mapping filled by doubling, the last copy cut short when the byte
    # count is no power of two; either way a view in the lane code
    for code in "BHIQ":
        width = array(code).itemsize
        fill = (1 << 8 * width - 1) - 1
        for size in (1, solvers._MAPPED // width - 1, solvers._MAPPED // width,
                     3 * solvers._MAPPED // width + 5):
            t = solvers._table(code, size, fill)
            assert (t.format, len(t)) == (code, size)
            assert isinstance(t.obj, mmap.mmap) == (size * width >= solvers._MAPPED)
            assert t.tolist() == [fill] * size


def test_lanes_keep_the_top_bit_and_a_sentinel_free():
    bounds = (0, 126, 127, 32766, 32767, 2 ** 31 - 2, 2 ** 31 - 1)
    assert [_lanes(b) for b in bounds] == ["B", "B", "H", "H", "I", "I", "Q"]


def test_cut_table_is_complement_symmetric_on_odd_state_counts():
    # K2 has 3 states, K4 5 and C4 (false twins 1, 3 and 2, 4) 9: the
    # middle state is its own complement
    for g, size in ((complete_graph(2), 3), (complete_graph(4), 5), (cycle_graph(4), 9)):
        st = _states(g, _twin_classes(g))
        cut = _cut_table(g, st)
        assert st.size == len(cut) == size
        assert all(cut[t] == cut[size - 1 - t] for t in range(size))
        for t in range(1 << g.n):
            assert cut[sum(st.stride[v - 1] for v in vertices_of(t))] == cut_of(g, t)


def test_cut_table_needs_little_beyond_itself():
    # the twin-free circulant C18(1, 3): 2^18 states in 8-bit lanes, filled
    # a chunk of 2^13 lanes at a time
    g = Graph(18, tuple((v, (v + s - 1) % 18 + 1) for v in range(1, 19) for s in (1, 3)))
    st = _states(g, _twin_classes(g))
    assert st.size == 1 << 18
    tracemalloc.start()
    try:
        cut = _cut_table(g, st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table itself is mapped, outside the traced heap: what is traced
    # is the fill's temporaries
    assert cut.itemsize == 1
    assert peak < 0.25 * len(cut), peak


def test_complete_graph_in_wide_lanes():
    # beta of K_n is the sum of k (n - k) over k, (n^3 - n) / 6; K300 has
    # m = 44850, so its cut and prefix tables take 32-bit lanes
    g = complete_graph(300)
    st = _states(g, _twin_classes(g))
    assert _cut_table(g, st).format == "I"
    res = exact_arrangement(g, "beta")
    assert res.value == (300 ** 3 - 300) // 6 == 4499950
    assert res.stats["states"] == 301


def test_state_counts():
    q3, k8, s7 = (parse_graph((FIXTURES / f"{name}.g").read_text())
                  for name in ("q3", "k8", "s7"))
    aux = build_auxiliary(q3, 1).combined
    for g, states in ((k8, 9), (s7, 16), (aux, 2 ** 8 * 25), (q3, 2 ** 8),
                      (path_graph(5), 2 ** 5)):
        for solve in (exact_arrangement, exact_linear_reassembling):
            assert solve(g, "beta").stats["states"] == states
    # anchored, the anchor has no digit: P8 and q3 fill 2^7 states, S7
    # anchored at a leaf keeps a class of 6 leaves, K8 a class of 7
    for g, w, states in ((path_graph(8), 1, 2 ** 7), (s7, 2, 14), (k8, 1, 8),
                         (q3, 1, 2 ** 7), (aux, 2, 2 ** 7 * 25)):
        for solve in (exact_arrangement, exact_linear_reassembling):
            assert solve(g, "beta", anchor=w).stats["states"] == states


def test_dp_limit_counts_states(monkeypatch):
    # 32 vertices in 6400 states solve under the default limit of 2^24
    aux = build_auxiliary(qcube3_graph(), 1).combined
    res = exact_arrangement(aux, "beta")
    assert evaluate_arrangement(aux, res.witness).beta == res.value
    # 25 twin-free vertices need 2^25 states: refused before any table
    with pytest.raises(LimitError, match="limit is 2\\^24"):
        exact_arrangement(path_graph(25), "beta")

    # anchored, they need 2^24: admitted, the solve goes on to its cut table
    class Admitted(Exception):
        pass

    def admitted(g, st):
        raise Admitted(st.size)

    with monkeypatch.context() as m:
        m.setattr(solvers, "_cut_table", admitted)
        with pytest.raises(Admitted, match=f"^{2 ** 24}$"):
            exact_arrangement(path_graph(25), "beta", anchor=1)
    # a refusal names the count of the table it would fill
    monkeypatch.setenv("REASM_DP_LIMIT", "7")
    with pytest.raises(LimitError, match=r"^instance has 8 vertices and 2\^8\.0 states, "
                                         r"limit is 2\^7$"):
        exact_arrangement(path_graph(8), "beta")
    monkeypatch.setenv("REASM_DP_LIMIT", "4")
    assert exact_linear_reassembling(star_graph(7), "beta").stats["states"] == 16
    with pytest.raises(LimitError):
        exact_linear_reassembling(star_graph(8), "beta")
    # limits far outside the useful range are compared, never expanded
    monkeypatch.setenv("REASM_DP_LIMIT", "-1")
    with pytest.raises(LimitError):
        exact_arrangement(path_graph(1), "beta")
    monkeypatch.setenv("REASM_DP_LIMIT", str(10 ** 18))
    assert exact_arrangement(path_graph(5), "beta").value == 4


def test_hand_checked_optima():
    assert exact_arrangement(path_graph(3), "beta").value == 2
    assert exact_arrangement(path_graph(3), "beta").witness == Arrangement((1, 2, 3))
    assert exact_arrangement(complete_graph(3), "beta").value == 4
    assert exact_arrangement(path_graph(2), "alpha").value == 1
    assert exact_arrangement(star_graph(7), "beta").value == 16
    assert exact_arrangement(star_graph(7), "alpha").value == 4
    assert exact_linear_reassembling(star_graph(7), "beta").value == 29
    assert exact_linear_reassembling(qcube3_graph(), "alpha").value == 5
    assert exact_linear_reassembling(qcube3_graph(), "beta").value == 49


def test_single_vertex():
    g = Graph(1, ())
    assert exact_arrangement(g, "beta").value == 0
    assert exact_linear_reassembling(g, "alpha").value == 0


def test_witnesses_reevaluate_to_the_value():
    for g in (path_graph(5), cycle_graph(6), star_graph(4), qcube3_graph()):
        for objective in ("alpha", "beta"):
            arr = exact_arrangement(g, objective)
            rep = evaluate_arrangement(g, arr.witness)
            assert getattr(rep, objective) == arr.value
            lin = exact_linear_reassembling(g, objective)
            assert lin.witness.is_linear()
            assert getattr(measures(g, lin.witness), objective) == lin.value
            bin_ = exact_binary_reassembling(g, objective)
            assert getattr(measures(g, bin_.witness), objective) == bin_.value


def test_linear_witness_is_least_anchored_order():
    # reference: the least (tree value, order) over all orders whose second
    # vertex has degree >= the first's, with beta(tree) = beta(order) + 2m -
    # deg(first) and alpha(tree) = max(max degree, alpha(order)); a single
    # vertex has only its one-leaf tree, with value 0 and no anchor
    for g in connected_atlas(6):
        deg = [0] + [g.degree(v) for v in g.vertices]
        scored = []
        for order in itertools.permutations(g.vertices):
            if len(order) > 1 and deg[order[1]] < deg[order[0]]:
                continue
            cuts, prefix, cut = [], 0, 0
            for v in order:
                cut += deg[v] - 2 * bin(g.adj[v - 1] & prefix).count("1")
                prefix |= 1 << (v - 1)
                cuts.append(cut)
            scored.append((order, max(cuts), sum(cuts)))
        for objective in ("alpha", "beta"):
            for anchor in (None, *g.vertices):
                expected = min(
                    ((max(g.max_degree(), alpha) if objective == "alpha"
                      else beta + 2 * g.m - deg[order[0]], order)
                     for order, alpha, beta in scored
                     if anchor is None or (len(order) > 1 and order[0] == anchor)),
                    default=None)
                if expected is None:
                    with pytest.raises(ValidationError, match="infeasible"):
                        exact_linear_reassembling(g, objective, anchor=anchor)
                    continue
                value, order = expected
                res = exact_linear_reassembling(g, objective, anchor=anchor)
                assert res.value == value
                assert res.anchor == (order[0] if g.n > 1 else None)
                assert res.witness == induce_reassembling(g, Arrangement(order))


def _prefix_cuts(g: Graph, order) -> list:
    cuts, prefix = [], 0
    for v in order:
        prefix |= 1 << (v - 1)
        cuts.append(cut_of(g, prefix))
    return cuts


def test_linear_alpha_matches_brute_force(atlas6):
    # the value and anchor are the least (max(max degree, brute force's
    # anchored cutwidth), w); the tree comes from the first order anchored
    # at w, in permutation order, whose prefix cuts all stay within the
    # value: the value can exceed the anchored cutwidth, so that order need
    # not be brute force's witness
    for g in atlas6:
        deg = [g.degree(v) for v in g.vertices]
        anchors = [w for w in g.vertices
                   if any(v != w and deg[v - 1] >= deg[w - 1] for v in g.vertices)]
        res = exact_linear_reassembling(g, "alpha")
        if not anchors:
            assert (res.value, res.anchor) == (0, None)
            continue
        value, w = min((max(g.max_degree(), brute_force_arrangement(g, "alpha", anchor=w).value),
                        w) for w in anchors)
        order = next((w,) + rest for rest in itertools.permutations(
            [v for v in g.vertices if v != w])
            if deg[rest[0] - 1] >= deg[w - 1] and max(_prefix_cuts(g, (w,) + rest)) <= value)
        assert (res.value, res.anchor) == (value, w), g
        assert res.witness == induce_reassembling(g, Arrangement(order)), g


def test_free_alpha_is_the_prefix_cost_of_v():
    graphs = [g for g in connected_atlas(7) if g.n == 7]
    assert len(graphs) == 853
    for g in graphs:
        res = exact_arrangement(g, "alpha")
        assert res.value == prefix_costs(g, "alpha")[-1], g
        assert max(_prefix_cuts(g, res.witness.order)) == res.value


def test_heavy_twin_alpha_pins():
    # values and witnesses of the subset DP that the search replaced; K_n
    # stores its n + 1 prefix sets, one per count of its single class
    k555 = _complete_multipartite(5, 5, 5)
    pins = [
        (complete_graph(40), 400, " ".join(map(str, range(1, 41))), 400, 1,
         range(1, 41)),
        (star_graph(30), 15, " ".join(map(str, [*range(2, 17), 1, *range(17, 32)])), 30, 2,
         range(1, 32)),
        (k555, 38, "1 2 3 6 7 11 12 8 4 5 9 10 13 14 15", 38, 1,
         (1, 2, 3, 6, 7, 11, 12, 8, 4, 5, 9, 10, 13, 14, 15)),
    ]
    for g, value, witness, lin_value, lin_anchor, lin_order in pins:
        res = exact_arrangement(g, "alpha")
        assert (res.value, " ".join(map(str, res.witness.order))) == (value, witness)
        lin = exact_linear_reassembling(g, "alpha")
        assert (lin.value, lin.anchor) == (lin_value, lin_anchor)
        assert lin.witness == induce_reassembling(g, Arrangement(tuple(lin_order)))
    assert exact_arrangement(complete_graph(40), "alpha").stats["states"] <= 41


def test_alpha_search_stores_few_sets_on_ring_trees():
    # a prefix set with cut <= 2 is a union of components of G - C for a
    # cut C of at most two edges, so a chain of r five-rings (cutwidth 2)
    # admits O(m^2) of them, where the subset DP had 2^n states.  A linear
    # tree's value is max(3, 2) = 3, which its search settles at the
    # cutwidth; only the witness walk runs at 3
    for r in range(5, 41):
        g = ring_tree_graph((5,) * r)
        res = exact_arrangement(g, "alpha")
        assert res.value == 2
        assert max(_prefix_cuts(g, res.witness.order)) == 2
        assert res.stats["states"] <= g.m ** 2, (r, res.stats["states"])
        lin = exact_linear_reassembling(g, "alpha")
        assert (lin.value, lin.anchor) == (3, 1)
        assert lin.stats["states"] <= 2 * g.m, (r, lin.stats["states"])


def test_anchored_witness_structure():
    g = cycle_graph(5)
    res = exact_arrangement(g, "beta", anchor=3)
    assert res.anchor == 3
    assert res.witness.order[0] == 3
    assert g.degree(res.witness.order[1]) >= g.degree(3)


def test_star_center_anchor_is_infeasible():
    s7 = star_graph(7)
    with pytest.raises(ValidationError, match="infeasible"):
        exact_arrangement(s7, "beta", anchor=1)
    with pytest.raises(ValidationError, match="infeasible"):
        exact_linear_reassembling(s7, "beta", anchor=1)
    # any leaf anchor works and 2 is the overall winner
    assert exact_linear_reassembling(s7, "beta").anchor == 2


def test_brute_force_refuses_an_infeasible_anchor_before_it_enumerates(monkeypatch):
    # S9's centre has no second vertex of its degree, so no order is feasible
    def no_enumeration(*args):
        raise AssertionError("orders enumerated")

    monkeypatch.setattr(itertools, "permutations", no_enumeration)
    with pytest.raises(ValidationError, match="^anchor 1 infeasible"):
        brute_force_arrangement(star_graph(8), "beta", anchor=1)


def test_alpha_witness_walk_counts_its_dead_sets(monkeypatch):
    # REASM_DP_LIMIT = 9 allows 2^4 stored sets at 2^5 states each.  Free,
    # the search stores 2^4 sets and the walk's one dead set is one of them,
    # so the solve fits; the linear walk runs at max degree 3, above the
    # cutwidth 2, and its dead set is a 17th
    g = Graph(8, ((1, 2), (1, 6), (1, 8), (2, 3), (3, 4), (3, 7), (4, 5)))
    monkeypatch.setenv("REASM_DP_LIMIT", "10")
    assert exact_arrangement(g, "alpha").stats["states"] == 16
    assert exact_linear_reassembling(g, "alpha").stats["states"] == 17
    monkeypatch.setenv("REASM_DP_LIMIT", "9")
    assert exact_arrangement(g, "alpha").stats["states"] == 16
    with pytest.raises(LimitError, match=r"2\^9\.1 states \(2\^5 per set\), limit is 2\^9$"):
        exact_linear_reassembling(g, "alpha")


def test_linear_optimum_never_beats_binary_optimum():
    for g in (star_graph(5), qcube3_graph(), cycle_graph(6)):
        for objective in ("alpha", "beta"):
            lin = exact_linear_reassembling(g, objective)
            bin_ = exact_binary_reassembling(g, objective)
            assert bin_.value <= lin.value


def test_brute_binary_on_a_triangle():
    res = exact_binary_reassembling(complete_graph(3), "beta")
    # all three trees are isomorphic: 2 + 2 + 2 singletons, one pair cut 2
    assert res.value == 8
    assert res.stats["states"] == 2 ** 3


def test_binary_dp_matches_tree_enumeration():
    for g in connected_atlas(6):
        cut = {}
        for objective in ("alpha", "beta"):
            expected = None
            for tree in binary_tree_masks(g.n):
                cuts = []
                for m in tree:
                    if m not in cut:
                        cut[m] = cut_of(g, m)
                    cuts.append(cut[m])
                value = max(cuts) if objective == "alpha" else sum(cuts)
                if expected is None or value < expected:
                    expected = value
            res = exact_binary_reassembling(g, objective)
            assert res.value == expected
            assert len(res.witness.clusters) == 2 * g.n - 1
            assert getattr(measures(g, res.witness), objective) == res.value


def test_binary_witness_pins():
    # the first optimal tree in split order (the part holding the lowest
    # vertex is tried smallest first); an alpha child only has to fit its
    # parent's budget, it need not be optimal itself
    q3, k8, s7 = (parse_graph((FIXTURES / f"{name}.g").read_text())
                  for name in ("q3", "k8", "s7"))
    cube = "(1 (2 ((3 4) ((5 6) (7 8)))))"
    pins = [
        (q3, "alpha", 4, cube), (q3, "beta", 47, cube), (k8, "beta", 127, cube),
        (s7, "beta", 28, "(((1 ((2 3) (4 5))) (6 7)) 8)"),
        (Graph(5, ((1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5))), "alpha", 4,
         "(1 (2 (3 (4 5))))"),
    ]
    for g, objective, value, text in pins:
        res = exact_binary_reassembling(g, objective)
        assert (res.value, print_tree(res.witness)) == (value, text)


ENGINES = {"dp": (exact_arrangement, "states"),
           "alpha": (lambda g, objective, anchor: exact_arrangement(g, "alpha", anchor),
                     "states (2^5 per set)"),
           "binary": (lambda g, objective, anchor: exact_binary_reassembling(g, objective),
                      "splits"),
           "brute": (brute_force_arrangement, "orders")}


@pytest.mark.parametrize("engine, limit, admitted, refused", [
    # P7 has 2^7 states and P8 2^8; P25 needs 2^25
    ("dp", 7, [(path_graph(7), None, 6)], [(path_graph(8), None)]),
    ("dp", None, [], [(path_graph(25), None)]),
    # anchored, P8 fills 2^7 states
    ("dp", 7, [(path_graph(8), 1, 7)], [(path_graph(8), None)]),
    # the alpha search charges 2^5 states per stored set: K_n stores its
    # n + 1 prefix sets, so K_31 fits 2^10 and K_32's 33rd set is refused;
    # at 2^4 not even the start set of P5 is stored
    ("alpha", 10, [(complete_graph(31), None, 240)], [(complete_graph(32), None)]),
    ("alpha", 4, [], [(path_graph(5), None)]),
    # P5 takes 90 splits and P6 301; P9 takes 2^13.2, P15 2^22.8, P16 2^24.4
    ("binary", 7, [(path_graph(5), None, 11)], [(path_graph(6), None)]),
    ("binary", None, [(path_graph(9), None, 23)], [(path_graph(16), None)]),
    # P5 takes 5! = 120 orders and P6 6! = 720; anchored, P6 takes 5! = 120
    ("brute", 7, [(path_graph(5), None, 4), (path_graph(6), 1, 5)], [(path_graph(6), None)]),
], ids=["states-7", "states-default", "anchored-7", "alpha-10", "alpha-4", "splits-7", "splits-default",
        "orders-7"])
def test_limits(monkeypatch, engine, limit, admitted, refused):
    # one limit, 2^REASM_DP_LIMIT (None: the default), on what each engine
    # enumerates
    solve, unit = ENGINES[engine]
    monkeypatch.delenv("REASM_DP_LIMIT", raising=False)
    if limit is not None:
        monkeypatch.setenv("REASM_DP_LIMIT", str(limit))
    for g, anchor, value in admitted:
        assert solve(g, "beta", anchor=anchor).value == value
    monkeypatch.setattr("reasm.solvers._cut_table", None)  # must not be called
    for g, anchor in refused:
        with pytest.raises(LimitError, match=rf"^instance has {g.n} vertices and "
                                             rf"2\^[0-9.]+ {re.escape(unit)}, "
                                             rf"limit is 2\^{limit or 24}$"):
            solve(g, "beta", anchor=anchor)


def test_binary_dp_on_fifteen_twin_free_vertices():
    # the largest binary instance under the default limit: 2^22.8 splits.
    # Each of the 28 non-root clusters of a cycle has boundary >= 2, so
    # C15's beta is at least 56, and its optimum attains that
    for g, value in ((random_connected(random.Random(2), 15), 146), (cycle_graph(15), 56)):
        assert _twin_classes(g) == []
        res = exact_binary_reassembling(g, "beta")
        assert measures(g, res.witness).beta == res.value == value
        assert res.value <= exact_linear_reassembling(g, "beta").value


def test_dp_limit_env_override(monkeypatch):
    monkeypatch.setenv("REASM_DP_LIMIT", "4")
    assert dp_limit() == 4
    with pytest.raises(LimitError):
        exact_arrangement(path_graph(5), "beta")
    monkeypatch.setenv("REASM_DP_LIMIT", "nope")
    with pytest.raises(ValidationError):
        exact_arrangement(path_graph(5), "beta")


def test_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        exact_arrangement(path_graph(4), "gamma")
    with pytest.raises(ValidationError):
        exact_arrangement(Graph(3, ((1, 2),)), "beta")  # disconnected
    with pytest.raises(ValidationError):
        exact_arrangement(path_graph(4), "beta", anchor=9)


def test_millis_count_from_the_solver_entry(monkeypatch):
    # a clock that only the precondition check moves, by 1 s: every engine
    # reports that second, so each starts its clock before its checks
    now = [0.0]
    check = solvers._check_solvable

    def slow_check(*args):
        now[0] += 1.0
        check(*args)

    monkeypatch.setattr(solvers.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(solvers, "_check_solvable", slow_check)
    g = cycle_graph(5)
    for solve in (exact_arrangement, exact_linear_reassembling, exact_binary_reassembling,
                  brute_force_arrangement):
        for objective in ("alpha", "beta"):
            assert solve(g, objective).stats["millis"] >= 1000, (solve, objective)


def test_result_json_shape():
    res = exact_arrangement(path_graph(3), "beta")
    out = res.to_json()
    assert out["objective"] == "beta" and out["mode"] == "arrangement"
    assert out["value"] == 2 and out["witness"] == "1 2 3"
    assert out["anchor"] is None
    assert set(out["stats"]) == {"states", "millis"}
    # every solver's mode, and its anchor: the given one, a linear tree's
    # first vertex, none for a binary tree
    g = path_graph(3)
    outs = [r.to_json() for r in (
        exact_arrangement(g, "alpha", anchor=1), exact_linear_reassembling(g, "beta"),
        exact_binary_reassembling(g, "alpha"), brute_force_arrangement(g, "beta", anchor=3))]
    assert [(out["mode"], out["anchor"]) for out in outs] == [
        ("arrangement", 1), ("linear_reassembling", 1), ("binary_reassembling", None),
        ("arrangement", 3)]
