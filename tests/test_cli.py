import dataclasses
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reasm
import reasm.__main__
from reasm import graph, layout, reduction, sequential, solvers, tree, verify
from reasm.graph import (MAX_EDGES, MAX_VERTICES, cycle_graph, format_graph, parse_graph,
                         path_graph, star_graph)
from reasm.sequential import format_ordering

from conftest import FIXTURES, caterpillar_text


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def test_eval_tree(run_cli):
    code, out, _ = run_cli("eval", "--graph", FIXTURES / "q3.g",
                           "--tree", FIXTURES / "b1.t")
    assert code == 0
    data = json.loads(out)
    assert (data["alpha"], data["beta"], data["linear"]) == (4, 48, False)


def test_tree_file_takes_comments(run_cli, workdir):
    t = write(workdir / "c.t", "# a comment line\n((((1 2) # split here\n (3 4)) (5 6)) (7 8))\n")
    code, out, err = run_cli("eval", "--graph", FIXTURES / "q3.g", "--tree", t)
    assert (code, err) == (0, "")
    assert (json.loads(out)["alpha"], json.loads(out)["beta"]) == (4, 48)


def test_deep_caterpillar_commands(run_cli, workdir):
    # trees nested deeper than Python's default recursion limit
    n = 1100
    g = write(workdir / "p.g", format_graph(path_graph(n)))
    t = write(workdir / "cat.t", caterpillar_text(n) + "\n")
    code, out, _ = run_cli("eval", "--graph", g, "--tree", t)
    assert code == 0
    data = json.loads(out)
    assert (data["alpha"], data["linear"]) == (2, True)
    arr = write(workdir / "p.a", " ".join(map(str, range(1, n + 1))) + "\n")
    code, out, _ = run_cli("convert", "--graph", g, "--arrangement", arr, "--to", "tree")
    assert code == 0 and json.loads(out)["text"].strip() == caterpillar_text(n)
    code, _, _ = run_cli("convert", "--graph", g, "--tree", t, "--to", "ordering")
    assert code == 0


def test_eval_arrangement(run_cli):
    code, out, _ = run_cli("eval", "--graph", FIXTURES / "s7.g",
                           "--arrangement", FIXTURES / "phi5.a", "--pretty")
    assert code == 0
    data = json.loads(out)
    assert (data["alpha"], data["beta"], data["gamma"]) == (4, 16, 16)
    assert "\n" in out.strip()  # indented


def test_eval_ordering(run_cli, workdir):
    g = write(workdir / "p3.g", format_graph(path_graph(3)))
    pi = write(workdir / "pi.o", "1 2\n2 3\n")
    code, out, _ = run_cli("eval", "--graph", g, "--ordering", pi)
    assert code == 0
    data = json.loads(out)
    assert data["tree"] == "((1 2) 3)"
    assert data["measures"]["beta"] == 5
    assert data["steps"][0]["merged"] == [[1], [2]]


def test_eval_requires_exactly_one_object(run_cli):
    code, _, err = run_cli("eval", "--graph", FIXTURES / "q3.g")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli("eval", "--graph", FIXTURES / "q3.g",
                           "--tree", FIXTURES / "b1.t",
                           "--arrangement", FIXTURES / "phi5.a")
    assert code == 2 and "exactly one" in err


def test_eval_wrong_ground_set(run_cli, workdir):
    g = write(workdir / "p3.g", format_graph(path_graph(3)))
    code, _, err = run_cli("eval", "--graph", g, "--tree", FIXTURES / "b1.t")
    assert code == 2 and "ground set" in err


def test_missing_file(run_cli):
    code, _, err = run_cli("eval", "--graph", "no-such.g",
                           "--tree", FIXTURES / "b1.t")
    assert code == 2 and "cannot read" in err


def test_undecodable_file(run_cli, workdir):
    g = workdir / "bad.g"
    g.write_bytes(b"\xff\xfe")
    code, _, err = run_cli("eval", "--graph", g, "--tree", FIXTURES / "b1.t")
    assert code == 2 and err.startswith("error:")


def test_negative_header_exits_2(run_cli, workdir):
    g = write(workdir / "neg.g", "3 -1\n")
    a = write(workdir / "a.txt", "1 2\n")
    code, out, err = run_cli("eval", "--graph", g, "--arrangement", a)
    assert (code, out) == (2, "")
    assert err == "error: line 1: header declares a negative size, got '3 -1'\n"


def test_unwritable_outputs(run_cli, workdir):
    code, _, err = run_cli("solve", FIXTURES / "s7.g", "--objective", "beta",
                           "--witness-out", workdir)
    assert code == 2 and "cannot write" in err
    missing = workdir / "no-such-dir" / "x"
    code, _, err = run_cli("gen", "--family", "cycle", "--size", "4", "--out", missing)
    assert code == 2 and "cannot write" in err
    code, _, err = run_cli("convert", "--graph", FIXTURES / "s7.g",
                           "--arrangement", FIXTURES / "phi5.a", "--to", "tree",
                           "--out", missing)
    assert code == 2 and "cannot write" in err


def test_solve_writes_witness(run_cli, workdir):
    g = write(workdir / "s7.g", format_graph(star_graph(7)))
    code, out, _ = run_cli("solve", g, "--objective", "beta", "--mode", "linear")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 29 and data["engine"] == "dp"
    witness = Path(data["witness_file"])
    assert witness.name == "s7.linear.beta.witness"
    assert witness.read_text().strip() == data["witness"]


def test_witness_out_is_checked_before_solving(run_cli, workdir, monkeypatch):
    def solver_must_not_run(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr("reasm.cli.exact_arrangement", solver_must_not_run)
    s7 = FIXTURES / "s7.g"
    default = workdir / "s7.arrangement.beta.witness"
    default.mkdir()  # the default path is taken by a directory
    for extra in (("--witness-out", workdir), ("--witness-out", workdir / "missing" / "w"),
                  ()):
        code, _, err = run_cli("solve", s7, "--objective", "beta", *extra)
        assert code == 2 and err.startswith("error: cannot write"), err
    assert not (workdir / "missing").exists()


def test_refused_solve_leaves_the_witness_file(run_cli, workdir, monkeypatch):
    witness = write(workdir / "w", "old\n")
    code, _, _ = run_cli("solve", FIXTURES / "s7.g", "--objective", "beta",
                         "--anchor", "9", "--witness-out", witness)
    assert code == 2
    monkeypatch.setenv("REASM_DP_LIMIT", "3")  # S7 has 2 * 8 states
    code, _, _ = run_cli("solve", FIXTURES / "s7.g", "--objective", "beta",
                         "--witness-out", witness)
    assert code == 3
    assert Path(witness).read_text() == "old\n"


def test_solve_engines_agree(run_cli, workdir):
    g = write(workdir / "p5.g", format_graph(path_graph(5)))
    _, out_dp, _ = run_cli("solve", g, "--objective", "alpha")
    _, out_bf, _ = run_cli("solve", g, "--objective", "alpha",
                           "--engine", "brute", "--witness-out", "w.txt")
    dp, bf = json.loads(out_dp), json.loads(out_bf)
    assert dp["value"] == bf["value"] and dp["witness"] == bf["witness"]
    assert Path("w.txt").exists()


def test_solve_binary(run_cli, workdir):
    g = write(workdir / "s5.g", format_graph(star_graph(5)))
    code, out, _ = run_cli("solve", g, "--objective", "beta", "--mode", "binary")
    assert code == 0
    assert json.loads(out)["engine"] == "dp"


@pytest.mark.parametrize("extra", [
    ("--mode", "binary", "--engine", "brute"),
    ("--mode", "linear", "--engine", "brute"),
    ("--mode", "binary", "--anchor", "1"),
    ("--anchor", "1"),  # star center is infeasible
])
def test_solve_rejects(run_cli, workdir, extra):
    g = write(workdir / "s5.g", format_graph(star_graph(5)))
    code, _, err = run_cli("solve", g, "--objective", "beta", *extra)
    assert code == 2 and err.startswith("error:")


# S7's centre 1 has no second vertex of degree >= 7, so it is no anchor for
# either engine: (graph, flags, (value, anchor) or the exit code)
BETA_SOLVES = [
    ("s7", (), (16, None)),
    ("s7", ("--anchor", "2"), (16, 2)),
    ("s7", ("--mode", "linear"), (29, 2)),
    ("q3", ("--mode", "linear"), (49, 1)),
    ("k8", ("--mode", "linear"), (133, 1)),
    ("s7", ("--engine", "brute"), (16, None)),
    ("s7", ("--anchor", "1"), 2),
    ("s7", ("--anchor", "1", "--engine", "brute"), 2),
]


@pytest.mark.parametrize("name, flags, want", BETA_SOLVES,
                         ids=["-".join([name] + [f.lstrip("-") for f in flags])
                              for name, flags, _ in BETA_SOLVES])
def test_beta_solves_in_every_arrangement_mode(run_cli, workdir, name, flags, want):
    code, out, err = run_cli("solve", FIXTURES / f"{name}.g", "--objective", "beta",
                             "--witness-out", "beta.w", *flags)
    if want == 2:
        assert (code, out) == (2, "") and "infeasible" in err, err
    else:
        r = json.loads(out)
        assert (code, r["value"], r["anchor"]) == (0, *want)


def test_solve_hits_resource_limit(run_cli, workdir, monkeypatch):
    monkeypatch.setenv("REASM_DP_LIMIT", "4")
    g = write(workdir / "p5.g", format_graph(path_graph(5)))
    code, _, err = run_cli("solve", g, "--objective", "beta")
    assert code == 3 and "limit" in err
    # the alpha search charges 2^5 states per stored set, so it refuses its
    # start set, and names the limit the user set
    code, _, err = run_cli("solve", g, "--objective", "alpha")
    assert code == 3 and err.rstrip().endswith(
        "2^5.0 states (2^5 per set), limit is 2^4"), err


def test_eval_reports_beta_unequal_gamma(run_cli, workdir, monkeypatch):
    # beta (the prefix cuts) and gamma (the edge lengths) are independent
    # routes, so a wrong cut is a failed identity, exit 4
    scan = graph.Graph._prefix_cuts
    monkeypatch.setattr(graph.Graph, "_prefix_cuts",
                        lambda g, order: [c + 1 for c in scan(g, order)])
    arr = write(workdir / "a.txt", "1 2 3\n")
    code, _, err = run_cli("eval", "--graph", write(workdir / "p3.g", format_graph(path_graph(3))),
                           "--arrangement", arr)
    assert code == 4 and "beta 5 != gamma 2 on arrangement (1, 2, 3)" in err, err


@pytest.mark.parametrize("n", [10 ** 9, 10 ** 8])
def test_huge_graph_header_is_refused(workdir, n):
    # refused from the header, before anything of size n is allocated
    g = write(workdir / "huge.g", f"{n} 1\n1 2\n")
    arr = write(workdir / "a.a", "1 2\n")
    for argv in (("solve", g, "--objective", "beta"),
                 ("reduce", g, "--problem", "beta"),
                 ("eval", "--graph", g, "--arrangement", arr)):
        _assert_refused_under_memory_cap(argv, MAX_VERTICES)


def test_huge_edge_count_is_refused(workdir):
    g = write(workdir / "dense.g", f"10 {10 ** 12}\n1 2\n")
    _assert_refused_under_memory_cap(("solve", g, "--objective", "beta"), MAX_EDGES)


@pytest.mark.parametrize("argv, limit", [
    (("--family", "complete", "--size", "30000"), MAX_VERTICES),
    (("--family", "complete", "--size", "5000"), MAX_EDGES),
    (("--family", "path", "--size", "100000000"), MAX_VERTICES),
    (("--family", "ring_tree", "--ring-sizes", "3,100000000"), MAX_VERTICES),
    (("--family", "ring_tree", "--ring-sizes", "3,3", "--path-len", "100000000"),
     MAX_VERTICES),
])
def test_huge_generated_graph_is_refused(workdir, argv, limit):
    # refused from the family's parameters, before the graph is built
    _assert_refused_under_memory_cap(("gen", *argv), limit)


def test_huge_reduction_is_refused_before_building(workdir):
    # the auxiliary graphs of a 3000-vertex path hold 5999-vertex cliques: their
    # states are counted from the base graph, and nothing is built
    g = write(workdir / "p3000.g", format_graph(path_graph(3000)))
    _assert_refused_under_memory_cap(("reduce", g, "--problem", "beta"), "2^24")


# runs `reasm.cli.main` on its arguments and prints the exit code and peak RSS in KB
PEAK_AFTER_MAIN = """import sys
from reasm.cli import main
code = main(sys.argv[1:])
print(code, next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM")))
"""


def _peak_after_main(*argv) -> tuple:
    """(exit code, peak RSS in KB, stdout before them, stderr) of `reasm.cli.main`
    on argv in a child process."""
    proc = subprocess.run([sys.executable, "-c", PEAK_AFTER_MAIN, *argv],
                          capture_output=True, text=True, env=_module_env())
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    exit_code, peak_kb = map(int, last.split())
    return exit_code, peak_kb, out, proc.stderr


@pytest.mark.parametrize("flag", ["--arrangement", "--ordering", "--graph", "--tree"])
def test_oversized_object_file_is_refused(workdir, flag):
    # ids and edge lines are read up to the first past the cap, before any of
    # them becomes an int, a graph file's surplus edge lines are counted, not
    # stored, and a tree is read a token at a time, up to the first at fault
    # (a surplus '(' or a token after the root); so each refusal peaks under
    # 40 MB RSS (an idle `reasm` takes about 21 MB; a parser that split the
    # whole file first would take about 190 MB, or 140 MB for the tree file
    # with trailing input).  The peak is the child's VmHWM, which starts
    # afresh at exec.
    cases = {
        "--arrangement": [("10 " * 2_000_000, 3, f"limit is {MAX_VERTICES}")],
        "--ordering": [("1 2\n" * (MAX_EDGES + 1), 3, f"limit is {MAX_EDGES}")],
        "--graph": [("2 1\n" + "1 2\n" * MAX_EDGES, 2, f"file has {MAX_EDGES} edge lines")],
        "--tree": [("(" * 2_000_000, 3, f"limit is {MAX_VERTICES - 1}"),
                   ("(1 2) " + "123 " * 1_500_000, 2, "trailing input")],
    }[flag]
    for text, code, message in cases:
        big = write(workdir / "big.txt", text)
        if flag == "--graph":
            argv = ("--graph", big, "--arrangement", write(workdir / "a.txt", "1 2\n"))
        else:
            argv = ("--graph", write(workdir / "p2.g", format_graph(path_graph(2))), flag, big)
        exit_code, peak_kb, _, err = _peak_after_main("eval", *argv)
        assert exit_code == code and err.startswith("error:") and message in err, err
        assert peak_kb < 40 << 10, peak_kb


def test_dp_tables_are_compact(workdir):
    # the circulant C20(1, 3) is twin-free, so its prefix DP has 2^20
    # states; the cut table takes one byte a state and the beta prefix table
    # two, so the solve peaks under 8 MB RSS above a solve of P4 (lists of
    # ints would add 8 bytes a state per table, 16 MB).  Both peaks are the
    # child's VmHWM, which starts afresh at exec.
    n = 20
    g = graph.Graph(n, tuple(sorted({tuple(sorted((v, (v + d - 1) % n + 1)))
                                     for v in range(1, n + 1) for d in (1, 3)})))
    assert g.m == 40 and g.is_connected() and solvers._twin_classes(g) == []
    peaks = []
    for name, h in (("p4", path_graph(4)), ("c20", g)):
        exit_code, peak_kb, out, _ = _peak_after_main(
            "solve", write(workdir / f"{name}.g", format_graph(h)), "--objective", "beta",
            "--witness-out", str(workdir / f"{name}.w"))
        assert exit_code == 0 and json.loads(out)["stats"]["states"] == 1 << h.n
        peaks.append(peak_kb)
    assert json.loads(out)["value"] == 140
    assert peaks[1] - peaks[0] < 8 << 10, peaks


# solves the graph file argv[1] free, anchored at 1 and as a linear tree, and
# prints the three beta values and the process's peak RSS in KB
RING_TREE_SOLVES = """import sys
from reasm.graph import parse_graph
from reasm.solvers import exact_arrangement, exact_linear_reassembling
g = parse_graph(open(sys.argv[1]).read())
print(exact_arrangement(g, "beta").value, exact_arrangement(g, "beta", 1).value,
      exact_linear_reassembling(g, "beta").value,
      next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_beta_solves_of_a_twin_free_20_vertex_ring_tree(run_cli, workdir):
    # the chain of four 5-rings (n = 20, m = 23) has no twins, so each free
    # solve fills a 2^20-state prefix table through the grouped leaf kernels
    # and the pulls above them, and each anchored one a 2^19-state table
    # without the anchor; the free witness's cuts sum to its value.  One
    # child process runs the free, anchored and linear solves back to back,
    # at a peak of about 20 MB; 2^20-entry lists for the two tables alone
    # take about 40 MB, so tables that fell back to lists would go over the
    # cap of 40 MB.  The peak is the child's VmHWM, which starts afresh at
    # exec (its ru_maxrss would count the forking test process).  Tables left
    # resident from solve to solve are checked in test_solvers.py, at 0.5 MB
    code, _, _ = run_cli("gen", "--family", "ring_tree", "--ring-sizes", "5,5,5,5",
                         "--out", workdir / "rt20.g")
    assert code == 0
    proc = subprocess.run([sys.executable, "-c", RING_TREE_SOLVES, "rt20.g"],
                          capture_output=True, text=True, check=True, env=_module_env())
    *got, peak_kb = map(int, proc.stdout.split())
    assert got == [35, 35, 79] and peak_kb <= 40 << 10, proc.stdout
    for name, value, anchor, states, argv in (
            ("free", 35, None, 1 << 20, ()),
            ("anchored", 35, 1, 1 << 19, ("--anchor", "1")),
            ("linear", 79, 1, 1 << 20, ("--mode", "linear")),
            ("linear-anchored", 79, 1, 1 << 19, ("--mode", "linear", "--anchor", "1"))):
        code, out, _ = run_cli("solve", "rt20.g", "--objective", "beta",
                               "--witness-out", f"rt20-{name}.w", *argv)
        r = json.loads(out)
        assert (code, r["value"], r["anchor"], r["stats"]["states"]) == (
            0, value, anchor, states), name
    code, out, _ = run_cli("eval", "--graph", "rt20.g", "--arrangement", "rt20-free.w")
    assert code == 0 and json.loads(out)["beta"] == 35


def test_long_trace_keeps_only_its_merges(workdir):
    # a trace stores its n - 1 merges, not the n partitions of its chain
    # (about n^2 / 2 block masks, 50 million for this path), so the block
    # tree of a 10000-vertex path peaks well under 150 MB RSS
    n = 10_000
    g = path_graph(n)
    pi = write(workdir / "p.o", format_ordering(g.edges))
    exit_code, peak_kb, out, _ = _peak_after_main(
        "convert", "--graph", write(workdir / "p.g", format_graph(g)),
        "--ordering", pi, "--to", "tree")
    assert exit_code == 0 and json.loads(out)["text"].strip() == caterpillar_text(n)
    assert peak_kb < 150 << 10, peak_kb


def test_huge_tree_leaf_is_refused(workdir):
    # a leaf id is a bit position: refused before its mask is allocated
    g = write(workdir / "p2.g", format_graph(path_graph(2)))
    t = write(workdir / "huge.t", f"(1 {10 ** 11})\n")
    for argv in (("eval", "--graph", g, "--tree", t),
                 ("convert", "--graph", g, "--tree", t, "--to", "arrangement")):
        _assert_refused_under_memory_cap(argv, MAX_VERTICES)


def _assert_refused_under_memory_cap(argv, limit):
    # the child's address space is capped at 2 GB, so an allocation of the
    # refused size shows as a crash
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run([sys.executable, "-m", "reasm", *argv], capture_output=True,
                          text=True, env=_module_env(), preexec_fn=cap_memory)
    assert proc.returncode == 3, (argv, proc.stderr)
    assert proc.stderr.startswith("error:") and f"limit is {limit}" in proc.stderr


def test_too_few_edges_for_a_connected_graph(run_cli, workdir):
    g = write(workdir / "sparse.g", "5 1\n1 2\n")
    for argv in (("solve", g, "--objective", "beta"), ("reduce", g, "--problem", "alpha")):
        code, _, err = run_cli(*argv)
        assert code == 2 and "not connected" in err
    # eval measures disconnected graphs too
    arr = write(workdir / "a.a", "1 2 3 4 5\n")
    code, out, _ = run_cli("eval", "--graph", g, "--arrangement", arr)
    assert code == 0 and json.loads(out)["beta"] == 1


def test_reduce_beta_cli(run_cli, workdir):
    g = write(workdir / "p3.g", format_graph(path_graph(3)))
    code, out, _ = run_cli("reduce", g, "--problem", "beta", "--direction", "a2r")
    assert code == 0
    data = json.loads(out)
    assert data["best"]["beta"] == 2
    assert data["checks"] == {"scatter0": True, "balanced": True}


@pytest.mark.parametrize("affinity", [True, False])
def test_reduce_on_one_usable_cpu_forks_nothing(run_cli, workdir, forks, deadline, monkeypatch,
                                                affinity):
    # taskset or a cpuset leaves the process one CPU of the machine's; a
    # platform without affinity masks counts one.  C5's reduction is above
    # the lowered floor
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    g = write(workdir / "c5.g", format_graph(cycle_graph(5)))
    code, out, _ = run_cli("reduce", g, "--problem", "beta")
    assert code == 0 and json.loads(out)["best"]["beta"] == 16
    assert forks == []


def test_reduce_alpha_cli(run_cli):
    code, out, _ = run_cli("reduce", str(FIXTURES / "q3.g"), "--problem", "alpha")
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "noncut_deg3" and data["value"] == 5
    code, _, err = run_cli("reduce", str(FIXTURES / "k8.g"), "--problem", "alpha")
    assert code == 2 and "degree" in err


def test_verify_cli(run_cli):
    code, out, _ = run_cli("verify", "--suite", "fixtures",
                           "--suite", "bin_can", "--trials", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [r["suite"] for r in lines] == ["fixtures", "bin_can"]
    assert all(r["ok"] for r in lines)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_too_few_trials(run_cli, trials):
    code, out, err = run_cli("verify", "--suite", "roundtrips", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: trials must be at least 1, got {trials}\n"


def test_verify_failure_exit_code(run_cli, monkeypatch):
    broken = verify.SuiteResult(suite="fixtures", checks=1, failures=1,
                                detail="forced")
    monkeypatch.setattr("reasm.cli.run_suites", lambda *a, **k: [broken])
    code, out, _ = run_cli("verify", "--suite", "fixtures")
    assert code == 4
    assert json.loads(out)["ok"] is False


def test_gen_cli(run_cli, workdir):
    code, out, _ = run_cli("gen", "--family", "ring_tree",
                           "--ring-sizes", "3,4", "--path-len", "2",
                           "--out", "rt.g")
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["m"]) == (8, 9)
    g = parse_graph(Path("rt.g").read_text())
    assert (g.n, g.m) == (8, 9)
    code, _, err = run_cli("gen", "--family", "ring_tree")
    assert code == 2
    code, _, err = run_cli("gen", "--family", "ring_tree", "--ring-sizes", "x")
    assert code == 2
    code, _, err = run_cli("gen", "--family", "ring_tree", "--ring-sizes", "")
    assert code == 2 and "empty ring size list" in err
    # the ring_tree options are refused for every other family
    code, out, err = run_cli("gen", "--family", "path", "--size", "3", "--ring-sizes", "3,4")
    assert (code, out) == (2, "") and err.startswith("error: ring sizes and path length "
                                                     "are for ring_tree only")
    assert err.count("\n") == 1
    # and --size for qcube3 and ring_tree, which take none
    for argv in (("--family", "qcube3"), ("--family", "ring_tree", "--ring-sizes", "3,4")):
        code, out, err = run_cli("gen", *argv, "--size", "3")
        assert (code, out, err) == (2, "", f"error: {argv[1]} takes no size\n")


def test_convert_cli(run_cli, workdir):
    g = write(workdir / "p4.g", format_graph(path_graph(4)))
    arr = write(workdir / "a.a", "1 2 3 4\n")
    code, out, _ = run_cli("convert", "--graph", g, "--arrangement", arr,
                           "--to", "tree", "--out", "t.t")
    assert code == 0
    assert json.loads(out)["text"].strip() == "(((1 2) 3) 4)"
    code, out, _ = run_cli("convert", "--graph", g, "--tree", "t.t",
                           "--to", "ordering")
    assert code == 0
    assert json.loads(out)["text"] == "1 2\n2 3\n3 4\n"
    code, _, err = run_cli("convert", "--graph", g, "--tree", "t.t", "--to", "tree")
    assert code == 2 and "already" in err


def test_pretty_before_the_verb(run_cli):
    code, out, _ = run_cli("--pretty", "eval", "--graph", FIXTURES / "s7.g",
                           "--arrangement", FIXTURES / "phi5.a")
    assert code == 0 and out.startswith("{\n")


def test_repeated_calls_share_no_state(run_cli):
    # main() reuses one parser per process; --pretty must not stick
    code, out, _ = run_cli("--pretty", "gen", "--family", "cycle", "--size", "4")
    assert code == 0 and out.startswith("{\n")
    code, out, _ = run_cli("gen", "--family", "cycle", "--size", "4")
    assert code == 0 and "\n" not in out.strip()
    assert json.loads(out)["m"] == 4


def test_unknown_flag_exits_2(run_cli):
    code, _, _ = run_cli("solve", "--bogus")
    assert code == 2


def _module_env() -> dict:
    # A relative PYTHONPATH would resolve inside workdir, so put the
    # directory holding the imported reasm package first, as an absolute path.
    pkg_root = str(Path(reasm.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_root] + ([inherited] if inherited else [])))


def test_module_entry_point(workdir):
    proc = subprocess.run([sys.executable, "-m", "reasm", "gen",
                           "--family", "cycle", "--size", "4"],
                          capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["m"] == 4


def _console_script() -> str:
    """What an installed `reasm` script runs: the `module:attr` target that
    pyproject.toml gives it, called without arguments, whose return value
    is the exit code."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, attr = re.search(r'^reasm = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"


def test_console_script_entry_point(workdir):
    proc = subprocess.run([sys.executable, "-c", _console_script(), "gen",
                           "--family", "path", "--size", "3"],
                          capture_output=True, text=True, env=_module_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["text"] == "3 2\n1 2\n2 3\n"


def test_import_reasm_loads_no_submodule():
    proc = subprocess.run([sys.executable, "-c", "import sys, reasm; print(sorted("
                           "m for m in sys.modules if m.startswith('reasm')))"],
                          capture_output=True, text=True, env=_module_env())
    assert (proc.returncode, proc.stdout) == (0, "['reasm']\n"), proc.stderr


@pytest.mark.parametrize("first", [0, 1], ids=["at-once", "after-one-byte"])
def test_closed_stdout_exits_cleanly(first):
    # a reader that stops early, at once or after one byte as `| head -c 1`
    # does, ends the run with exit 0 and nothing on stderr
    with subprocess.Popen([sys.executable, "-m", "reasm", "reduce", FIXTURES / "q3.g",
                           "--problem", "beta"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_module_env()) as proc:
        proc.stdout.read(first)  # 0 returns at once, before the report is written
        proc.stdout.close()
        err = proc.stderr.read().decode()
    # leaving the block closed stderr and waited for the process
    assert (proc.returncode, err) == (0, "")


def test_import_loads_no_process_pool():
    # pickle is imported only where a run forks workers, and nothing
    # imports a process pool
    proc = subprocess.run([sys.executable, "-c", "import sys, reasm.cli; print("
                           "[m for m in ('concurrent.futures', 'pickle') if m in sys.modules])"],
                          capture_output=True, text=True, env=_module_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_an_interrupted_verb_exits_130(run_cli, capsys, monkeypatch):
    # cli.main lets the interrupt through, as any library call does; the
    # process entry point turns it into exit 130
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr("reasm.cli.exact_arrangement", interrupted)
    argv = ["solve", str(FIXTURES / "q3.g"), "--objective", "beta", "--witness-out", os.devnull]
    with pytest.raises(KeyboardInterrupt):
        run_cli(*argv)
    try:
        code = reasm.__main__.main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    assert (code, *capsys.readouterr()) == (130, "", "error: interrupted\n")


# sitecustomize runs at start-up, before any reasm code.  Its meta-path hook
# interrupts the first import of reasm.solvers, which reasm.cli's imports
# reach, either plainly or inside exec of a string, as an interrupt lands
# in the code that dataclasses generate at import, or by SIGINT inside a
# weakref callback, as one lands in importlib's module-lock callback, where
# CPython reports the KeyboardInterrupt as unraisable and drops it
INTERRUPT_ON_SOLVERS = """import signal, sys, weakref

class Referent:
    pass

def lose_an_interrupt():
    referent = Referent()
    ref = weakref.ref(referent, lambda ref: signal.raise_signal(signal.SIGINT))
    del referent

class InterruptOnSolvers:
    def find_spec(self, name, path=None, target=None):
        if name == "reasm.solvers":
            {raise_}

sys.meta_path.insert(0, InterruptOnSolvers())
"""


@pytest.mark.parametrize("raise_", ["raise KeyboardInterrupt", 'exec("raise KeyboardInterrupt")',
                                    "lose_an_interrupt()"],
                         ids=["raised", "inside-exec", "lost-in-a-weakref-callback"])
@pytest.mark.parametrize("entry", ["module", "console-script"])
def test_an_interrupted_import_exits_130(tmp_path, entry, raise_):
    (tmp_path / "sitecustomize.py").write_text(INTERRUPT_ON_SOLVERS.format(raise_=raise_))
    env = _module_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    argv = ["-m", "reasm"] if entry == "module" else ["-c", _console_script()]
    proc = subprocess.run([sys.executable, *argv, "gen", "--family", "path", "--size", "3"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "error: interrupted\n")


def test_ctrl_c_at_start_up_shows_no_reasm_traceback(workdir, run_cli):
    # SIGINT 0.02-0.10 s in lands in the interpreter's start-up, which
    # reports it (or dies of it) without naming a reasm file, or in reasm
    # code, from reasm.__main__'s first line on, which exits 130.  Each
    # beta solve of the 20-vertex ring tree would run for longer than that.
    # A signal that came in while CPython loaded reasm/__init__.py or
    # reasm/__main__.py (in a garbage collection, say) is raised on entry
    # to the file's code, shown as line 0, before any line of it has run
    assert run_cli("gen", "--family", "ring_tree", "--ring-sizes", "5,5,5,5",
                   "--out", "rt20.g")[0] == 0
    pkg = str(Path(reasm.__file__).resolve().parent)
    runs = 32
    for i in range(runs):
        with subprocess.Popen([sys.executable, "-m", "reasm", "solve", "rt20.g",
                               "--objective", "beta", "--witness-out", os.devnull],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=_module_env(), start_new_session=True) as proc:
            time.sleep(0.02 + 0.08 * i / (runs - 1))
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        frames = re.findall(r'File "(.*)", line (\d+)', err)
        assert [f for f in frames if f[0].startswith(pkg)] in (
            [], [(f"{pkg}/__init__.py", "0")], [(f"{pkg}/__main__.py", "0")]), err
        if err and "Traceback" not in err:
            assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


def test_ctrl_c_ends_a_reduction_and_its_workers(workdir):
    # C16's auxiliary graphs have 2^15 * 2 * 33 states each, 2^25 in all,
    # above the floor of a forked reduction, which runs for seconds.  SIGINT
    # to the process group, as Ctrl-C sends it, reaches the workers too
    g = write(workdir / "c16.g", format_graph(cycle_graph(16)))
    with subprocess.Popen([sys.executable, "-m", "reasm", "reduce", g, "--problem", "beta"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_module_env(), start_new_session=True) as proc:
        # running once it has forked a worker, or after a second where
        # it forks none (one usable CPU)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        for _ in range(100):
            if children.exists() and children.read_text().strip():
                break
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("engine", ["dp", "brute"])
@pytest.mark.parametrize("objective", ["alpha", "beta"])
def test_an_anchor_outside_the_graph_is_refused_before_the_work(run_cli, tmp_path,
                                                                objective, engine):
    # P30's 2^30 beta states and 29! anchored orders are past the default
    # limit, yet every engine refuses the anchor first, with exit 2
    g = tmp_path / "p30.g"
    assert run_cli("gen", "--family", "path", "--size", 30, "--out", g)[0] == 0
    code, out, err = run_cli("solve", g, "--objective", objective, "--anchor", 99,
                             "--engine", engine, "--witness-out", tmp_path / "p30.w")
    assert (code, out) == (2, "")
    assert "vertex 99 outside 1..30" in err


def test_public_names():
    removed = {
        graph: ("popcount", "iter_bits", "Deg3Report", "classify_deg3"),
        tree: ("cross_sections", "validate_tree", "is_strict", "Cluster",
               "first_nonstrict_pair"),
        sequential: ("Partition", "Edge", "MergeStep"),
        solvers: ("BRUTE_ARRANGEMENT_LIMIT", "BINARY_TREE_LIMIT", "_check_states",
                  "_check_anchor", "_check_objective", "_lanewise"),
        solvers.SolveResult: ("witness_text",),
        reduction: ("ProcessPoolExecutor", "descatter_move", "rebalance_move",
                    "_aux_sequences"),
        reduction.VCSequence: ("reversed",),
        layout: ("is_anchored_arrangement", "is_anchored_reassembling",
                 "restrict_arrangement", "restrict_tree", "edge_length"),
        layout.Arrangement: ("position", "reversed"),
        tree.ReassemblyTree: ("sibling", "parent", "children", "path_to_root",
                              "height", "height_of", "subtree", "_lookup",
                              "_parent", "_heights", "_trusted", "_from_masks",
                              "_init_from", "cluster_masks", "_sorted_masks", "vertices",
                              "linear_chain"),
        graph.Graph: ("boundary_degree", "_check_block", "cut_vertices", "cut_mask"),
    }
    for home, names in removed.items():
        for name in names:
            assert not hasattr(home, name), f"{home.__name__}.{name}"
            assert not hasattr(reasm, name), name
    assert "pairs" not in reduction.VCSequence._fields
    assert "chain" not in {f.name for f in dataclasses.fields(sequential.SeqTrace)}
    assert "classifier" not in {f.name for f in dataclasses.fields(reduction.AlphaReductionReport)}
