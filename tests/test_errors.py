"""The error contract: every failure is a ReasmError whose class carries the
CLI exit code, so whatever bytes or flags a user passes in, `reasm` ends
with 0, 2, 3 or 4; the package's checks are exceptions, not asserts, so
they hold under python -O too."""

import ast
import dataclasses
import importlib.util
import io
import os
import pickle
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reasm
from reasm import reduction, solvers
from reasm.cli import main
from reasm.errors import LimitError, ReasmError, ValidationError, VerificationError
from reasm.graph import parse_graph, path_graph
from reasm.layout import parse_arrangement
from reasm.reduction import build_auxiliary, normalize_sequence, scatter, unbalance, vc_sequence
from reasm.sequential import parse_ordering
from reasm.tree import parse_tree

from conftest import FIXTURES

# deterministic, nothing written into the repo, a few seconds in all
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

EXIT_CODES = {0, 2, 3, 4}


FAILING_PROPERTY = """from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="needs libcst")
def test_a_failing_property_is_reported_under_W_error(tmp_path):
    # Hypothesis imports libcst to report the failure; loaded with the shared
    # conftest as a plugin, the run reports it and goes on to the next test
    # instead of ending in an INTERNALERROR.  The working directory is
    # tmp_path, where Hypothesis writes its .hypothesis directory
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "conftest",
                           "-p", "no:cacheprovider", "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1
    assert proc.stdout.rstrip().splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout


def test_exit_code_is_a_property_of_the_class():
    assert [c.exit_code for c in (ValidationError, LimitError, VerificationError)] == [2, 3, 4]
    # callers that catch the builtin bases keep working
    assert issubclass(ValidationError, ValueError)
    assert issubclass(LimitError, RuntimeError)


@pytest.mark.parametrize("cls", [ValidationError, LimitError, VerificationError])
def test_errors_survive_a_pickle_round_trip(cls):
    # forked workers send their errors back pickled, to be raised again
    exc = pickle.loads(pickle.dumps(cls("anchor 3: broken")))
    assert type(exc) is cls and str(exc) == "anchor 3: broken"


def test_package_has_no_assert():
    # python -O strips assert statements, so no check may be one
    found = []
    for path in sorted(Path(reasm.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert)
                    or isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# ---------------------------------------------------------------------------
# fault injection: a failed identity ends in exit 4, not a traceback

def test_unbalanced_normal_form_exits_4(run_cli, monkeypatch):
    monkeypatch.setattr(reduction, "_is_right_balanced", lambda seq: False)
    code, out, err = run_cli("reduce", FIXTURES / "q3.g", "--problem", "beta")
    assert code == 4 and out == ""
    assert err.startswith("error: anchor 1:") and err.count("\n") == 1


@pytest.mark.parametrize("direction, solver", [("r2a", "exact_arrangement"),
                                               ("a2r", "exact_linear_reassembling")])
def test_a_wrong_auxiliary_optimum_exits_4(run_cli, monkeypatch, direction, solver):
    # one more than G_w's optimum breaks the identity with the clique sum
    # and the beta of the restriction
    solve = getattr(reduction, solver)
    monkeypatch.setattr(reduction, solver, lambda g, objective: dataclasses.replace(
        res := solve(g, objective), value=res.value + 1))
    code, out, err = run_cli("reduce", FIXTURES / "q3.g", "--problem", "beta",
                             "--direction", direction)
    assert code == 4 and out == ""
    assert err.startswith("error: anchor 1: G_w optimum ") and err.count("\n") == 1


def test_a_worker_only_failure_exits_4(run_cli, monkeypatch, forks, cpus, deadline):
    # the check fails in the forked worker alone, on the anchors it runs
    # (the even ones of q3's eight): its error reaches the command line
    parent, balanced = os.getpid(), reduction._is_right_balanced
    monkeypatch.setattr(reduction, "_is_right_balanced",
                        lambda seq: os.getpid() == parent and balanced(seq))
    cpus(2)
    code, out, err = run_cli("reduce", FIXTURES / "q3.g", "--problem", "beta")
    assert code == 4 and out == ""
    assert err.startswith("error: anchor 2:") and err.count("\n") == 1
    assert len(forks) == 1


def test_idle_rebalancing_is_caught(monkeypatch):
    monkeypatch.setattr(reduction, "_rebalance", lambda seq: seq)
    aux = build_auxiliary(path_graph(2), 1)
    seq = vc_sequence(aux, (2, 3, 4, 1))
    assert scatter(seq) == 0 and unbalance(seq) > 0
    with pytest.raises(VerificationError, match="did not terminate"):
        normalize_sequence(seq)


def test_idle_rebalancing_stops_the_normal_forms(run_cli, monkeypatch):
    # balance_lemmas walks from its unscattered orders through normalize_sequence
    monkeypatch.setattr(reduction, "_rebalance", lambda seq: seq)
    code, out, err = run_cli("verify", "--suite", "balance_lemmas")
    assert code == 4 and out == ""
    assert err.startswith("error: normalization did not terminate") and err.count("\n") == 1


def test_a_move_that_keeps_the_span_stops_the_suite(run_cli, monkeypatch):
    # the scattered order's target is then itself, which has no normal form
    # yet: the suite names the order, it does not read a missing record
    monkeypatch.setattr(reduction, "_descatter", lambda seq, pos: seq)
    code, out, err = run_cli("verify", "--suite", "balance_lemmas")
    assert code == 4 and out == ""
    assert err == ("error: descattering (1, 2, 3, 4) gave (1, 2, 3, 4), "
                   "which has no normal form recorded\n")


def test_inconsistent_prefix_table_exits_4(run_cli, monkeypatch, tmp_path):
    real = solvers._prefix_table

    def broken(*args):
        x = real(*args)
        for t in range(1, len(x)):
            x[t] -= 1  # every optimum below its orders' costs
        return x

    monkeypatch.setattr(solvers, "_prefix_table", broken)
    code, _, err = run_cli("solve", FIXTURES / "s7.g", "--objective", "beta",
                           "--witness-out", tmp_path / "w")
    assert code == 4 and err.startswith("error: prefix table is inconsistent")
    assert err.endswith("(n = 8, m = 7, anchor None, linear False)\n")
    code, _, err = run_cli("solve", FIXTURES / "s7.g", "--objective", "beta",
                           "--mode", "linear", "--anchor", "2", "--witness-out", tmp_path / "w")
    assert code == 4 and err.endswith("(n = 8, m = 7, anchor 2, linear True)\n")


# ---------------------------------------------------------------------------
# parsers and the CLI on arbitrary input

PARSERS = [parse_graph, parse_tree, parse_arrangement, parse_ordering]


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@FUZZ
@given(text=st.one_of(st.text(max_size=40), st.text("0123456789 -()#\n", max_size=40)))
def test_parsers_raise_only_reasm_errors(parse, text):
    try:
        parse(text)
    except ReasmError:
        pass


KINDS = ("tree", "arrangement", "ordering")


@st.composite
def _case(draw) -> tuple:
    """A graph file and object files (a dict keyed by KINDS) over its
    vertices: usually well formed, sometimes off by one in the header,
    sometimes arbitrary bytes."""
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(1, n + 1)))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6))
    edges = list(zip(perm, perm[1:])) + [(u, v) for u, v in extra if u != v]
    dn, dm = draw(st.sampled_from(((0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, 0))))
    text = "\n".join([f"{n + dn} {len(edges) + dm}", *(f"{u} {v}" for u, v in edges)])
    graph = draw(_mostly(text, st.binary(max_size=24)))
    objects = {}
    kinds = draw(st.permutations(KINDS))[:draw(st.sampled_from((1, 1, 1, 0, 2, 3)))]
    for kind in kinds:
        order = draw(st.permutations(range(1, n + 1)))
        if kind == "tree":  # merge neighbours until one tree is left
            items = list(map(str, order))
            while len(items) > 1:
                i = draw(st.integers(0, len(items) - 2))
                items[i:i + 2] = [f"({items[i]} {items[i + 1]})"]
            good = items[0]
        elif kind == "arrangement":
            good = " ".join(map(str, order))
        else:
            good = "\n".join(f"{u} {v}" for u, v in draw(st.permutations(edges)))
        objects[kind] = draw(_mostly(good, st.one_of(
            st.text("0123456789 ()#\n", max_size=24).map(str.encode), st.binary(max_size=12))))
    return graph, objects


def _mostly(text: str, other):
    """The bytes of `text` three times in four, else a draw from `other`."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda keep: st.just(text.encode()) if keep else other)


GRAPH = _case().map(lambda case: case[0])
NUMBER = st.one_of(st.integers(-2, 9).map(str), st.sampled_from(("x", "", "1.5")))


class _Files:
    def __init__(self, root: Path):
        self.root = root

    def put(self, name: str, data: bytes) -> str:
        path = self.root / name
        path.write_bytes(data)
        return str(path)

    def out(self, choice: str) -> str:
        """An output path: a plain file, a directory, or one in a missing
        directory."""
        return str({"file": self.root / "out", "dir": self.root,
                    "missing": self.root / "no-such-dir" / "out"}[choice])


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> _Files:
    return _Files(tmp_path_factory.mktemp("fuzz"))


OUT = st.sampled_from(("file", "dir", "missing"))


def _exit_code(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code
    assert code == 0 or err.getvalue().startswith("error:")
    return code


def _with_objects(files: _Files, argv: list, objects: dict) -> list:
    for kind, data in objects.items():
        argv += [f"--{kind}", files.put(kind, data)]
    return argv


@FUZZ
@given(case=_case(), pretty=st.booleans())
def test_eval_exit_codes(files, case, pretty):
    graph, objects = case
    argv = ["eval", "--graph", files.put("g", graph)] + ["--pretty"] * pretty
    assert _exit_code(_with_objects(files, argv, objects)) in EXIT_CODES


@FUZZ
@given(case=_case(), to=st.sampled_from(KINDS), out=st.one_of(st.none(), OUT))
def test_convert_exit_codes(files, case, to, out):
    graph, objects = case
    argv = ["convert", "--graph", files.put("g", graph), "--to", to]
    if out is not None:
        argv += ["--out", files.out(out)]
    assert _exit_code(_with_objects(files, argv, objects)) in EXIT_CODES


@FUZZ
@given(graph=GRAPH, objective=st.sampled_from(("alpha", "beta", "gamma")),
       mode=st.sampled_from(("arrangement", "linear", "binary")),
       anchor=st.one_of(st.none(), NUMBER), engine=st.sampled_from((None, "dp", "brute")),
       out=OUT)
def test_solve_exit_codes(files, graph, objective, mode, anchor, engine, out):
    argv = ["solve", files.put("g", graph), "--objective", objective, "--mode", mode,
            "--witness-out", files.out(out)]
    if anchor is not None:
        argv += ["--anchor", anchor]
    if engine is not None:
        argv += ["--engine", engine]
    assert _exit_code(argv) in EXIT_CODES


@FUZZ
@given(graph=GRAPH, problem=st.sampled_from(("alpha", "beta")),
       direction=st.sampled_from(("r2a", "a2r", "up")))
def test_reduce_exit_codes(files, graph, problem, direction):
    argv = ["reduce", files.put("g", graph), "--problem", problem,
            "--direction", direction]
    assert _exit_code(argv) in EXIT_CODES


@FUZZ
@given(suites=st.lists(st.sampled_from(("fixtures", "beta_equals_gamma", "roundtrips",
                                        "bin_can", "dp_vs_brute", "nope")),
                       min_size=1, max_size=2),
       seed=st.one_of(st.integers().map(str), st.just("x")),
       trials=st.sampled_from(("-1", "0", "1", "2", "x")))  # below 1 exits 2
def test_verify_exit_codes(suites, seed, trials):
    argv = ["verify", "--seed", seed, "--trials", trials]
    for name in suites:
        argv += ["--suite", name]
    assert _exit_code(argv) in EXIT_CODES


# 10001 is just above MAX_VERTICES: refused, and a path, cycle, star or ring
# of that size would still be small if the cap were missing (a complete
# graph would not).  The huge sizes are tested in test_cli.py, in a child
# process with capped memory.
SIZE = st.one_of(NUMBER, st.just("10001"))


@FUZZ
@given(family=st.sampled_from(("complete", "star", "path", "cycle", "qcube3", "ring_tree",
                               "tree")),
       size=st.one_of(st.none(), NUMBER, st.integers(1, 9).map(str)), big=st.booleans(),
       ring_sizes=st.one_of(st.none(), st.lists(SIZE, max_size=3).map(",".join),
                            st.lists(st.integers(3, 6).map(str), min_size=1,
                                     max_size=3).map(",".join)),
       path_len=st.one_of(st.none(), SIZE),
       out=st.one_of(st.none(), OUT))
def test_gen_exit_codes(files, family, size, big, ring_sizes, path_len, out):
    if big and family != "complete":
        size = "10001"
    argv = ["gen", "--family", family]
    for flag, value in (("--size", size), ("--ring-sizes", ring_sizes),
                        ("--path-len", path_len)):
        if value is not None:
            argv += [flag, value]
    if out is not None:
        argv += ["--out", files.out(out)]
    assert _exit_code(argv) in EXIT_CODES
