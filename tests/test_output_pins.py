"""The exact stdout of the verbs whose output lists vertex sets: cluster
lists, merge steps and converted objects keep one order (ascending size,
then ascending vertex tuple; the lower-vertex side first) however the sets
are held inside the package."""

import json

import pytest

from reasm.errors import ValidationError
from reasm.graph import Graph, path_graph, star_graph
from reasm.sequential import canonical_ordering
from reasm.tree import parse_tree

from conftest import FIXTURES

FILES = {
    "q3.t": "(((((((2 4) 1) 3) 7) 5) 8) 6)\n",
    # same-size clusters whose vertex tuples and masks sort differently
    "q3-crossed.t": "(((1 4) (2 3)) ((5 8) (6 7)))\n",
    "q3.a": "5 3 1 6 2 8 7 4\n",
    "q3.o": "3 5\n1 3\n1 6\n5 6\n5 7\n4 7\n3 4\n2 4\n1 2\n2 8\n6 8\n7 8\n",
    "q3-shuffled.o": "7 8\n2 4\n5 6\n1 3\n4 7\n1 2\n3 5\n2 8\n6 8\n3 4\n1 6\n5 7\n",
    "s7.t": "(((((((1 2) 3) 4) 5) 6) 7) 8)\n",
    "s7.a": "3 1 5 2 4 8 6 7\n",
    "s7.o": "1 5\n1 3\n1 8\n1 2\n1 7\n1 4\n1 6\n",
    "s7-nonstrict.t": "(((((1 ((2 3) 4)) 5) 6) 7) 8)\n",
    "p4.g": "4 3\n1 2\n2 3\n3 4\n",
    "c5.g": "5 5\n1 2\n1 5\n2 3\n3 4\n4 5\n",
}


def _rows(pairs):
    return [{"set": s, "degree": d} for s, d in pairs]


SINGLETONS = [([v], 3) for v in range(1, 9)]

EVAL = [
    (("--tree", "@b1.t"), {
        "alpha": 4, "beta": 48,
        "clusters": _rows(SINGLETONS + [
            ([1, 2], 4), ([3, 4], 4), ([5, 6], 4), ([7, 8], 4), ([1, 2, 3, 4], 4),
            ([1, 2, 3, 4, 5, 6], 4), ([1, 2, 3, 4, 5, 6, 7, 8], 0)]),
        "linear": False}),
    (("--tree", "q3-crossed.t"), {
        "alpha": 6, "beta": 56,
        "clusters": _rows(SINGLETONS + [
            ([1, 4], 6), ([2, 3], 6), ([5, 8], 6), ([6, 7], 6), ([1, 2, 3, 4], 4),
            ([5, 6, 7, 8], 4), ([1, 2, 3, 4, 5, 6, 7, 8], 0)]),
        "linear": False}),
    (("--ordering", "q3-shuffled.o"), {
        "steps": [{"merged": a, "bridges": b} for a, b in [
            ([[7], [8]], [[7, 8]]),
            ([[2], [4]], [[2, 4]]),
            ([[5], [6]], [[5, 6]]),
            ([[1], [3]], [[1, 3]]),
            ([[2, 4], [7, 8]], [[2, 8], [4, 7]]),
            ([[1, 3], [2, 4, 7, 8]], [[1, 2], [3, 4]]),
            ([[1, 2, 3, 4, 7, 8], [5, 6]], [[1, 6], [3, 5], [5, 7], [6, 8]])]],
        "tree": "(((1 3) ((2 4) (7 8))) (5 6))",
        "measures": {"alpha": 4, "beta": 48}}),
]

CONVERT = [
    ("q3", "tree", "arrangement", "2 4 1 3 7 5 8 6\n"),
    ("q3", "tree", "ordering",
     "2 4\n1 2\n1 3\n3 4\n4 7\n3 5\n5 7\n2 8\n7 8\n1 6\n5 6\n6 8\n"),
    ("q3", "arrangement", "tree", "((((((1 (3 5)) 6) 2) 8) 7) 4)\n"),
    ("q3", "arrangement", "ordering",
     "3 5\n1 3\n1 6\n5 6\n1 2\n2 8\n6 8\n5 7\n7 8\n2 4\n3 4\n4 7\n"),
    ("q3", "ordering", "tree", "((((((1 (3 5)) 6) 7) 4) 2) 8)\n"),
    ("q3", "ordering", "arrangement", "3 5 1 6 7 4 2 8\n"),
    ("s7", "tree", "arrangement", "2 1 3 4 5 6 7 8\n"),
    ("s7", "tree", "ordering", "1 2\n1 3\n1 4\n1 5\n1 6\n1 7\n1 8\n"),
    ("s7", "arrangement", "tree", "(((((((1 3) 5) 2) 4) 8) 6) 7)\n"),
    ("s7", "arrangement", "ordering", "1 3\n1 5\n1 2\n1 4\n1 8\n1 6\n1 7\n"),
    ("s7", "ordering", "tree", "(((((((1 5) 3) 8) 2) 7) 4) 6)\n"),
    ("s7", "ordering", "arrangement", "5 1 3 8 2 7 4 6\n"),
]

EXT = {"tree": "t", "arrangement": "a", "ordering": "o"}

# (graph, direction, beta per anchor, best anchor, best object)
REDUCE = [
    ("p4.g", "r2a", [8] * 4, 1, "(((1 2) 3) 4)"),
    ("p4.g", "a2r", [3] * 4, 1, "1 2 3 4"),
    ("c5.g", "r2a", [16] * 5, 1, "((((1 5) 4) 3) 2)"),
    ("c5.g", "a2r", [8] * 5, 1, "1 2 3 4 5"),
    ("@s7.g", "r2a", [35] + [29] * 7, 2, "((((1 (((2 8) 7) 6)) 5) 4) 3)"),
    ("@s7.g", "a2r", [22] + [16] * 7, 2, "2 3 4 1 5 6 7 8"),
    ("@q3.g", "r2a", [49] * 8, 1, "(((((((1 6) 5) 3) 8) 7) 4) 2)"),
    ("@q3.g", "a2r", [28] * 8, 1, "1 2 3 4 5 6 7 8"),
]
DIRECTIONS = {"r2a": "reassembling_to_arrangement", "a2r": "arrangement_to_reassembling"}


@pytest.fixture
def files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)


def _path(arg: str) -> str:
    return str(FIXTURES / arg[1:]) if arg.startswith("@") else arg


@pytest.mark.parametrize("obj, expected", EVAL, ids=[obj[1] for obj, _ in EVAL])
def test_eval_output_is_pinned(run_cli, files, obj, expected):
    code, out, err = run_cli("eval", "--graph", FIXTURES / "q3.g", obj[0], _path(obj[1]))
    assert (code, err) == (0, "")
    assert out == json.dumps(expected) + "\n"


@pytest.mark.parametrize("graph, direction, betas, best, obj", REDUCE,
                         ids=[f"{g.lstrip('@')}-{d}" for g, d, *_ in REDUCE])
def test_reduce_beta_output_is_pinned(run_cli, files, graph, direction, betas, best, obj):
    code, out, err = run_cli("reduce", _path(graph), "--problem", "beta",
                             "--direction", direction)
    assert (code, err) == (0, "")
    assert out == json.dumps({
        "problem": "beta", "direction": DIRECTIONS[direction],
        "anchors": [{"w": w, "beta": b} for w, b in enumerate(betas, start=1)],
        "best": {"w": best, "beta": betas[best - 1], "object": obj},
        "checks": {"scatter0": True, "balanced": True}}) + "\n"


@pytest.mark.parametrize("graph, source, target, text", CONVERT)
def test_convert_output_is_pinned(run_cli, files, graph, source, target, text):
    code, out, err = run_cli("convert", "--graph", FIXTURES / f"{graph}.g",
                             f"--{source}", f"{graph}.{EXT[source]}", "--to", target)
    assert (code, err) == (0, "")
    assert out == json.dumps({"from": source, "to": target, "text": text}) + "\n"


def test_nonstrict_message_is_pinned(run_cli, files):
    code, out, err = run_cli("convert", "--graph", FIXTURES / "s7.g",
                             "--tree", "s7-nonstrict.t", "--to", "ordering")
    assert (code, out) == (2, "")
    assert err == "error: tree is not strict: no edge between [2] and [3]\n"
    # the first pair in (size, mask value) order, named lower-vertex side first
    c4 = Graph(4, ((1, 2), (2, 4), (3, 4), (1, 3)))
    for g, text, sides in [(star_graph(3), "(((2 3) 1) 4)", "[2] and [3]"),
                           (path_graph(4), "(((1 2) 4) 3)", "[1, 2] and [4]"),
                           (path_graph(4), "((1 4) (2 3))", "[1] and [4]"),
                           (c4, "((1 4) (2 3))", "[2] and [3]")]:
        with pytest.raises(ValidationError) as info:
            canonical_ordering(g, parse_tree(text))
        assert str(info.value) == f"tree is not strict: no edge between {sides}"
