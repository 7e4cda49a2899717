"""tools/bench_dp.py, and the BENCH_dp.json it wrote at the repository root."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_report(report: dict, sizes: range, runs: int) -> None:
    assert set(report) == {"git", "dirty", "python", "nproc", "seed", "runs", "instances"}
    assert report["python"].count(".") == 2 and report["runs"] == runs
    rows = report["instances"]
    assert [(r["n"], r["mode"]) for r in rows] == [
        (n, mode) for n in sizes for mode in ("free", "anchored")]
    for free, anchored in zip(rows[::2], rows[1::2]):
        # an anchored order is one of the free ones
        assert free["anchor"] is None and anchored["anchor"] in range(1, free["n"] + 1)
        assert anchored["value"] >= free["value"] > 0
    for r in rows:
        n = r["n"]
        assert r["m"] == 2 * n
        # twin-free: one state per vertex set, the anchor's digit left out
        assert r["states"] == (1 << n if r["mode"] == "free" else 1 << (n - 1)), r
        assert len(r["wall_ms_runs"]) == len(r["peak_rss_mb_runs"]) == runs
        assert min(r["wall_ms_runs"]) <= r["wall_ms"] <= max(r["wall_ms_runs"])
        assert min(r["peak_rss_mb_runs"]) <= r["peak_rss_mb"] <= max(r["peak_rss_mb_runs"])
        assert 0 <= r["cut_ms"] <= r["wall_ms"] and 0 <= r["prefix_ms"] <= r["wall_ms"]
        assert r["peak_rss_mb"] > 0


def test_committed_bench_dp_file():
    report = json.loads((ROOT / "BENCH_dp.json").read_text())
    _assert_report(report, range(16, 25), 3)
    assert len(report["git"]) == 40


def test_bench_dp_smoke(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_dp.py"), "--sizes", "8-9",
                    "--runs", "1", "--out", str(out)], check=True, capture_output=True,
                   timeout=120)
    _assert_report(json.loads(out.read_text()), range(8, 10), 1)


# a stand-in reasm package that logs which tree each child imported
_STUB = """
import os
from types import SimpleNamespace

def _cut_table():
    pass

def _prefix_table():
    pass

def exact_arrangement(g, objective, anchor):
    with open(os.environ["BENCH_LOG"], "a") as log:
        log.write(f"{__file__.split(os.sep)[-3]} {g.n} {anchor}\\n")
    _cut_table()
    _prefix_table()
    return SimpleNamespace(value=g.n + (anchor is not None),
                           stats={"states": 1 << g.n - (anchor is not None)})
"""


def test_bench_dp_alternates_two_trees(tmp_path):
    for tree in ("parent", "change"):
        package = tmp_path / tree / "reasm"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "graph.py").write_text(
            "class Graph:\n    def __init__(self, n, edges):\n        self.n = n\n")
        (package / "solvers.py").write_text(_STUB)
    log = tmp_path / "log"
    argv = [sys.executable, str(ROOT / "tools" / "bench_dp.py"), "--sizes", "8-9", "--runs", "3"]
    for tree in ("parent", "change"):
        argv += ["--src", str(tmp_path / tree), "--out", str(tmp_path / f"{tree}.json")]
    subprocess.run(argv, check=True, capture_output=True, timeout=120,
                   env={**os.environ, "BENCH_LOG": str(log)})
    for tree in ("parent", "change"):
        _assert_report(json.loads((tmp_path / f"{tree}.json").read_text()), range(8, 10), 3)
    # each solve runs on both trees in turn, the first tree first in even
    # rounds; the anchor is a vertex of least degree
    runs = [line.split() for line in log.read_text().splitlines()]
    assert [tree for tree, _, _ in runs] == ["parent", "change"] * 4 + ["change", "parent"] * 4 \
        + ["parent", "change"] * 4
    assert [(n, anchor == "None") for _, n, anchor in runs[::2]] == [
        ("8", True), ("8", False), ("9", True), ("9", False)] * 3


def test_bench_dp_needs_an_out_per_tree(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_dp.py"), "--sizes", "8",
                           "--src", str(ROOT / "src"), "--src", str(ROOT / "src"),
                           "--out", str(tmp_path / "one.json")], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and "one --out for each" in proc.stderr
    assert not (tmp_path / "one.json").exists()
