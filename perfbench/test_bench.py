"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_bench.py

The repeat test makes two traced runs of every workload, about four
minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".states", ".checks")


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name in ("reduction.anchors", "spans")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "1")) for _ in range(2)]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    counts = [{k: v["value"] for k, v in r["metrics"].items() if is_count(k)} for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_end_to_end_metrics_match_spec():
    res = result(bench("--workload", "binary", "--seed", "5", "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "binary", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_pinned_values():
    q3, s7 = oracle.qcube3(), oracle.star(7)
    assert oracle.binary_optimum(8, q3, "alpha") == 4
    assert oracle.binary_optimum(8, q3, "beta") == 47
    assert oracle.binary_optimum(8, oracle.complete(8), "beta") == 127
    assert oracle.binary_optimum(8, s7, "beta") == 28
    opt = oracle.ArrangementOptima(8, s7)
    assert (opt.arrangement("alpha"), opt.arrangement("beta"), opt.linear_beta()) == (4, 16, 29)
    assert oracle.ArrangementOptima(8, q3).linear_beta() == 49
    assert oracle.tree_measures(8, q3, "((((1 2) (3 4)) (5 6)) (7 8))") == (4, 48)
    assert oracle.arrangement_measures(8, s7, [2, 3, 4, 1, 5, 6, 7, 8]) == (4, 16)


def test_oracle_rejects_bad_witnesses():
    with pytest.raises(ValueError):
        oracle.arrangement_measures(3, oracle.path(3), [1, 1, 2])
    with pytest.raises(ValueError):
        oracle.tree_measures(3, oracle.path(3), "((1 2 3))")
    with pytest.raises(ValueError):
        oracle.tree_measures(4, oracle.path(4), "((1 2) (3 4))", linear=True)


def test_twin_share():
    assert oracle.twin_share(8, oracle.qcube3()) == 0
    assert oracle.twin_share(8, oracle.star(7)) == 7 / 8
    n, edges = oracle.auxiliary(4, oracle.path(4), 1)
    assert oracle.twin_share(n, edges) >= 6 / 10
