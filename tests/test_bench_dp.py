"""tools/bench_dp.py, and the BENCH_dp.json it wrote at the repository root."""

import json
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
