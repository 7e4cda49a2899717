import collections
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reasm import reduction, verify
from reasm.errors import ValidationError
from reasm.graph import Graph, complete_graph, path_graph
from reasm.layout import Arrangement, evaluate_arrangement
from reasm.reduction import (_aux_sequences, _normal_step, build_auxiliary,
                             normalize_sequence, scatter, vc_sequence)
from reasm.verify import SUITES, _balance_lemmas, _normal_forms, _Recorder, run_suites

from conftest import distinct_aux_orders


def test_suite_names():
    assert set(SUITES) == {"fixtures", "beta_equals_gamma", "roundtrips",
                           "bin_can", "balance_lemmas", "dp_vs_brute"}


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="unknown suite"):
        run_suites(["nope"])


def test_recorder_counts_past_the_detail_cap():
    rec = _Recorder("demo")
    for i in range(9):
        rec.expect(False, f"bad {i}")
    rec.expect(True, "good")
    res = rec.result()
    assert res.checks == 10 and res.failures == 9 and not res.ok
    assert res.detail.endswith("; ...")
    assert res.detail.count(";") == 5


def test_failure_labels_keep_their_text(monkeypatch):
    # labels are formatted only on failure, into the text they always had
    monkeypatch.setattr(verify, "_gamma", lambda g, order: 0)
    assert verify.suite_beta_equals_gamma(0, trials=3).detail == (
        "beta 33 != gamma 0 on ((1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (2, 3), (2, 4), "
        "(2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (5, 6), (5, 7)) / (5, 7, 2, 1, 4, 3, 6); "
        "beta 16 != gamma 0 on ((1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (4, 5), (4, 6)) "
        "/ (6, 5, 4, 1, 3, 2); beta 4 != gamma 0 on ((1, 2), (1, 3), (1, 4)) / (3, 2, 1, 4)")
    brute = verify.brute_force_arrangement

    def off_by_one(*args, **kw):
        res = brute(*args, **kw)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(verify, "brute_force_arrangement", off_by_one)
    assert verify.suite_dp_vs_brute(0, trials=1).detail.startswith(
        "free alpha: dp 2 (1, 2, 3, 4, 5) != brute 3 (1, 2, 3, 4, 5) on ((1, 2), (2, 3), "
        "(2, 5), (3, 4), (4, 5)); alpha at anchor 1: dp (2, (1, 2, 3, 4, 5)), brute "
        "(3, (1, 2, 3, 4, 5)) on ((1, 2), (2, 3), (2, 5), (3, 4), (4, 5)) (both refuse, "
        "or agree and w is first); ")
    monkeypatch.setattr(verify, "unbalance", lambda seq: 1)
    res = verify.suite_balance_lemmas(0)
    assert (res.checks, res.failures) == (83468, 42554)
    # the orders come in the suite's visit order, unscattered layouts first
    assert res.detail == "; ".join(f"normalize misbehaved on {order}" for order in (
        (2, 1, 3, 4), (2, 3, 1, 4), (1, 3, 4, 2), (2, 3, 4, 1), (3, 1, 4, 2))) + "; ..."


def test_a_wrong_cut_is_recorded_not_raised(monkeypatch, run_cli):
    # one extra edge in every prefix cut: each check fails with its label,
    # and the suite still prints its line
    scan = Graph._prefix_cuts
    monkeypatch.setattr(Graph, "_prefix_cuts", lambda g, order: [c + 1 for c in scan(g, order)])
    code, out, _ = run_cli("verify", "--suite=beta_equals_gamma", "--trials", 3)
    res = json.loads(out)
    assert code == 4 and (res["checks"], res["failures"]) == (3, 3)
    assert res["detail"].startswith("beta 40 != gamma 33 on ((1, 2), (1, 3), ")
    assert res["detail"].count("beta ") == 3


def test_small_deterministic_run():
    a = run_suites(["bin_can"], seed=3, trials=10)[0]
    b = run_suites(["bin_can"], seed=3, trials=10)[0]
    assert a == b and a.ok
    assert a.to_json()["suite"] == "bin_can"


def test_sampled_suites_pass_their_default_draws(run_cli):
    # criterion 7 runs balance_lemmas, the one exhaustive suite; only
    # dp_vs_brute's count follows the draw, 2 (n + 1) checks per graph
    sampled = [name for name in SUITES if name != "balance_lemmas"]
    for seed, dp_vs_brute in enumerate((148, 170, 162, 146)):
        code, out, _ = run_cli("verify", *(f"--suite={name}" for name in sampled),
                               "--seed", seed)
        results = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and all(res["ok"] for res in results), results
        assert {res["suite"]: res["checks"] for res in results} == {
            "fixtures": 22, "beta_equals_gamma": 1000, "roundtrips": 900,
            "bin_can": 600, "dp_vs_brute": dp_vs_brute}
        assert [res["suite"] for res in results] == sampled


# every verify suite at seed 0 through the CLI, one JSON line each, then
# the checks and failures of the balance lemmas on the 12-vertex auxiliary
# graphs of C4 and the paw at every anchor, with the interpreter's -O flag
UNDER_O = """import json, sys
from reasm.cli import main
from reasm.graph import Graph, cycle_graph
from reasm.reduction import build_auxiliary
from reasm.verify import _Recorder, _balance_lemmas
code = main(["verify"])
got = {"optimize": sys.flags.optimize, "code": code}
for name, g in (("c4", cycle_graph(4)), ("paw", Graph(4, ((1, 2), (2, 3), (1, 3), (3, 4))))):
    rec = _Recorder("balance_lemmas")
    for w in g.vertices:
        _balance_lemmas(rec, build_auxiliary(g, w))
    got[name] = [rec.checks, rec.failures]
print(json.dumps(got))
"""


def test_every_check_fires_under_python_O():
    # -O strips asserts; src/reasm holds none (test_errors.py), so every
    # identity check still runs: each suite passes with its seed-0 count of
    # checks, balance_lemmas' descattering moves, normal-form records and
    # guarded walk included, and so do criterion 7's C4 and paw
    src = str(Path(verify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", UNDER_O], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    *suites, last = map(json.loads, proc.stdout.splitlines())
    assert {r["suite"]: r["checks"] for r in suites if r["ok"]} == {
        "fixtures": 22, "beta_equals_gamma": 1000, "roundtrips": 900, "bin_can": 600,
        "balance_lemmas": 83592, "dp_vs_brute": 148}, suites
    assert last == {"optimize": 1, "code": 0, "c4": [94256, 0], "paw": [94240, 0]}


@pytest.mark.parametrize("g, orders", [(path_graph(3), 210), (complete_graph(3), 504)])
def test_normal_form_table_matches_normalize_sequence(g, orders):
    # the per-order path, one scoring and a full walk each, is the reference
    for w in g.vertices:
        aux = build_auxiliary(g, w)
        seen = set()
        for s, scattered, t, nf in _normal_forms(aux):
            ref = vc_sequence(aux, s.order)
            _, step = _normal_step(ref)
            assert s.beta == ref.beta
            assert scattered == (scatter(ref) > 0)
            assert (None if t is None else t.order) == (None if step is None else step.order)
            assert nf.order == normalize_sequence(ref).order
            seen.add(s.order)
        assert len(seen) == orders
        rec = _Recorder("balance_lemmas")
        _balance_lemmas(rec, aux)
        assert rec.checks > orders and rec.failures == 0, rec.bad


@pytest.mark.parametrize("g", [path_graph(3), complete_graph(3), path_graph(4)])
def test_layout_scoring_matches_vc_sequence(g):
    # the closed form taken apart per clique layout, against the closed form
    # of each order, in the order the order-by-order enumeration yields
    # them; each beta also against the cuts of the order in G_w
    for w in g.vertices:
        aux = build_auxiliary(g, w)
        want = [vc_sequence(aux, order) for order in distinct_aux_orders(aux)]
        assert list(_aux_sequences(aux)) == want
        for seq in want:
            assert seq.beta == evaluate_arrangement(aux.combined, Arrangement(seq.order)).beta


def test_balance_lemmas_work_is_pinned(monkeypatch):
    # one run's checks, moves and steps: each scattered order makes one
    # descattering move and reads its normal form off the move's target, so
    # no order is stepped twice; only unscattered orders walk
    counts = collections.Counter()

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            counts[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(reduction, "_descatter", "descatter")
    count(reduction, "_rebalance", "rebalance")
    count(reduction, "_normal_step", "step")
    count(verify, "_normal_step", "step")  # the first step of each unscattered order
    res = verify.suite_balance_lemmas(0)
    assert (res.checks, res.failures) == (83592, 0)
    scattered = sum(scatter(s) > 0 for g in verify.BALANCE_BASES for w in g.vertices
                    for s in _aux_sequences(build_auxiliary(g, w)))
    assert counts["descatter"] == scattered
    assert counts == {"descatter": 40914, "rebalance": 1860, "step": 2564}
