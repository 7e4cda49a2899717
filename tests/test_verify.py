import collections
import dataclasses
import json

import pytest

from reasm import reduction, verify
from reasm.errors import ValidationError
from reasm.graph import complete_graph, path_graph
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
    monkeypatch.setattr(verify, "edge_length", lambda arr, e: 0)
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
    assert res.detail == "; ".join(f"normalize misbehaved on {order}" for order in (
        (1, 2, 3, 4), (2, 1, 3, 4), (1, 3, 2, 4), (2, 3, 1, 4), (1, 3, 4, 2))) + "; ..."


def test_small_deterministic_run():
    a = run_suites(["bin_can"], seed=3, trials=10)[0]
    b = run_suites(["bin_can"], seed=3, trials=10)[0]
    assert a == b and a.ok
    assert a.to_json()["suite"] == "bin_can"


def test_sampled_suites_pass_their_default_draws(run_cli):
    # criterion 7 runs balance_lemmas, the one exhaustive suite
    sampled = [name for name in SUITES if name != "balance_lemmas"]
    for seed in range(4):
        code, out, _ = run_cli("verify", *(f"--suite={name}" for name in sampled),
                               "--seed", seed)
        results = [json.loads(line) for line in out.splitlines()]
        assert [res["suite"] for res in results] == sampled
        assert code == 0 and all(res["ok"] and res["checks"] > 0 for res in results), results


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
    # the closed form, per clique layout, against a full scan of each order,
    # in the order the order-by-order enumeration yields them
    for w in g.vertices:
        aux = build_auxiliary(g, w)
        want = [vc_sequence(aux, order) for order in distinct_aux_orders(aux)]
        assert list(_aux_sequences(aux)) == want


def test_balance_lemmas_work_is_pinned(monkeypatch):
    # one run's checks, moves and steps: a walk that stopped using the
    # per-anchor table would step far more often
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
    count(verify, "_normal_step", "step")  # the first step of each order
    res = verify.suite_balance_lemmas(0)
    assert (res.checks, res.failures) == (83592, 0)
    assert counts["descatter"] + counts["rebalance"] == 62618
    assert counts == {"descatter": 59394, "rebalance": 3224, "step": 63322}
