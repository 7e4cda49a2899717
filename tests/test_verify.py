import json

import pytest

from reasm.errors import ValidationError
from reasm.graph import complete_graph, path_graph
from reasm.reduction import _normal_step, build_auxiliary, normalize_sequence, vc_sequence
from reasm.verify import SUITES, _balance_lemmas, _normal_forms, _Recorder, run_suites


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
        for s, t, nf in _normal_forms(aux):
            ref = vc_sequence(aux, s.order)
            step = _normal_step(ref)
            assert s.beta == ref.beta
            assert (None if t is None else t.order) == (None if step is None else step.order)
            assert nf.order == normalize_sequence(ref).order
            seen.add(s.order)
        assert len(seen) == orders
        rec = _Recorder("balance_lemmas")
        _balance_lemmas(rec, aux)
        assert rec.checks > orders and rec.failures == 0, rec.bad
