"""Tests of the benchmark itself: `python3 -m pytest perfbench -q` from the repo root."""

import copy
import json
import os

import numpy as np
import pytest

import metrics
import run
import tracer as tr
import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny(name, tmp_path):
    """Each workload at a size that runs in about a second."""
    if name == "verify_all":
        return W.VerifyAll(str(tmp_path), grid=1024, modes_out=64,
                           suites=("reality", "periodicity", "transversality", "shuffle"))
    if name == "ddf_highres":
        return W.DDFHighres(n=2048)
    return W.SignatureWords(n=256, degree=2, n_max=2)


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def case(request, tmp_path_factory):
    wl = tiny(request.param, tmp_path_factory.mktemp(request.param))
    inputs = wl.setup(3)
    return wl, inputs, wl.op(inputs, 0)


def test_smoke_ops_pass_their_checks(case):
    wl, inputs, result = case
    checks = wl.check(inputs, copy.deepcopy(result))
    assert checks
    assert all(v <= tol for _, v, tol in checks), checks


def test_same_seed_same_inputs_other_seed_different(case, tmp_path):
    wl, inputs, _ = case
    assert wl.setup(3)["digest"] == inputs["digest"]
    assert wl.setup(4)["digest"] != inputs["digest"]


def _fails(wl, inputs, result):
    return any(not v <= tol for _, v, tol in wl.check(inputs, result))


def test_verify_check_fails_on_exit_code_and_report(tmp_path):
    wl = tiny("verify_all", tmp_path)
    inputs = wl.setup(3)
    good = wl.op(inputs, 0)
    with open(good["path"], encoding="utf-8") as fh:
        report = json.load(fh)
    assert not _fails(wl, inputs, good)

    bad_rc = wl.op(inputs, 0)
    bad_rc["rc"] = 1
    assert _fails(wl, inputs, bad_rc)

    bad_report = wl.op(inputs, 0)
    with open(bad_report["path"], "w", encoding="utf-8") as fh:
        json.dump({**report, "pass": False}, fh)
    assert _fails(wl, inputs, bad_report)


def test_ddf_checks_fail_on_perturbed_outputs(monkeypatch):
    wl = W.DDFHighres(n=2048)
    inputs = wl.setup(3)
    result = wl.op(inputs, 0)
    names = lambda res: {nm for nm, v, tol in wl.check(inputs, res) if not v <= tol}
    assert names(result) == set()

    bad = copy.deepcopy(result)
    field = bad["-"]["mode_sum"]
    bad["-"]["mode_sum"] = type(field)(field.values + 1e-4 * np.max(np.abs(field.values)))
    assert names(bad) == {"ddf.reconstruction.err_over_tol"}

    bad = copy.deepcopy(result)
    deg, z_direct, z_via = bad["+"]["pairs"][2]
    bad["+"]["pairs"][2] = (deg, z_direct, z_via * (1 + 1e-3))
    assert names(bad) == {"ddf.substitution.err_over_tol"}

    invert = W.numerics.invert_monotone

    def off_by_a_bit(cmap):
        inv = invert(cmap)
        return type(inv)(periodic=inv.periodic + 1e-8, deriv=inv.deriv)

    monkeypatch.setattr(W.numerics, "invert_monotone", off_by_a_bit)
    assert names(result) == {"numerics.invert_monotone.roundtrip_err"}


def test_wilson_check_fails_on_perturbed_loop():
    wl = W.SignatureWords(n=256, degree=2, n_max=2)
    inputs = wl.setup(3)
    result = wl.op(inputs, 0)
    assert not _fails(wl, inputs, result)
    result["wilson"] += 1e-7
    assert _fails(wl, inputs, result)
    result["wilson"] -= 1e-7
    result["z"][(0,)] *= 1.0 + 1e-3
    assert _fails(wl, inputs, result)


def _traced(wl, inputs, index=0):
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        _, spans, counters, _ = tracer.run_root(lambda: wl.op(inputs, index))
    finally:
        uninstall()
    return spans, counters


@pytest.mark.parametrize("name", ["ddf_highres", "signature_words"])
def test_self_times_add_up_to_the_root(name, tmp_path):
    wl = tiny(name, tmp_path)
    inputs = wl.setup(3)
    wl.op(inputs, 0)  # warm caches before timing
    spans, _ = _traced(wl, inputs)
    root = [s for s in spans if s.name == tr.ROOT]
    assert len(root) == 1
    total = sum(tr.self_times(spans).values())
    assert total == pytest.approx(root[0].t1 - root[0].t0, rel=0.02)


def test_children_nest_in_parents_across_the_thread_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("CLOSEDSTRING_THREADS", "2")
    wl = tiny("verify_all", tmp_path)
    inputs = wl.setup(3)
    spans, counters = _traced(wl, inputs)
    by_id = {s.sid: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == [tr.ROOT]
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.t0 <= s.t0 and s.t1 <= parent.t1, (s.name, parent.name)
    suites = [s for s in spans if s.name == "verify.periodicity"]
    assert len(suites) == wl.ensemble
    assert {by_id[s.parent].name for s in suites} == {"verify.run_suites"}
    assert all(v >= 0.0 for v in tr.self_times(spans).values())
    assert counters["verify.pool.wait_s"] >= 0.0


def test_install_wraps_every_binding_and_uninstall_restores():
    from closedstring import ddf, numerics, pohlmeyer, verify

    originals = (numerics.invert_monotone, ddf.invert_monotone, verify.ddf_modes,
                 ddf.ddf_modes, pohlmeyer.ddf_modes, dict(verify.SUITES))
    undo = tr.install(tr.Tracer())
    try:
        assert ddf.invert_monotone is numerics.invert_monotone is not originals[0]
        assert verify.ddf_modes is ddf.ddf_modes is pohlmeyer.ddf_modes is not originals[3]
        assert verify.SUITES["witt"].__wrapped__ is originals[5]["witt"]
        assert verify.SUITES["negative-controls"].ensemble
    finally:
        undo()
    assert (numerics.invert_monotone, ddf.invert_monotone, verify.ddf_modes,
            ddf.ddf_modes, pohlmeyer.ddf_modes, dict(verify.SUITES)) == originals


def test_self_time_subtracts_the_union_of_children():
    spans = [tr.Span(1, None, "a", 0.0), tr.Span(2, 1, "b", 1.0), tr.Span(3, 1, "c", 2.0)]
    for s, t1 in zip(spans, (10.0, 4.0, 6.0)):
        s.t1 = t1
    assert tr.self_times(spans) == {1: 5.0, 2: 3.0, 3: 4.0}


def test_benchmark_json_matches_the_metrics_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metrics.per_layer()
    assert {m["name"] for m in bench["end_to_end"]} == {"op_p50_ref", "peak_rss_mib", "setup_s"}
    from closedstring import verify

    assert tuple(sorted(verify.SUITES)) == metrics.SUITES


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    with pytest.raises(SystemExit):
        run._load_workloads()
