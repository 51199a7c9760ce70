"""The verify runner: its argument checks, its report config and errors
raised inside a suite.  The witt suite is checked in both chiralities
against a per-mode recomputation of the Witt residues, the reality suite
against the imaginary residue it bounds and a seeded defect in the field,
and every row's input digest against the digest formula applied row by row.
"""

import dataclasses
import hashlib
import json
import sys
import threading

import numpy as np
import pytest

import closedstring as cs
from closedstring import ddf, verify
from closedstring.phase_space import _complex_field, state_to_json
from closedstring.poisson import chart_for, gradient, virasoro_mode
from closedstring.reparam import pullback_weight_one
from oracles import RotationMap, dense_bracket_residues, witt_target

PROBE = "probe"


@pytest.fixture
def frame():
    return cs.default_frame(4)


@pytest.fixture
def states(frame):
    return [cs.random_state(4, 2, seed=s, frame=frame) for s in (1, 2)]


@pytest.mark.parametrize("threads", [1, 2])
def test_config_records_the_worker_count(monkeypatch, frame, states, threads):
    seen = []

    def probe(record, tols):
        seen.append(record.state)
        return [{"name": "probe", "pass": True}]

    monkeypatch.setitem(verify.SUITES, PROBE, probe)
    report = verify.run_suites([PROBE], states, frame, threads=threads)
    assert report["pass"]
    assert sorted(map(id, seen)) == sorted(map(id, states))
    assert report["config"]["threads"] == threads


def test_an_error_in_a_suite_propagates(monkeypatch, frame, states):
    def failing(record, tols):
        raise RuntimeError("suite failed")

    monkeypatch.setitem(verify.SUITES, PROBE, failing)
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="suite failed"):
            verify.run_suites([PROBE], states, frame, threads=threads)


@pytest.mark.parametrize("names", [["reality"], ["witt"], ["negative-controls"]])
def test_run_suites_rejects_an_empty_state_list(monkeypatch, frame, names):
    # an empty ensemble has no rows to fail, so it must not read as a pass
    started = []
    monkeypatch.setattr(verify, "StateRecord", lambda *args: started.append(args))
    with pytest.raises(ValueError, match="at least one state"):
        verify.run_suites(names, [], frame, threads=1)
    assert started == []


def _witt_residue_per_mode(state, chirality, window, n):
    """max |{L_m, L_k} + i(m - k) L_{m+k}| / scale from scalar gradients, mode by mode."""
    modes = range(-window, window + 1)
    grads = {m: gradient(virasoro_mode(chirality, m, n), state, check=False) for m in modes}
    return max(dense_bracket_residues(chart_for(state), grads, grads,
                                      witt_target(state, chirality)).values())


@pytest.mark.parametrize("seed", [1, 2])
def test_witt_suite_matches_per_mode_oracle(frame, seed):
    state = cs.random_state(4, 8, seed=seed, frame=frame)
    params = verify.default_params()
    rows = verify.suite_witt(verify.StateRecord(state, frame, params), verify.DEFAULT_TOLERANCES)
    assert [row["name"] for row in rows] == ["witt[-]", "witt[+]"]
    for chirality, row in zip("-+", rows):
        want = _witt_residue_per_mode(state, chirality, params["m_window"], params["obs_n"])
        # residues are normalized to at most about 1, so the bound is absolute on that scale
        assert row["measured"] == pytest.approx(want, rel=0, abs=1e-12)
        assert row["pass"]


def test_every_bracket_row_reads_the_one_engine(monkeypatch, frame, states):
    # whatever the engine returns is what each bracket row reports
    from closedstring import poisson

    def engine(chart, grads, window, expected):
        return np.full((len(grads), len(window[2])), 0.5)

    monkeypatch.setattr(poisson, "_bracket_residues", engine)
    monkeypatch.setattr(verify, "_bracket_residues", engine)
    report = verify.run_suites(["poisson", "witt", "negative-controls"], states, frame,
                               params={"m_window": 1}, threads=1)
    assert {r["suite"] for r in report["rows"]} == {"poisson", "witt", "negative-controls"}
    assert {r["measured"] for r in report["rows"]} == {0.5}
    obs = virasoro_mode("-", 1)
    [rows] = poisson.invariance_report([obs], states[0], 1)
    assert {r["residue"] for r in rows} == {0.5}


def _row_digest(row, states, params):
    """sha256 of json.dumps({"state": state_to_json(s), **extras}) for the row's suite."""
    suite, name = row["suite"], row["name"]
    state = states[0] if suite == "negative-controls" else states[row["state_index"]]
    if suite in ("reality", "periodicity", "shuffle", "reparam"):
        extras = {"n": params["n"]}
    elif suite == "transversality":
        extras = {"n": params["n"], "m_out": params["m_out"]}
    elif suite == "substitution" and name.endswith(",sigma-form]"):
        extras = {"n": params["n"], "m_out": params["m_out"],
                  "sigma_n": max(params["obs_n"], 1 << (8 * state.truncation - 1).bit_length())}
    elif suite == "substitution":
        extras = {"n": params["n"], "m_out": params["m_out"], "deg": int(name[:-1].split("n=")[1])}
    elif suite in ("poisson", "witt"):
        extras = {"window": params["m_window"]}
    else:
        assert suite == "negative-controls"
        extras = {"i": int(name[:-1].split("[")[1]), "states": len(states)}
    payload = {"state": state_to_json(state), **{k: repr(v) for k, v in extras.items()}}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def test_row_inputs_match_the_digest_of_each_row(frame):
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2, 3)]
    # more workers than cores and frequent switches, so a job that read another
    # job's encodings would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = verify.run_suites(verify.suite_names(), states, frame, threads=4)
    finally:
        sys.setswitchinterval(interval)
    params = report["config"]["params"]
    assert {r["suite"] for r in report["rows"]} == set(verify.SUITES)
    for row in report["rows"]:
        assert row["inputs"] == _row_digest(row, states, params), row["name"]


@pytest.mark.parametrize("threads", [1, 3])
def test_each_clock_and_extraction_is_made_once_per_state(monkeypatch, frame, threads):
    # per state and chirality: one clock on the n-grid, inverted once per
    # resolving grid it takes (periodicity reads the inverse, the DDF modes
    # its substituted field; at n = 1024 chirality "-" of both states
    # resolves on 64 M = 512 points and "+" doubles to 1024), one field on the
    # n-grid and one Virasoro window (poisson, witt and negative-controls share
    # them, and score every bracket through the one engine, once per suite and
    # chirality); per state, 7 interpolations: periodicity's 2 round trips and
    # reparam's 5 diffeo pullbacks (its rotations are phases on the modes), and
    # 2 complex mode sums on the n-grid, reality's alone: reparam's 5 rotated
    # fields are real series like the record's
    from closedstring import numerics, phase_space, poisson

    n = 1024
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2)]
    calls, lock = {}, threading.Lock()

    def tally(home, name, wanted=lambda args: True):
        # count every call, wherever the package binds the function
        fn = getattr(home, name)

        def wrapper(*args, **kwargs):
            if wanted(args):
                with lock:
                    calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("closedstring") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)

    def at_n(pos):
        # a call on the n-grid for one of the states (not for a rotated copy)
        return lambda args: args[pos] == n and any(args[0] is s for s in states)

    tally(ddf, "ddf_modes")
    tally(numerics, "invert_monotone")
    tally(ddf, "compute_R", at_n(3))
    tally(phase_space, "eval_field", at_n(2))
    tally(phase_space, "_complex_field", lambda args: args[2] == n)
    tally(poisson, "_window_gradients")
    tally(poisson, "_bracket_residues")
    tally(numerics, "trig_interpolate")
    # frequent switches, so that two jobs building one piece would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = verify.run_suites(verify.suite_names(), states, frame,
                                   params={"n": n, "m_out": 128}, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert report["pass"]
    per_state = {name: count / len(states) for name, count in calls.items()}
    assert per_state == {"invert_monotone": 3, "compute_R": 2, "eval_field": 2,
                         "_complex_field": 2, "_window_gradients": 2, "_bracket_residues": 6,
                         "trig_interpolate": 7}
    assert not hasattr(poisson, "_invariance_rows")


def test_two_records_build_their_clocks_at_once(monkeypatch, frame):
    # two jobs build their own records' pieces at once; one lock shared by
    # every record (as functools.cached_property holds on Python 3.11) would
    # hold the second build until the first ended, and the barrier would break
    barrier = threading.Barrier(2, timeout=5)
    compute_R = ddf.compute_R

    def meeting(*args):
        barrier.wait()
        return compute_R(*args)

    # random_state calls compute_R too, so the states come before the patch
    params = {**verify.default_params(), "n": 256}
    records = [verify.StateRecord(cs.random_state(4, 8, seed=s, frame=frame), frame, params)
               for s in (1, 2)]
    monkeypatch.setattr(ddf, "compute_R", meeting)
    errors = []

    def build(record):
        try:
            for c in "-+":
                record.inversion(c)
        except threading.BrokenBarrierError as exc:
            errors.append(exc)

    workers = [threading.Thread(target=build, args=(r,)) for r in records]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert all(len(r.inversion(c)) == 3 for r in records for c in "-+")


def test_one_clock_seam_reaches_every_extraction(monkeypatch, frame):
    # a clock defect patched at ddf.compute_R alone reaches verify's rows,
    # ddf_modes and pohlmeyer_via_ddf: the oscillator part of R scaled by
    # 1 + 1e-6, R' scaled with it and the phi0 part kept, so the clock stays
    # a consistent circle map whose inversion converges
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2)]
    spec = cs.InvariantSpec("-", (0, 1, 2))
    params = {"n": 1024, "m_out": 128}

    def outputs():
        report = verify.run_suites(["transversality"], states, frame, params=params, threads=1)
        modes = ddf.ddf_modes(states[0], frame, "+", 128, 1024).modes
        # unaligned: the aligned word is blind to any consistent clock, as
        # Q is then P pulled back by a base-point-preserving diffeo
        via = cs.pohlmeyer_via_ddf(states[0], frame, spec, 128, 1024, align=False)
        return report, modes, via

    clean, clean_modes, clean_via = outputs()
    assert clean["pass"]
    compute_R = ddf.compute_R

    def defective(state, frame, chirality, n, require_monotone=True):
        clock = compute_R(state, frame, chirality, n, require_monotone)
        phase = -ddf._orientation(chirality) * ddf.zero_mode_phase(state, frame)
        return cs.MonotoneCircleMap(periodic=phase + (1 + 1e-6) * (clock.periodic - phase),
                                    deriv=1.0 + (1 + 1e-6) * (clock.deriv - 1.0),
                                    bandwidth=clock.bandwidth)

    monkeypatch.setattr(ddf, "compute_R", defective)
    report, modes, via = outputs()
    assert [r["name"] for r in report["rows"]] == [r["name"] for r in clean["rows"]]
    assert not any(r["pass"] for r in report["rows"])
    assert not np.array_equal(modes, clean_modes)
    assert via != clean_via


def test_sigma_form_rows_catch_a_mode_defect(monkeypatch, frame):
    # a 1e-9 defect in the modes |m| = 1, patched at ddf._modes_of (the seam
    # where every extraction reads modes from Q's spectrum), fails the
    # sigma-form rows, which take the sigma-integrals without an inversion,
    # and no other
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2)]
    clean = verify.run_suites(["all"], states, frame, threads=1)
    assert clean["pass"]
    modes_of = ddf._modes_of

    def defective(half, frame, chirality, m_out):
        out = modes_of(half, frame, chirality, m_out)
        modes = out.modes.copy()
        modes[m_out - 1:m_out + 2:2] += 1e-9 * np.max(np.abs(modes))
        return dataclasses.replace(out, modes=modes)

    # every module that binds the seam, the record's and pohlmeyer's too
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("closedstring") \
                and getattr(mod, "_modes_of", None) is modes_of:
            monkeypatch.setattr(mod, "_modes_of", defective)
    report = verify.run_suites(["all"], states, frame, threads=1)
    failed = sorted((r["state_index"], r["name"]) for r in report["rows"] if not r["pass"])
    assert failed == [(i, f"substitution[{c},sigma-form]") for i in (0, 1) for c in "+-"]
    assert [r["name"] for r in report["rows"]] == [r["name"] for r in clean["rows"]]


def test_each_record_is_read_by_one_thread(monkeypatch, frame):
    # the job that makes a record is its only reader: every piece of it, the
    # Virasoro windows that negative-controls, poisson and witt share
    # included, is asked for on that job's thread
    readers = {}
    once = verify.StateRecord._once

    def tracked(record, key, build):
        readers.setdefault(record, set()).add(threading.get_ident())
        return once(record, key, build)

    monkeypatch.setattr(verify.StateRecord, "_once", tracked)
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        verify.run_suites(["negative-controls", "poisson", "witt"], states, frame,
                          params={"obs_n": 256}, threads=2)
    finally:
        sys.setswitchinterval(interval)
    assert len(readers) == len(states)
    assert [len(threads) for threads in readers.values()] == [1] * len(states)


def test_rows_do_not_depend_on_suite_selection_or_order(frame):
    # a piece built first by another suite, or not at all, must not move a row
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2)]

    def rows_by_suite(names):
        report = verify.run_suites(names, states, frame, params={"n": 1024, "m_out": 128},
                                   threads=2)
        out = {}
        for row in report["rows"]:
            out.setdefault(row["suite"], []).append(row)
        return out

    together = rows_by_suite(["all"])
    backwards = rows_by_suite(verify.suite_names()[::-1])
    assert backwards == together
    for name in verify.suite_names():
        assert rows_by_suite([name]) == {name: together[name]}


@pytest.mark.parametrize("c", [0.5, 1.6, 3.8, 4.9, -2.3, 7.0])
def test_mode_rotation_matches_the_interpolated_pullback(state_bank, c):
    # the reparam suite's exact rotation against the independent route:
    # F(sigma + c) interpolated from the unrotated samples
    for state in state_bank[:5]:
        field = cs.eval_field(state, "-", 1024)
        rotated = verify._rotated_field(state, c, 1024)
        assert rotated.bandwidth == state.truncation
        want = pullback_weight_one(field, RotationMap(c)).values
        assert np.max(np.abs(rotated.values - want)) <= 1e-13 * np.max(np.abs(want))


def test_reparam_rotates_on_the_word_grid_with_fixed_diffeos(monkeypatch, frame):
    # each rotated field is made on its word's alias-free grid (64 samples at
    # M = 8), and the five diffeos are one constant whose grid samples the
    # states share
    sizes = []
    rotated = verify._rotated_field

    def recorded(state, c, n):
        sizes.append(n)
        return rotated(state, c, n)

    monkeypatch.setattr(verify, "_rotated_field", recorded)
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2)]
    report = verify.run_suites(["reparam"], states, frame, threads=1)
    assert report["pass"] and sizes == [64] * 10
    n = verify.default_params()["n"]
    for diffeo in verify.REPARAM_DIFFEOS:
        assert diffeo.fixes_base_point() and n in diffeo._grids


def test_reality_is_never_below_the_imaginary_residue(state_bank, frame4):
    # reality reads max|Z/sqrt(2 pi) - P| / max|P|, Z the complex mode sum;
    # |Z/sqrt(2 pi) - P| >= |Im Z|/sqrt(2 pi), the residue it read before
    n = verify.default_params()["n"]
    report = verify.run_suites(["reality"], state_bank, frame4, threads=1)
    assert report["pass"]
    for row in report["rows"]:
        state, chir = state_bank[row["state_index"]], row["name"][-2]
        z = _complex_field(state, chir, n)
        old = np.max(np.abs(z.imag)) / np.max(np.abs(z.real))
        assert old <= row["measured"] <= 1e-13, row


def test_reality_fails_a_field_off_by_one_part_in_1e9(monkeypatch, frame):
    # the field every suite reads, one component scaled by 1 + 1e-9
    eval_field = verify.eval_field

    def skewed(state, chirality, n):
        values = eval_field(state, chirality, n).values.copy()
        values[:, 1] *= 1.0 + 1e-9
        return cs.FieldGrid(values, state.truncation)

    monkeypatch.setattr(verify, "eval_field", skewed)
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2)]
    report = verify.run_suites(["reality"], states, frame, params={"n": 512}, threads=1)
    assert not report["pass"]
    assert not any(r["pass"] for r in report["rows"])


@pytest.mark.parametrize("names, records", [(["reality"], 2), (["negative-controls"], 2),
                                            (["negative-controls", "reality"], 2)])
def test_jobs_run_only_for_selected_suites(monkeypatch, frame, names, records):
    # one record per state, made by the state's job; the ensemble reduce
    # after the pool reads the states' parts, not a record of its own
    made = []

    class Counted(verify.StateRecord):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verify, "StateRecord", Counted)
    states = [cs.random_state(4, 8, seed=s, frame=frame) for s in (1, 2)]
    verify.run_suites(names, states, frame, params={"n": 256}, threads=1)
    assert len(made) == records


def test_run_suites_rejects_an_unknown_param_name():
    # a misspelt name (obs_grid for obs_n) must not run on the default
    frame = cs.default_frame(4)
    with pytest.raises(KeyError, match="obs_grid") as err:
        verify.run_suites(["reality"], [cs.random_state(4, 8, 1, frame=frame)], frame,
                          params={"obs_grid": 256}, threads=1)
    assert "'obs_n'" in str(err.value)
