"""The verify runner: its argument checks, its report config and errors
raised inside a suite.  The witt suite is checked against a per-mode
recomputation of the Witt residues, and every row's input digest against
the digest formula applied row by row.
"""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

import closedstring as cs
from closedstring import verify
from closedstring.phase_space import state_to_json
from closedstring.poisson import chart_for, gradient, virasoro_mode
from closedstring.reparam import pullback_weight_one
from oracles import RotationMap, dense_omega, virasoro_mode_direct

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


def _witt_residue_per_mode(state, window, n):
    """max |{L_m, L_k} + i(m - k) L_{m+k}| / scale from scalar gradients, mode by mode."""
    chart = chart_for(state)
    omega = dense_omega(chart)
    onorm = np.linalg.norm(omega, 2)
    modes = range(-window, window + 1)
    grads = {m: gradient(virasoro_mode("-", m, n), state, check=False) for m in modes}
    worst = 0.0
    for m in modes:
        for k in modes:
            br = complex(grads[m] @ (omega @ grads[k]))
            target = -1j * (m - k) * virasoro_mode_direct(state, "-", m + k)
            denom = np.linalg.norm(grads[m]) * np.linalg.norm(grads[k]) * onorm
            worst = max(worst, abs(br - target) / denom)
    return worst


@pytest.mark.parametrize("seed", [1, 2])
def test_witt_suite_matches_per_mode_oracle(frame, seed):
    state = cs.random_state(4, 8, seed=seed, frame=frame)
    params = verify.default_params()
    [row] = verify.suite_witt(verify.StateRecord(state, frame, params), verify.DEFAULT_TOLERANCES)
    want = _witt_residue_per_mode(state, params["m_window"], params["obs_n"])
    # residues are normalized to at most about 1, so the bound is absolute on that scale
    assert row["measured"] == pytest.approx(want, rel=0, abs=1e-12)
    assert row["pass"]


def _row_digest(row, states, params):
    """sha256 of json.dumps({"state": state_to_json(s), **extras}) for the row's suite."""
    suite, name = row["suite"], row["name"]
    state = states[0] if suite == "negative-controls" else states[row["state_index"]]
    if suite in ("reality", "periodicity", "shuffle", "reparam"):
        extras = {"n": params["n"]}
    elif suite == "transversality":
        extras = {"n": params["n"], "m_out": params["m_out"]}
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
    # per state and chirality: one clock on the n-grid, inverted once (periodicity
    # reads the inverse, the DDF modes its substituted field), one field on the
    # n-grid and one Virasoro window (poisson, witt and negative-controls share
    # them); per state, 7 interpolations: periodicity's 2 round trips and
    # reparam's 5 diffeo pullbacks (its rotations are phases on the modes)
    from closedstring import ddf, numerics, phase_space, poisson

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
    tally(poisson, "_window_gradients")
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
    assert per_state == {"invert_monotone": 2, "compute_R": 2, "eval_field": 2,
                         "_window_gradients": 2, "trig_interpolate": 7}


def test_two_records_build_their_clocks_at_once(monkeypatch, frame):
    # two jobs build their own records' pieces at once; one lock shared by
    # every record (as functools.cached_property holds on Python 3.11) would
    # hold the second build until the first ended, and the barrier would break
    barrier = threading.Barrier(2, timeout=5)
    compute_R = verify.compute_R

    def meeting(*args):
        barrier.wait()
        return compute_R(*args)

    monkeypatch.setattr(verify, "compute_R", meeting)
    params = {**verify.default_params(), "n": 256}
    records = [verify.StateRecord(cs.random_state(4, 8, seed=s, frame=frame), frame, params)
               for s in (1, 2)]
    errors = []

    def build(record):
        try:
            record.clocks
        except threading.BrokenBarrierError as exc:
            errors.append(exc)

    workers = [threading.Thread(target=build, args=(r,)) for r in records]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert [sorted(r.clocks) for r in records] == [["+", "-"]] * 2


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
