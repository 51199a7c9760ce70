"""Named verification suites producing machine-readable report rows.

Each suite maps a state's :class:`StateRecord` to a list of check rows
{name, inputs, measured, tolerance, comparison, pass}.  Rows with
comparison "le" pass when measured <= tolerance; negative controls use
"ge".  A thread pool runs one job per state, which runs the suites on that
state in turn, plus one job for the ensemble suite when it runs, so
workers beyond states + 1 sit idle (pure functions, so row content is
independent of the thread count); row order is canonical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from . import __version__
from .ddf import DDFInvariantSpec, compute_R, ddf_modes, reconstruct_field
from .numerics import TAU, grid_sigma, invert_monotone, trig_interpolate
from .phase_space import _complex_field, _non_real, eta_dot, eval_field, state_to_json
from .pohlmeyer import InvariantSpec, align_base_point, pohlmeyer_invariant, reparam_check
from .poisson import (DEFAULT_OBS_GRID, _window_gradients, chart_for, ddf_invariant_observable,
                      invariance_report, pohlmeyer_observable, virasoro_mode)
from .reparam import random_diffeo

THREAD_ENV = "CLOSEDSTRING_THREADS"

DEFAULT_TOLERANCES = {
    "reality": 1e-13,
    "periodicity": 1e-10,
    "transversality": 1e-10,
    "shuffle2": 1e-10,
    "shuffle3": 1e-9,
    "reparam": 1e-8,
    "substitution": 1e-6,
    "poisson": 1e-5,
    "witt": 1e-5,
    "negative-controls": 1e-2,
}

SUITES = {}


def _suite(name):
    def deco(fn):
        SUITES[name] = fn
        return fn
    return deco


def _row(name, digest, measured, tol, comparison="le"):
    ok = measured <= tol if comparison == "le" else measured >= tol
    return {
        "name": name,
        "inputs": digest,
        "measured": float(measured),
        "tolerance": float(tol),
        "comparison": comparison,
        "pass": bool(ok),
    }


class StateRecord:
    """A state with its frame and params, and the pieces several suites read:
    its JSON text and both chiralities' clocks R and DDF modes A_m (at params
    n and m_out), each built on first use and kept as long as the record."""

    def __init__(self, state, frame, params):
        self.state, self.frame, self.params = state, frame, params

    @cached_property
    def text(self):
        return state_to_json(self.state)

    @cached_property
    def clocks(self):
        return {c: compute_R(self.state, self.frame, c, self.params["n"]) for c in ("-", "+")}

    @cached_property
    def modes(self):
        m_out, n = self.params["m_out"], self.params["n"]
        return {c: ddf_modes(self.state, self.frame, c, m_out, n) for c in ("-", "+")}


def _digest(record, **extras):
    payload = {"state": record.text, **{k: repr(v) for k, v in extras.items()}}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _power_scale(field, degree):
    peak = TAU * float(np.max(np.abs(field.values)))
    out = 1.0
    for j in range(1, degree + 1):
        out *= peak / j
    return out


def _rotated_field(state, c, n):
    """P_-(sigma + c), the state's field rotated rigidly by c, on the n-grid.

    Exact as alpha_m e^{i m c} on the modes (the pattern of
    :func:`~closedstring.ddf._rotate_modes`), so the field keeps bandwidth M.
    """
    phases = np.exp(1j * (c * np.arange(1, state.truncation + 1)))
    return eval_field(state.replace(left=state.left * phases[:, None]), "-", n)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

@_suite("reality")
def suite_reality(record, tols):
    # the residue eval_field checks and discards, on the same samples
    n = record.params["n"]
    tol = tols["reality"]
    rows = []
    for chir in ("-", "+"):
        resid = _non_real(_complex_field(record.state, chir, n))
        rows.append(_row(f"reality[{chir}]", _digest(record, n=n), resid, tol))
    return rows


@_suite("periodicity")
def suite_periodicity(record, tols):
    n = record.params["n"]
    tol = tols["periodicity"]
    rows = []
    for chir in ("-", "+"):
        cmap = record.clocks[chir]
        inv = invert_monotone(cmap)
        # winding R(sigma+2pi) = R(sigma)+2pi is exact by representation;
        # measure R(R^-1(sigma)) = sigma through R's exact interpolant
        pts = inv.values()
        fwd = pts + trig_interpolate(cmap.periodic, pts)
        err = float(np.max(np.abs(fwd - grid_sigma(n))))
        rows.append(_row(f"roundtrip[{chir}]", _digest(record, n=n), err, tol))
    return rows


@_suite("transversality")
def suite_transversality(record, tols):
    n, m_out = record.params["n"], record.params["m_out"]
    tol = tols["transversality"]
    rows = []
    for chir in ("-", "+"):
        modes = record.modes[chir]
        kdots = np.abs(eta_dot(modes.modes, record.frame.k))
        kdots[m_out] = 0.0  # m = 0 carries the full k.p
        resid = float(kdots.max()) / max(float(np.max(np.abs(modes.modes))), 1e-300)
        rows.append(_row(f"transversality[{chir}]", _digest(record, n=n, m_out=m_out), resid, tol))
    return rows


@_suite("shuffle")
def suite_shuffle(record, tols):
    n = record.params["n"]
    field = eval_field(record.state, "-", n)
    d = record.state.dim
    rows = []

    z1 = {mu: pohlmeyer_invariant(field, InvariantSpec("-", (mu,))) for mu in range(d)}
    z2 = {(mu, nu): pohlmeyer_invariant(field, InvariantSpec("-", (mu, nu)))
          for mu in range(d) for nu in range(d)}
    scale2 = max(abs(v) for v in z2.values()) + max(abs(v) ** 2 for v in z1.values())
    worst2 = max(abs(z1[mu] * z1[nu] - z2[(mu, nu)] - z2[(nu, mu)]) / scale2
                 for mu in range(d) for nu in range(d))
    rows.append(_row("shuffle[deg2]", _digest(record, n=n), worst2, tols["shuffle2"]))

    # every degree-3 word, asked in sorted order: pohlmeyer_invariant serves the
    # D^2 words under each first letter from one block
    z3 = {w: pohlmeyer_invariant(field, InvariantSpec("-", w))
          for w in itertools.product(range(d), repeat=3)}
    scale3 = max(abs(v) for v in z3.values()) + max(abs(v) ** 3 for v in z1.values())
    worst3 = max(abs(z1[mu] * z2[(nu, rho)]
                     - z3[(mu, nu, rho)] - z3[(nu, mu, rho)] - z3[(nu, rho, mu)]) / scale3
                 for mu, nu, rho in z3)
    rows.append(_row("shuffle[deg3]", _digest(record, n=n), worst3, tols["shuffle3"]))
    return rows


@_suite("reparam")
def suite_reparam(record, tols):
    """Z^{01} of P_- against its transforms, one row per kind.

    ``raw,fixed-base``: the raw word under five base-point-preserving
    diffeos, each a :func:`~closedstring.pohlmeyer.reparam_check` (one
    interpolated pullback).  ``symmetrized,rotations``: the symmetrized
    word under the rigid rotations sigma -> sigma + 0.5 + 1.1 j, j < 5, each
    made exactly by :func:`_rotated_field` (no interpolation), so the
    rotated field keeps bandwidth M and its words run on the alias-free grid.
    """
    n = record.params["n"]
    field = eval_field(record.state, "-", n)
    scale = _power_scale(field, 2)
    raw = InvariantSpec("-", (0, 1))
    diffeos = [reparam_check(field, random_diffeo(seed, order=3, amplitude=0.5,
                                                  fix_base_point=True), raw)
               for seed in range(5)]
    sym = InvariantSpec("-", (0, 1), symmetrized=True)
    direct = pohlmeyer_invariant(field, sym)
    rotations = [(direct, pohlmeyer_invariant(_rotated_field(record.state, 0.5 + 1.1 * j, n), sym))
                 for j in range(5)]
    rows = []
    for label, checks in (("raw,fixed-base", diffeos), ("symmetrized,rotations", rotations)):
        worst = max(abs(d - p) / (abs(d) + scale) for d, p in checks)
        rows.append(_row(f"reparam[{label}]", _digest(record, n=n), worst, tols["reparam"]))
    return rows


@_suite("substitution")
def suite_substitution(record, tols):
    n, m_out = record.params["n"], record.params["m_out"]
    tol = tols["substitution"]
    rows = []
    for chir in ("-", "+"):
        field = eval_field(record.state, chir, n)
        # one extraction per chirality; the invariants share the rebuilt field
        aligned = align_base_point(record.modes[chir], record.clocks[chir])
        rebuilt = reconstruct_field(aligned, n)
        for deg in (1, 2, 3, 4):
            word = tuple(i % record.state.dim for i in range(deg))
            spec = InvariantSpec(chir, word)
            direct = pohlmeyer_invariant(field, spec)
            via = pohlmeyer_invariant(rebuilt, spec)
            scale = abs(direct) + _power_scale(field, deg)
            rows.append(_row(f"substitution[{chir},n={deg}]",
                             _digest(record, n=n, m_out=m_out, deg=deg),
                             abs(direct - via) / scale, tol))
    return rows


@_suite("poisson")
def suite_poisson(record, tols):
    window = record.params["m_window"]
    n = record.params["obs_n"]
    tol = tols["poisson"]
    specs = [InvariantSpec("-", (0,)),
             InvariantSpec("-", (0, 1), symmetrized=True),
             InvariantSpec("+", (1, 2), symmetrized=True)]
    observables = [pohlmeyer_observable(s, n) for s in specs]
    observables.append(ddf_invariant_observable(
        DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1), record.frame, n))
    reports = invariance_report(observables, record.state, window, n_samples=n)
    digest = _digest(record, window=window)
    return [_row(f"poisson[{obs.name}]", digest, max(r["residue"] for r in rep), tol)
            for obs, rep in zip(observables, reports)]


@_suite("witt")
def suite_witt(record, tols):
    # {L_m, L_k} = -i (m - k) L_{m+k} over |m|, |k| <= w: gradients of the
    # window from one reverse pass, values for |m| <= 2w from one evaluation
    window = record.params["m_window"]
    n = record.params["obs_n"]
    tol = tols["witt"]
    state = record.state
    ms = np.arange(-window, window + 1)
    grads, omega_grads, norms = _window_gradients(state, "-", window, n)
    values = virasoro_mode("-", range(-2 * window, 2 * window + 1), n).fn(state)
    brackets = grads @ omega_grads.T
    target = -1j * np.subtract.outer(ms, ms) * values[np.add.outer(ms, ms) + 2 * window]
    denom = np.outer(norms, norms) * chart_for(state).omega_norm()
    worst = float(np.max(np.abs(brackets - target) / np.maximum(denom, 1e-300)))
    return [_row("witt[-]", _digest(record, window=window), worst, tol)]


NEGATIVE_CONTROLS = [
    DDFInvariantSpec(left=[], right=[], level=1, allow_unmatched=True),
    DDFInvariantSpec(left=[], right=[(1, 1)], level=2, allow_unmatched=True),
    DDFInvariantSpec(left=[(1, 1)], right=[], level=4, allow_unmatched=True),
]


@_suite("negative-controls")
def suite_negative_controls(records, tols):
    # ensemble check: each unmatched control must produce a residue >= tol
    # somewhere on the state ensemble (its normalized size is state-dependent,
    # so single tame states are not failures of the control)
    window = records[0].params["m_window"]
    n = records[0].params["obs_n"]
    tol = tols["negative-controls"]
    observables = [ddf_invariant_observable(spec, records[0].frame, n) for spec in NEGATIVE_CONTROLS]
    loudest = [0.0] * len(observables)
    for record in records:
        reports = invariance_report(observables, record.state, window, n_samples=n)
        loudest = [max(peak, max(r["residue"] for r in rep)) for peak, rep in zip(loudest, reports)]
    return [_row(f"negative-control[{i}]", _digest(records[0], i=i, states=len(records)),
                 peak, tol, comparison="ge")
            for i, peak in enumerate(loudest)]


suite_negative_controls.ensemble = True


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------

def default_params():
    return {"n": 4096, "m_out": 512, "m_window": 4, "obs_n": DEFAULT_OBS_GRID}


def thread_count():
    """Worker count: ``CLOSEDSTRING_THREADS`` if set, else up to 8 cores.

    Raises ValueError, naming the variable, for a value that is not an
    integer of at least 1.
    """
    env = os.environ.get(THREAD_ENV)
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{THREAD_ENV} must be an integer >= 1, got {env!r}")
    return count


def run_suites(names, states, frame, params=None, tolerances=None, threads=None,
               provenance=None):
    """Run the named suites over all states and assemble the report.

    ``all`` stands for every suite in sorted order, in its place among the
    names; a suite named more than once, by itself or through ``all``, runs
    once, in the order of its first name.  Missing ``params`` keys take
    :func:`default_params`.
    When per-state suites are selected, one job per state runs them in the
    order given on that state's :class:`StateRecord`, dropped when the job
    ends; when an ensemble suite is selected, one more job runs it on
    records of all states.  A clock or DDF extraction is charged to the
    ``timings`` of the first suite that asks for it.
    ``provenance`` (state paths, generator seeds) is echoed into the report
    so a run can be reproduced exactly from its own output, and the
    report's ``config`` records the workers (``threads``).  Before any job
    starts it raises KeyError for an unknown suite, parameter or tolerance
    name, ValueError for an empty ``states``, for ``threads`` < 1 and, when
    a Virasoro suite (poisson, witt, negative-controls) is selected, for an
    ``m_window`` outside 1..min(M)//2 over the states.
    """
    names = list(dict.fromkeys(x for nm in names for x in (suite_names() if nm == "all" else [nm])))
    unknown = [nm for nm in names if nm not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}; known: {suite_names()}")
    unknown = [nm for nm in (params or {}) if nm not in default_params()]
    if unknown:
        raise KeyError(f"unknown params: {unknown}; known: {sorted(default_params())}")
    params = {**default_params(), **(params or {})}
    unknown = [nm for nm in (tolerances or {}) if nm not in DEFAULT_TOLERANCES]
    if unknown:
        raise KeyError(f"unknown tolerances: {unknown}; known: {sorted(DEFAULT_TOLERANCES)}")
    tols = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    if not states:
        raise ValueError("verify needs at least one state")
    workers = thread_count() if threads is None else threads
    if workers < 1:
        raise ValueError(f"threads must be >= 1, got {workers}")
    if {"poisson", "witt", "negative-controls"} & set(names):
        limit = min(s.truncation for s in states) // 2
        if not 1 <= params["m_window"] <= limit:
            raise ValueError(f"m_window must be in 1..{limit} (min M/2 over the states), "
                             f"got {params['m_window']}")
    ensemble = [nm for nm in names if getattr(SUITES[nm], "ensemble", False)]
    per_state = [nm for nm in names if nm not in ensemble]
    jobs = [(ensemble, -1)] * bool(ensemble) + [(per_state, idx) for idx in range(len(states))
                                                if per_state]

    def run(job):
        suites, idx = job
        payload = ([StateRecord(s, frame, params) for s in states] if idx < 0
                   else StateRecord(states[idx], frame, params))
        results = []
        for nm in suites:
            t0, c0 = time.perf_counter(), time.thread_time()
            out = SUITES[nm](payload, tols)
            for r in out:
                r["suite"] = nm
                r["state_index"] = idx
            results.append((nm, (t0, time.perf_counter(), time.thread_time() - c0), out))
        return results

    with ThreadPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(run, jobs))

    # per suite: wall_s spans its first job start to its last job end (jobs
    # overlap across workers); cpu_s sums its jobs' worker-thread CPU time
    spans, rows = {}, []
    for nm, (t0, t1, cpu), out in (res for job in done for res in job):
        first, last, total = spans.get(nm, (t0, t1, 0.0))
        spans[nm] = (min(first, t0), max(last, t1), total + cpu)
        rows.extend(out)
    timings = {nm: {"wall_s": t1 - t0, "cpu_s": cpu}
               for nm, (t0, t1, cpu) in sorted(spans.items())}
    rows.sort(key=lambda r: (r["suite"], r["state_index"], r["name"]))
    return {
        "tool": "closedstring",
        "version": __version__,
        "config": {
            "suites": list(names),
            "params": params,
            "tolerances": tols,
            "frame": [float(v) for v in frame.k],
            "states": len(states),
            "provenance": provenance or {},
            "threads": workers,
        },
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
        "timings": timings,
    }


def suite_names():
    return sorted(SUITES)
