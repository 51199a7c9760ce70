"""Named verification suites producing machine-readable report rows.

Each suite maps a state's :class:`StateRecord` to a list of check rows
{name, inputs, measured, tolerance, comparison, pass}.  Rows with
comparison "le" pass when measured <= tolerance; negative controls use
"ge".  A thread pool runs one job per state, so workers beyond the state
count sit idle: the job makes its state's record, runs the selected suites
on it in turn and drops it when it returns, so no record is read by two
threads.  An ensemble suite returns a per-state part instead of rows, and
its ``ensemble`` reduce makes the rows from every state's part after the
pool.  Each piece of a record is a pure function of the state, so row
content is independent of the thread count and of which suite built the
piece; row order is canonical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
# ddf_modes is not called here (the record reads its modes from its own
# inversions) but stays bound: perfbench's tracer test checks every binding
from .ddf import (DDFInvariantSpec, _check_grid, _invert, _lift_map, _mode_quadrature, _modes_of,
                  ddf_modes, reconstruct_field)
from .numerics import TAU, _alias_free_size, grid_sigma, trig_interpolate
from .phase_space import _complex_field, eta_dot, eval_field, state_to_json
from .pohlmeyer import (InvariantSpec, align_base_point, pohlmeyer_invariant, pohlmeyer_invariants,
                        reparam_check)
from .poisson import (DEFAULT_OBS_GRID, _bracket_residues, _window_gradients, chart_for,
                      ddf_invariant_observable, gradient, pohlmeyer_observable, virasoro_mode)
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
    # the sigma-form rows: clean values <= 8.3e-16 over seeds 1-20 at D = 4 and
    # 26, N = 4096 and 8192, in the default frame and in 1,0,1,0
    "sigma-form": 1e-12,
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


def _digest(text, **extras):
    """The row digest: sha256 of a state's JSON text with the row's extras, 12 hex digits."""
    blob = json.dumps({"state": text, **{k: repr(v) for k, v in extras.items()}},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


class StateRecord:
    """A state with its frame and params, and the pieces several suites read.

    :func:`run_suites` makes one record per state inside the state's job,
    and the record lives as long as that job, so only one thread ever reads
    it.  Each piece is built on first use, once, and kept in a plain dict:

    - ``inversion(chirality)``: [R, R^{-1}, Q], the clock on the n-grid and
      one inversion of it carrying P on Q's resolving grid N_c
      (:func:`~closedstring.ddf._invert`, the route of
      :func:`~closedstring.ddf.ddf_modes` and
      :func:`~closedstring.ddf.substitute`), R^{-1} lifted to the n-grid by
      one zero-padded ``irfft`` (:func:`~closedstring.ddf._lift_map`);
      periodicity reads R and R^{-1}, substitution reads R;
    - ``modes(chirality)``: the DDF modes |m| <= m_out, read from Q as
      :func:`~closedstring.ddf.ddf_modes` reads them, m_out checked first,
      with exact zeros above N_c/2 - 1; Q is dropped then;
    - ``field(chirality)``: P on the n-grid, from one
      :func:`~closedstring.phase_space.eval_field`;
    - ``window(chirality)``: the Virasoro window of :func:`~closedstring.poisson._window_gradients`,
      |m| <= m_window, at obs_n, scored by :func:`~closedstring.poisson._bracket_residues`;
    - ``digest(**extras)``: the row digest (:func:`_digest`) of the state's
      JSON text and extras.
    """

    def __init__(self, state, frame, params):
        self.state, self.frame, self.params = state, frame, params
        self._pieces = {}

    def _once(self, key, build):
        if key not in self._pieces:
            self._pieces[key] = build()
        return self._pieces[key]

    def inversion(self, chirality):
        # [R, R^{-1}, Q]; Q is read once, by the modes, and then dropped
        def build():
            n = self.params["n"]
            clock, inverse, q = _invert(self.state, self.frame, chirality, n)
            return [clock, _lift_map(inverse, n), q]

        return self._once(("inversion", chirality), build)

    def modes(self, chirality):
        def build():
            m_out = self.params["m_out"]
            _check_grid(self.state, m_out, self.params["n"])
            inversion = self.inversion(chirality)
            modes = _modes_of(inversion[2], self.frame, chirality, m_out)
            # Q has no other reader: kept to the job's end, the (n, D) array
            # would sit under substitution's word sweeps
            inversion[2] = None
            return modes

        return self._once(("modes", chirality), build)

    def field(self, chirality):
        return self._once(("field", chirality),
                          lambda: eval_field(self.state, chirality, self.params["n"]))

    def window(self, chirality):
        return self._once(("window", chirality), lambda: _window_gradients(
            self.state, chirality, self.params["m_window"], self.params["obs_n"]))

    def digest(self, **extras):
        text = self._once("text", lambda: state_to_json(self.state))
        key = ("digest", *sorted((k, repr(v)) for k, v in extras.items()))
        return self._once(key, lambda: _digest(text, **extras))


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
    # the record's field P (one irfft) against Z/sqrt(2 pi), Z the complex
    # two-sided mode sum: max|Z/sqrt(2 pi) - P| / max|P|, never below max|Im Z|'s share
    n = record.params["n"]
    tol = tols["reality"]
    rows = []
    for chir in ("-", "+"):
        field = record.field(chir).values
        # in place: two (n, D) complex temporaries per job would raise the peak RSS
        gap = _complex_field(record.state, chir, n)
        gap /= np.sqrt(TAU)
        gap -= field
        resid = float(np.max(np.abs(gap))) / max(float(np.max(np.abs(field))), 1e-300)
        rows.append(_row(f"reality[{chir}]", record.digest(n=n), resid, tol))
    return rows


@_suite("periodicity")
def suite_periodicity(record, tols):
    n = record.params["n"]
    tol = tols["periodicity"]
    rows = []
    for chir in ("-", "+"):
        cmap, inverse, _ = record.inversion(chir)
        # winding R(sigma+2pi) = R(sigma)+2pi is exact by representation;
        # measure R(R^-1(sigma)) = sigma through R's exact interpolant
        pts = inverse.values()
        fwd = pts + trig_interpolate(cmap.periodic, pts, bandwidth=cmap.bandwidth)
        err = float(np.max(np.abs(fwd - grid_sigma(n))))
        rows.append(_row(f"roundtrip[{chir}]", record.digest(n=n), err, tol))
    return rows


@_suite("transversality")
def suite_transversality(record, tols):
    n, m_out = record.params["n"], record.params["m_out"]
    tol = tols["transversality"]
    rows = []
    for chir in ("-", "+"):
        modes = record.modes(chir)
        kdots = np.abs(eta_dot(modes.modes, record.frame.k))
        kdots[m_out] = 0.0  # m = 0 carries the full k.p
        resid = float(kdots.max()) / max(float(np.max(np.abs(modes.modes))), 1e-300)
        rows.append(_row(f"transversality[{chir}]", record.digest(n=n, m_out=m_out), resid, tol))
    return rows


@_suite("shuffle")
def suite_shuffle(record, tols):
    n = record.params["n"]
    field = record.field("-")
    d = record.state.dim
    rows = []

    # every word of degree 1 to 3 in one sweep: it reads each degree's words in
    # sorted order, from the fewest blocks that fit their bound (one block of all
    # D^3 words at D=4 on a banded field, D^2 words under each first letter at D=26)
    words = [w for degree in (1, 2, 3) for w in itertools.product(range(d), repeat=degree)]
    z = dict(zip(words, pohlmeyer_invariants(field, [InvariantSpec("-", w) for w in words])))
    z1 = {mu: z[(mu,)] for mu in range(d)}
    z2 = {w: z[w] for w in words if len(w) == 2}
    scale2 = max(abs(v) for v in z2.values()) + max(abs(v) ** 2 for v in z1.values())
    worst2 = max(abs(z1[mu] * z1[nu] - z2[(mu, nu)] - z2[(nu, mu)]) / scale2
                 for mu in range(d) for nu in range(d))
    rows.append(_row("shuffle[deg2]", record.digest(n=n), worst2, tols["shuffle2"]))

    z3 = {w: z[w] for w in words if len(w) == 3}
    scale3 = max(abs(v) for v in z3.values()) + max(abs(v) ** 3 for v in z1.values())
    worst3 = max(abs(z1[mu] * z2[(nu, rho)]
                     - z3[(mu, nu, rho)] - z3[(nu, mu, rho)] - z3[(nu, rho, mu)]) / scale3
                 for mu, nu, rho in z3)
    rows.append(_row("shuffle[deg3]", record.digest(n=n), worst3, tols["shuffle3"]))
    return rows


# the base-point-preserving diffeos of the reparam suite; each keeps its
# samples per grid (ReparamMap.on_grid), made on the first state
REPARAM_DIFFEOS = tuple(random_diffeo(seed, order=3, amplitude=0.5, fix_base_point=True)
                        for seed in range(5))


@_suite("reparam")
def suite_reparam(record, tols):
    """Z^{01} of P_- against its transforms, one row per kind.

    ``raw,fixed-base``: the raw word under the five base-point-preserving
    diffeos of ``REPARAM_DIFFEOS``, each a
    :func:`~closedstring.pohlmeyer.reparam_check`: one pullback, whose
    interpolation reads the field's spectrum from its alias-free samples
    (bandwidth M) and takes phi and phi' from the map's own grid samples.
    ``symmetrized,rotations``: the symmetrized word under the rigid
    rotations sigma -> sigma + 0.5 + 1.1 j, j < 5, each made exactly by
    :func:`_rotated_field` (no interpolation) on the word's alias-free grid
    (64 samples at M = 8), where its word runs whatever n is.
    """
    n = record.params["n"]
    field = record.field("-")
    scale = _power_scale(field, 2)
    raw = InvariantSpec("-", (0, 1))
    diffeos = [reparam_check(field, diffeo, raw) for diffeo in REPARAM_DIFFEOS]
    sym = InvariantSpec("-", (0, 1), symmetrized=True)
    direct = pohlmeyer_invariant(field, sym)
    n_word = _alias_free_size(n, record.state.truncation, sym.degree)
    rotations = [(direct, pohlmeyer_invariant(_rotated_field(record.state, 0.5 + 1.1 * j, n_word), sym))
                 for j in range(5)]
    rows = []
    for label, checks in (("raw,fixed-base", diffeos), ("symmetrized,rotations", rotations)):
        worst = max(abs(d - p) / (abs(d) + scale) for d, p in checks)
        rows.append(_row(f"reparam[{label}]", record.digest(n=n), worst, tols["reparam"]))
    return rows


@_suite("substitution")
def suite_substitution(record, tols):
    """Words on P against words on the rebuilt field, and the modes against their sigma form.

    Per chirality, one row per degree 1-4 compares a word on the field P
    with the same word on the DDF-rebuilt field, and one ``sigma-form`` row
    compares the record's modes |m| <= 3, read from Q on its resolving
    grid, with the sigma-integrals (1/sqrt(2 pi)) int P e^{-+ i m R} dsigma
    of :func:`~closedstring.ddf._mode_quadrature`, which take no inversion,
    at obs_n (8M rounded up to a power of two, when that is larger).
    """
    n, m_out = record.params["n"], record.params["m_out"]
    tol = tols["substitution"]
    sigma_n = max(record.params["obs_n"], 1 << (8 * record.state.truncation - 1).bit_length())
    rows = []
    for chir in ("-", "+"):
        field = record.field(chir)
        modes = record.modes(chir)
        k = min(3, m_out)
        read = modes.modes[m_out - k:m_out + k + 1]
        quad = _mode_quadrature(record.state, record.frame, chir, range(-k, k + 1), sigma_n)[0]
        rows.append(_row(f"substitution[{chir},sigma-form]",
                         record.digest(n=n, m_out=m_out, sigma_n=sigma_n),
                         float(np.max(np.abs(read - quad))) / max(float(np.max(np.abs(read))), 1e-300),
                         tols["sigma-form"]))
        # one extraction per chirality; the invariants share the rebuilt field
        aligned = align_base_point(modes, record.inversion(chir)[0])
        rebuilt = reconstruct_field(aligned, n)
        for deg in (1, 2, 3, 4):
            word = tuple(i % record.state.dim for i in range(deg))
            spec = InvariantSpec(chir, word)
            direct = pohlmeyer_invariant(field, spec)
            via = pohlmeyer_invariant(rebuilt, spec)
            scale = abs(direct) + _power_scale(field, deg)
            rows.append(_row(f"substitution[{chir},n={deg}]",
                             record.digest(n=n, m_out=m_out, deg=deg),
                             abs(direct - via) / scale, tol))
    return rows


@_suite("poisson")
def suite_poisson(record, tols):
    n = record.params["obs_n"]
    specs = [InvariantSpec("-", (0,)),
             InvariantSpec("-", (0, 1), symmetrized=True),
             InvariantSpec("+", (1, 2), symmetrized=True)]
    observables = [pohlmeyer_observable(s, n) for s in specs]
    observables.append(ddf_invariant_observable(
        DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1), record.frame, n))
    peaks = _peak_residues(observables, record)
    return [_row(f"poisson[{obs.name}]", record.digest(window=record.params["m_window"]), peak,
                 tols["poisson"]) for obs, peak in zip(observables, peaks)]


def _peak_residues(observables, record):
    """Each observable's peak normalized |{F, L_m}| over both chiralities of the record's window."""
    grads = np.array([gradient(obs, record.state, check=False) for obs in observables])
    return np.max([_bracket_residues(chart_for(record.state), grads, record.window(c), 0.0)
                   for c in "+-"], axis=(0, 2))


@_suite("witt")
def suite_witt(record, tols):
    # {L_m, L_k} = -i (m - k) L_{m+k} over |m|, |k| <= w, in each chirality
    w = record.params["m_window"]
    ms = np.arange(-w, w + 1)

    def worst(chir):
        values = virasoro_mode(chir, range(-2 * w, 2 * w + 1), record.params["obs_n"]).fn(record.state)
        target = -1j * np.subtract.outer(ms, ms) * values[np.add.outer(ms, ms) + 2 * w]
        sweep = record.window(chir)
        return np.max(_bracket_residues(chart_for(record.state), sweep[0], sweep, target))

    return [_row(f"witt[{c}]", record.digest(window=w), worst(c), tols["witt"]) for c in ("-", "+")]


NEGATIVE_CONTROLS = [
    DDFInvariantSpec(left=[], right=[], level=1, allow_unmatched=True),
    DDFInvariantSpec(left=[], right=[(1, 1)], level=2, allow_unmatched=True),
    DDFInvariantSpec(left=[(1, 1)], right=[], level=4, allow_unmatched=True),
]


@_suite("negative-controls")
def suite_negative_controls(record, tols):
    # this state's peak residue per control; the rows come from the reduce
    observables = [ddf_invariant_observable(spec, record.frame, record.params["obs_n"])
                   for spec in NEGATIVE_CONTROLS]
    return _peak_residues(observables, record).tolist()


def _negative_control_rows(peaks, states, tols):
    # ensemble check: each unmatched control must produce a residue >= tol
    # somewhere on the state ensemble (its normalized size is state-dependent,
    # so single tame states are not failures of the control)
    loudest = [max(0.0, *column) for column in zip(*peaks)]
    text = state_to_json(states[0])
    return [_row(f"negative-control[{i}]", _digest(text, i=i, states=len(states)),
                 peak, tols["negative-controls"], comparison="ge")
            for i, peak in enumerate(loudest)]


suite_negative_controls.ensemble = _negative_control_rows


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
    One job per state makes the state's :class:`StateRecord`, runs the
    suites on it in the order given and drops it when it returns, so a
    record lives as long as its job.  Each piece (inversion, modes,
    field, window, digest) is made once per state and charged to
    the ``timings`` of the first suite in the job that asks for it.  An
    ensemble suite's job returns that state's part; after the pool its
    ``ensemble`` reduce makes the suite's rows from the parts in state
    order, with ``state_index`` -1.
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

    def run(idx):
        record = StateRecord(states[idx], frame, params)
        results = []
        for nm in names:
            t0, c0 = time.perf_counter(), time.thread_time()
            out = SUITES[nm](record, tols)
            results.append((nm, (t0, time.perf_counter(), time.thread_time() - c0), out))
        return results

    with ThreadPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(run, range(len(states))))

    # per suite: wall_s spans its first job start to its last job end (jobs
    # overlap across workers); cpu_s sums its jobs' worker-thread CPU time
    spans, parts = {}, {}
    for nm, (t0, t1, cpu), out in (res for job in done for res in job):
        first, last, total = spans.get(nm, (t0, t1, 0.0))
        spans[nm] = (min(first, t0), max(last, t1), total + cpu)
        parts.setdefault(nm, []).append(out)
    rows = []
    for nm, outs in parts.items():
        # an ensemble suite's rows come from its reduce over the states' parts
        ensemble = getattr(SUITES[nm], "ensemble", None)
        for idx, out in [(-1, ensemble(outs, states, tols))] if ensemble else enumerate(outs):
            for r in out:
                r["suite"] = nm
                r["state_index"] = idx
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
