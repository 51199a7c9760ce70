"""The three benchmark workloads: inputs from a seed, one op, and its checks.

Every workload is a closed loop of one client: the next op starts when the
previous one returns.  ``setup`` derives all inputs from the workload seed
(the program only ever sees the generated inputs), ``op`` is the timed call
into the public API, and ``check`` compares the op's outputs against the
acceptance tolerances outside the timed interval.  Checks return
``(name, measured, tolerance)`` triples; a check passes when
``measured <= tolerance``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

from closedstring import cli, ddf, numerics, phase_space, pohlmeyer

DIM, MODES = 4, 8
# Ops cycle through a pool of this many inputs.
POOL = 24


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _states(seed, count):
    """Distinct state seeds drawn from the workload seed."""
    rng = np.random.default_rng([seed, 0x5EED])
    return [int(s) for s in rng.choice(2 ** 31 - 1, size=count, replace=False) + 1]


def _power_scale(values, degree):
    # same scale as the acceptance gate: (2 pi max|P|)^n / n!
    peak = numerics.TAU * float(np.max(np.abs(values)))
    out = 1.0
    for j in range(1, degree + 1):
        out *= peak / j
    return out


# ----------------------------------------------------------------------
# verify_all: the user's literal `closedstring verify --suite all` command
# ----------------------------------------------------------------------

class VerifyAll:
    name = "verify_all"
    ensemble = 4

    def __init__(self, workdir, grid=None, modes_out=None, suites=("all",)):
        self.workdir = workdir
        self.extra = []
        if grid:
            self.extra += ["--grid", str(grid)]
        if modes_out:
            self.extra += ["--modes-out", str(modes_out)]
        for s in suites:
            self.extra += ["--suite", s]

    def setup(self, seed):
        seeds = _states(seed, POOL * self.ensemble)
        ensembles = [seeds[i:i + self.ensemble] for i in range(0, len(seeds), self.ensemble)]
        os.makedirs(self.workdir, exist_ok=True)
        return {"ensembles": ensembles, "digest": _digest(ensembles, self.extra)}

    def op(self, inputs, i):
        ensemble = inputs["ensembles"][i % len(inputs["ensembles"])]
        path = os.path.join(self.workdir, f"report-{os.getpid()}.json")
        argv = ["verify", "--seeds", ",".join(map(str, ensemble)), *self.extra, "--report", path]
        rc = cli.main(argv)
        return {"rc": rc, "path": path}

    def check(self, inputs, result):
        path = result["path"]
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(path)
        except (OSError, ValueError):
            report = {"pass": False, "rows": []}
        checks = [("cli.exit_code", float(result["rc"]), 0.0),
                  ("verify.report_fail", 0.0 if report.get("pass") is True else 1.0, 0.0)]
        # the quantities the ddf_highres checks bound, as verify measures them
        subst = [r["measured"] / r["tolerance"] for r in report["rows"] if r["suite"] == "substitution"]
        trip = [r["measured"] for r in report["rows"] if r["suite"] == "periodicity"]
        if subst:
            checks.append(("ddf.substitution.err_over_tol", max(subst), 1.0))
        if trip:
            checks.append(("numerics.invert_monotone.roundtrip_err", max(trip), 1e-10))
        return checks


# ----------------------------------------------------------------------
# ddf_highres: one state's DDF extraction and substitution at high resolution
# ----------------------------------------------------------------------

class DDFHighres:
    name = "ddf_highres"

    def __init__(self, n=8192):
        self.n, self.m_out = n, n // 8
        self.words = [tuple(i % DIM for i in range(deg)) for deg in range(1, 5)]

    def setup(self, seed):
        frame = phase_space.default_frame(DIM)
        states = [phase_space.random_state(DIM, MODES, s, frame=frame)
                  for s in _states(seed, POOL)]
        digest = _digest(*(phase_space.state_to_json(st) for st in states), self.n, self.m_out)
        return {"frame": frame, "states": states, "digest": digest}

    def op(self, inputs, i):
        state = inputs["states"][i % len(inputs["states"])]
        frame, n = inputs["frame"], self.n
        out = {}
        for chir in ("-", "+"):
            field = phase_space.eval_field(state, chir, n)
            clock = ddf.compute_R(state, frame, chir, n)
            modes = ddf.ddf_modes(state, frame, chir, self.m_out, n)
            rebuilt = ddf.reconstruct_field(pohlmeyer.align_base_point(modes, clock), n)
            mode_sum = ddf.reconstruct_field(modes, n)
            direct = ddf.reconstruct_field_direct(state, frame, chir, n)
            pairs = []
            for word in self.words:
                spec = pohlmeyer.InvariantSpec(chir, word)
                pairs.append((len(word), pohlmeyer.pohlmeyer_invariant(field, spec),
                              pohlmeyer.pohlmeyer_invariant(rebuilt, spec)))
            out[chir] = {"field": field, "clock": clock, "mode_sum": mode_sum,
                         "direct": direct, "pairs": pairs}
        return out

    def check(self, inputs, result):
        recon = subst = roundtrip = 0.0
        for part in result.values():
            direct = part["direct"].values
            recon = max(recon, float(np.max(np.abs(part["mode_sum"].values - direct)))
                        / float(np.max(np.abs(direct))))
            for deg, z_direct, z_via in part["pairs"]:
                scale = abs(z_direct) + _power_scale(part["field"].values, deg)
                subst = max(subst, abs(z_direct - z_via) / scale)
            # R(R^-1(sigma)) = sigma through R's own interpolant, as suite_periodicity
            clock = part["clock"]
            pts = numerics.invert_monotone(clock).values()
            fwd = pts + numerics.trig_interpolate(clock.periodic, pts).real
            roundtrip = max(roundtrip, float(np.max(np.abs(fwd - numerics.grid_sigma(self.n)))))
        return [("ddf.reconstruction.err_over_tol", recon / 1e-6, 1.0),
                ("ddf.substitution.err_over_tol", subst / 1e-6, 1.0),
                ("numerics.invert_monotone.roundtrip_err", roundtrip, 1e-10)]


# ----------------------------------------------------------------------
# signature_words: every raw word to degree 4 plus one Wilson loop
# ----------------------------------------------------------------------

class SignatureWords:
    name = "signature_words"

    def __init__(self, n=4096, degree=4, n_max=4):
        self.n, self.degree, self.n_max = n, degree, n_max
        self.words = [w for deg in range(1, degree + 1)
                      for w in itertools.product(range(DIM), repeat=deg)]

    def setup(self, seed):
        frame = phase_space.default_frame(DIM)
        items = []
        for s in _states(seed, POOL):
            state = phase_space.random_state(DIM, MODES, s, frame=frame)
            field = phase_space.eval_field(state, "-", self.n)
            rng = np.random.default_rng([seed, s])
            herm = rng.standard_normal((DIM, 2, 2)) + 1j * rng.standard_normal((DIM, 2, 2))
            anti = 0.5 * (herm - np.conj(np.transpose(herm, (0, 2, 1))))
            # C * ||A|| = 0.3 with C = 2 pi max_sigma sum_mu |P^mu|, as in A9
            anti *= 0.3 / (numerics.TAU * np.max(np.sum(np.abs(field.values), axis=1))
                           * max(np.linalg.norm(m, 2) for m in anti))
            config = pohlmeyer.WilsonConfig(anti, n_max=self.n_max)
            traces = {w: np.trace(np.linalg.multi_dot([np.eye(2)] + [anti[mu] for mu in w]))
                      for w in self.words if len(w) <= self.n_max}
            items.append({"field": field, "config": config, "traces": traces})
        digest = _digest(*(it["field"].values.tobytes() for it in items),
                         *(it["config"].matrices.tobytes() for it in items))
        return {"items": items, "digest": digest}

    def op(self, inputs, i):
        item = inputs["items"][i % len(inputs["items"])]
        field = item["field"]
        z = {w: pohlmeyer.pohlmeyer_invariant(field, pohlmeyer.InvariantSpec("-", w))
             for w in self.words}
        value, remainder = pohlmeyer.wilson_loop(field, item["config"])
        return {"item": i % len(inputs["items"]), "z": z, "wilson": value}

    def check(self, inputs, result):
        item = inputs["items"][result["item"]]
        total = complex(item["config"].matrix_dim)
        for w, tr in item["traces"].items():
            total += result["z"][w] * tr
        err = abs(result["wilson"] - total) / (1.0 + abs(total))
        return [("pohlmeyer.wilson.err_over_tol", err / 1e-9, 1.0)]


WORKLOADS = {cls.name: cls for cls in (VerifyAll, DDFHighres, SignatureWords)}
