"""Command-line entry point.

Subcommands: generate, eval, ddf, pohlmeyer, bracket, verify.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage error, 3 degenerate input
(non-monotone clock or k.p = 0).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .ddf import ddf_modes, ddfmodes_to_json, compute_R
from .errors import DegenerateFrame, LevelMismatch, NonMonotone
from .phase_space import (DEFAULT_DECAY, DEFAULT_TENSION, LightlikeFrame,
                          default_frame, eval_field, random_state, state_from_json,
                          state_to_json, virasoro_density)
from .pohlmeyer import InvariantSpec, pohlmeyer_invariant, pohlmeyer_via_ddf
from .poisson import DEFAULT_OBS_GRID, observable_from_config
from .poisson import bracket as poisson_bracket
from .verify import run_suites, suite_names

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

# the generator's state shape, for `generate` and `verify --seeds`
DEFAULT_DIM, DEFAULT_MODES = 4, 8


def _parse_frame(text, dim):
    if text is None:
        return default_frame(dim)
    frame = LightlikeFrame(np.asarray([float(v) for v in text.split(",")]))
    if frame.k.shape[0] != dim:
        raise ValueError(f"frame has dimension {frame.k.shape[0]}, state has {dim}")
    return frame


def _load_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def _chirality(word):
    return {"minus": "-", "plus": "+", "-": "-", "+": "+"}[word]


def build_parser():
    ap = argparse.ArgumentParser(prog="closedstring",
                                 description="Classical closed-string invariants toolkit")
    ap.add_argument("--version", action="version", version=f"closedstring {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a seeded random state as JSON")
    g.add_argument("--dim", type=int, default=DEFAULT_DIM)
    g.add_argument("--modes", type=int, default=DEFAULT_MODES, help="oscillator truncation M")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--decay", type=float, default=DEFAULT_DECAY)
    g.add_argument("--margin", type=float, default=0.2)
    g.add_argument("--tension", type=float, default=DEFAULT_TENSION)
    g.add_argument("--frame", type=str, default=None, help="comma-separated lightlike k")
    g.add_argument("--out", type=str, required=True)

    e = sub.add_parser("eval", help="emit CSV samples of a field, clock, or density")
    e.add_argument("--state", type=str, required=True)
    e.add_argument("--chirality", choices=["plus", "minus"], default="minus")
    e.add_argument("--grid", type=int, default=4096)
    e.add_argument("--quantity", choices=["field", "clock", "density"], default="field")
    e.add_argument("--frame", type=str, default=None)
    e.add_argument("--out", type=str, required=True)

    d = sub.add_parser("ddf", help="emit DDF modes as JSON")
    d.add_argument("--state", type=str, required=True)
    d.add_argument("--chirality", choices=["plus", "minus"], default="minus")
    d.add_argument("--modes-out", type=int, default=None, help="default grid/8")
    d.add_argument("--grid", type=int, default=4096)
    d.add_argument("--frame", type=str, default=None)
    d.add_argument("--out", type=str, required=True)

    p = sub.add_parser("pohlmeyer", help="compute iterated-integral invariants")
    p.add_argument("--state", type=str, required=True)
    p.add_argument("--indices", type=str, required=True, help="e.g. 0,1,2")
    p.add_argument("--chirality", choices=["plus", "minus"], default="minus")
    p.add_argument("--symmetrized", action="store_true")
    p.add_argument("--via-ddf", action="store_true")
    p.add_argument("--raw-substitution", action="store_true",
                   help="with --via-ddf: skip base-point alignment")
    p.add_argument("--modes-out", type=int, default=None)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--frame", type=str, default=None)

    b = sub.add_parser("bracket", help="one Poisson bracket of two observables")
    b.add_argument("--state", type=str, required=True)
    b.add_argument("--f", type=str, required=True, help="observable JSON")
    b.add_argument("--g", type=str, required=True, help="observable JSON")
    b.add_argument("--grid", type=int, default=DEFAULT_OBS_GRID)
    b.add_argument("--frame", type=str, default=None)

    v = sub.add_parser("verify", help="run named verification suites")
    v.add_argument("--state", type=str, action="append", default=[],
                   help="state JSON path (repeatable)")
    v.add_argument("--seeds", type=str, default=None,
                   help="generate states from comma-separated seeds instead")
    v.add_argument("--suite", type=str, action="append", default=[],
                   help=f"suite name or 'all'; known: {', '.join(suite_names())}")
    v.add_argument("--grid", type=int, default=None)
    v.add_argument("--modes-out", type=int, default=None)
    v.add_argument("--m-window", type=int, default=None)
    v.add_argument("--threads", type=int, default=None)
    v.add_argument("--tolerance", type=str, action="append", default=[],
                   help="override as name=value (repeatable)")
    v.add_argument("--report", type=str, default=None, help="write report JSON here")
    v.add_argument("--frame", type=str, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _dispatch(args)
    except (DegenerateFrame, NonMonotone) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, TypeError, KeyError, IndexError, OSError, LevelMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "generate":
        frame = _parse_frame(args.frame, args.dim)
        state = random_state(args.dim, args.modes, args.seed, decay=args.decay,
                             frame=frame, margin=args.margin, tension=args.tension)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(state_to_json(state))
            fh.write("\n")
        return EXIT_OK

    if args.command != "verify":  # eval, ddf, pohlmeyer, bracket: one state in one frame
        state = _load_state(args.state)
        frame = _parse_frame(args.frame, state.dim)
        m_out = args.grid // 8 if getattr(args, "modes_out", None) is None else args.modes_out

    if args.command == "eval":
        chir = _chirality(args.chirality)
        if args.quantity == "field":
            grid = eval_field(state, chir, args.grid)
            header = ["sigma"] + [f"value{i}" for i in range(state.dim)]
            table = np.column_stack([grid.sigma(), grid.values])
        elif args.quantity == "density":
            grid = virasoro_density(state, chir, args.grid)
            header = ["sigma", "value0"]
            table = np.column_stack([grid.sigma(), grid.values])
        else:
            from .numerics import grid_sigma

            cmap = compute_R(state, frame, chir, args.grid)
            header = ["sigma", "R", "dR"]
            table = np.column_stack([grid_sigma(args.grid), cmap.values(), cmap.deriv])
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in table:
                w.writerow([f"{v:.17g}" for v in row])
        return EXIT_OK

    if args.command == "ddf":
        modes = ddf_modes(state, frame, _chirality(args.chirality), m_out, args.grid)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ddfmodes_to_json(modes))
            fh.write("\n")
        return EXIT_OK

    if args.command == "pohlmeyer":
        indices = tuple(int(v) for v in args.indices.split(","))
        spec = InvariantSpec(_chirality(args.chirality), indices, symmetrized=args.symmetrized)
        out = {"indices": list(indices), "chirality": spec.chirality,
               "symmetrized": spec.symmetrized}
        field = eval_field(state, spec.chirality, args.grid)
        out["direct"] = float(pohlmeyer_invariant(field, spec))
        if args.via_ddf:
            out["via_ddf"] = float(pohlmeyer_via_ddf(state, frame, spec, m_out, args.grid,
                                                     align=not args.raw_substitution))
            out["abs_difference"] = abs(out["direct"] - out["via_ddf"])
        print(json.dumps(out, sort_keys=True))
        return EXIT_OK

    if args.command == "bracket":
        f = observable_from_config(json.loads(args.f), frame, args.grid)
        g = observable_from_config(json.loads(args.g), frame, args.grid)
        val = poisson_bracket(f, g, state)
        print(json.dumps({"f": f.name, "g": g.name,
                          "bracket_re": val.real, "bracket_im": val.imag}, sort_keys=True))
        return EXIT_OK

    if args.command == "verify":
        states = [_load_state(p) for p in args.state]
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
        # the frame comes first: generated states keep their R' margin in it
        frame = _parse_frame(args.frame, states[0].dim if states else DEFAULT_DIM)
        states.extend(random_state(DEFAULT_DIM, DEFAULT_MODES, s, frame=frame) for s in seeds)
        provenance = {"state_paths": list(args.state), "generator_seeds": seeds,
                      "generator_defaults": {"dim": DEFAULT_DIM, "modes": DEFAULT_MODES}}
        params = {key: given for key, given in (("n", args.grid), ("m_out", args.modes_out),
                                                ("m_window", args.m_window)) if given is not None}
        tols = {}
        for item in args.tolerance:
            name, _, value = item.partition("=")
            if not value:
                raise ValueError(f"bad --tolerance {item!r}, expected name=value")
            tols[name] = float(value)
        report = run_suites(args.suite or ["all"], states, frame, params=params,
                            tolerances=tols, threads=args.threads,
                            provenance=provenance)
        text = json.dumps(report, sort_keys=True, indent=1)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        else:
            print(text)
        failed = [r for r in report["rows"] if not r["pass"]]
        for r in failed:
            print(f"FAIL {r['suite']}:{r['name']} measured={r['measured']:.3e} "
                  f"tol={r['tolerance']:.3e}", file=sys.stderr)
        return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
