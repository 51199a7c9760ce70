#!/usr/bin/env python3
"""Normalized Virasoro residues for a few observable families.

Sweeps {obs, L_m} over the constraint window for seeded states and prints
the residue per mode, normalized by the gradient norms and the bracket
matrix norm.  Level-matched invariants sit at roundoff; the unmatched
control shows the size of a genuine violation.
"""

import argparse

import closedstring as cs
from closedstring.ddf import DDFInvariantSpec
from closedstring.pohlmeyer import InvariantSpec
from closedstring.poisson import (ddf_invariant_observable, invariance_report,
                                  pohlmeyer_observable)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--window", type=int, default=4)
    ap.add_argument("--obs-grid", type=int, default=512)
    args = ap.parse_args(argv)

    frame = cs.default_frame(4)
    state = cs.random_state(4, 8, seed=args.seed, frame=frame)

    observables = [
        pohlmeyer_observable(InvariantSpec("-", (0,)), args.obs_grid),
        pohlmeyer_observable(InvariantSpec("-", (0, 1), symmetrized=True), args.obs_grid),
        pohlmeyer_observable(InvariantSpec("-", (0, 1, 2), symmetrized=True), args.obs_grid),
        ddf_invariant_observable(DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1),
                                 frame, args.obs_grid),
        ddf_invariant_observable(DDFInvariantSpec(left=[], right=[], level=1,
                                                  allow_unmatched=True),
                                 frame, args.obs_grid),
    ]
    reports = invariance_report(observables, state, args.window, n_samples=args.obs_grid)
    for obs, rows in zip(observables, reports):
        worst = max(r["residue"] for r in rows)
        print(f"\n{obs.name}   (worst {worst:.3e})")
        for r in rows:
            mark = "" if r["pass"] else "   <-- fails threshold"
            print(f"  L~{r['m']:+d}" if r["chirality"] == "+" else f"  L {r['m']:+d}",
                  f"residue {r['residue']:.3e}{mark}")


if __name__ == "__main__":
    main()
