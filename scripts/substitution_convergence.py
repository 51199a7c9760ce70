#!/usr/bin/env python3
"""Error of the DDF substitution versus the mode cutoff.

For seeded states, compares the direct invariants Z against the values from
the base-point-aligned quasi-local reconstruction while doubling M_out, and
prints one table row per cutoff.  The A_m are one FFT of the substituted
field Q = (R^{-1})' P o R^{-1}, so once the truncated tail of the A_m drops
below machine precision the error floor is set by the FFT aliasing of Q on
the grid (Q is smooth but not band-limited), not by quadrature roundoff.
"""

import argparse

import numpy as np

import closedstring as cs
from closedstring.pohlmeyer import InvariantSpec, pohlmeyer_invariant, pohlmeyer_via_ddf


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=str, default="1,2,3")
    ap.add_argument("--grid", type=int, default=4096)
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--cutoffs", type=str, default="8,16,32,64,128,256,512")
    args = ap.parse_args(argv)

    frame = cs.default_frame(4)
    seeds = [int(s) for s in args.seeds.split(",")]
    cutoffs = [int(c) for c in args.cutoffs.split(",")]
    word = tuple(i % 4 for i in range(args.degree))
    spec = InvariantSpec("-", word)

    print(f"# |Z_direct - Z_via_ddf| / scale for word {word}, grid {args.grid}")
    header = "seed " + " ".join(f"M_out={c:<4d}" for c in cutoffs)
    print(header)
    for seed in seeds:
        state = cs.random_state(4, 8, seed=seed, frame=frame)
        field = cs.eval_field(state, "-", args.grid)
        direct = pohlmeyer_invariant(field, spec)
        scale = abs(direct) + (2 * np.pi * np.max(np.abs(field.values))) ** len(word)
        cells = []
        for m_out in cutoffs:
            via = pohlmeyer_via_ddf(state, frame, spec, m_out, args.grid)
            cells.append(f"{abs(direct - via) / scale:10.3e}")
        print(f"{seed:<4d} " + " ".join(cells))


if __name__ == "__main__":
    main()
