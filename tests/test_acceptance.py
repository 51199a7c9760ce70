"""Acceptance gate: every criterion at its stated tolerance, one line each.

Defaults throughout: D = 4, M = 8, N = 4096, M_out = 512, margin 0.2, the
(1,1,0,0) lightlike frame, and seeded states 1..20 from the session bank.
"""

import numpy as np

import closedstring as cs
from closedstring.ddf import DDFInvariantSpec
from closedstring.numerics import TAU
from closedstring.pohlmeyer import (InvariantSpec, WilsonConfig, align_base_point,
                                    pohlmeyer_invariant, pohlmeyer_via_ddf,
                                    wilson_loop)
from closedstring.poisson import (chart_for, ddf_invariant_observable,
                                  finite_difference_gradient, gradient,
                                  invariance_report, pohlmeyer_observable,
                                  smeared_momentum_observable,
                                  smeared_position_observable, virasoro_mode)
from closedstring.reparam import pullback_weight_one, random_diffeo
from conftest import record_acceptance
from oracles import (RotationMap, dense_bracket_residues, dense_omega, iterated_integral_modes,
                     witt_target)

N_DEFAULT = 4096
M_OUT_DEFAULT = 512
OBS_N = 512


def power_scale(field_values, degree):
    peak = TAU * float(np.max(np.abs(field_values)))
    out = 1.0
    for j in range(1, degree + 1):
        out *= peak / j
    return out


def test_a1_transversality(state_bank, ddf_bank, frame4):
    signs = cs.minkowski(4)
    worst = 0.0
    for entry in ddf_bank:
        for chir in ("-", "+"):
            modes = entry[chir]["modes"]
            kdot = np.abs(modes.modes @ (frame4.k * signs))
            kdot[modes.m_max] = 0.0
            worst = max(worst, float(kdot.max() / np.abs(modes.modes).max()))
    ok = worst <= 1e-10
    record_acceptance("A1 transversality", ok,
                      f"max |eta(k, A_m)|/max|A_m| = {worst:.3e} (tol 1e-10, 20 states)")
    assert ok


def test_a2_substitution_identity(state_bank, ddf_bank, frame4):
    worst = 0.0
    checked = 0
    for state, entry in zip(state_bank, ddf_bank):
        for chir in ("-", "+"):
            field = entry[chir]["field"]
            aligned = align_base_point(entry[chir]["modes"], entry[chir]["clock"])
            rebuilt = cs.reconstruct_field(aligned, N_DEFAULT)
            for deg in (1, 2, 3, 4):
                word = tuple(i % 4 for i in range(deg))
                spec = InvariantSpec(chir, word)
                direct = pohlmeyer_invariant(field, spec)
                via = pohlmeyer_invariant(rebuilt, spec)
                tol_scale = abs(direct) + power_scale(field.values, deg)
                worst = max(worst, abs(direct - via) / tol_scale)
                checked += 1
    # the composed route above is exactly pohlmeyer_via_ddf; pin that once
    spec = InvariantSpec("-", (0, 1, 2))
    via_api = pohlmeyer_via_ddf(state_bank[0], frame4, spec, M_OUT_DEFAULT, N_DEFAULT)
    direct = pohlmeyer_invariant(ddf_bank[0]["-"]["field"], spec)
    assert abs(via_api - direct) <= 1e-6 * (abs(direct) + power_scale(ddf_bank[0]["-"]["field"].values, 3))

    ok = worst <= 1e-6
    record_acceptance("A2 substitution identity", ok,
                      f"max |Z(P) - Z(P^R)|/scale = {worst:.3e} over {checked} checks (tol 1e-6)")
    assert ok


def test_a3_reparameterization_invariance(state_bank):
    worst_raw = 0.0
    worst_sym = 0.0
    for state in state_bank[:3]:
        field = cs.eval_field(state, "-", N_DEFAULT)
        for word in [(0, 1), (0, 1, 2)]:
            raw = InvariantSpec("-", word)
            scale = abs(pohlmeyer_invariant(field, raw)) + power_scale(field.values, len(word))
            direct = pohlmeyer_invariant(field, raw)
            for seed in range(10):
                cmap = random_diffeo(seed, order=3, amplitude=0.5, fix_base_point=True)
                pulled = pohlmeyer_invariant(pullback_weight_one(field, cmap), raw)
                worst_raw = max(worst_raw, abs(direct - pulled) / scale)
            sym = InvariantSpec("-", word, symmetrized=True)
            d_sym = pohlmeyer_invariant(field, sym)
            for j in range(10):
                rot = RotationMap(0.3 + 0.55 * j)
                pulled = pohlmeyer_invariant(pullback_weight_one(field, rot), sym)
                worst_sym = max(worst_sym, abs(d_sym - pulled) / scale)
    ok = worst_raw <= 1e-8 and worst_sym <= 1e-8
    record_acceptance("A3 reparameterization invariance", ok,
                      f"raw spread {worst_raw:.3e}, symmetrized-under-rotations {worst_sym:.3e} (tol 1e-8)")
    assert ok


A4_SPECS = [InvariantSpec("-", (0,)), InvariantSpec("+", (1,)),
            InvariantSpec("-", (0, 1), symmetrized=True),
            InvariantSpec("+", (2, 3), symmetrized=True),
            InvariantSpec("-", (0, 1, 2), symmetrized=True),
            InvariantSpec("+", (1, 2, 3), symmetrized=True)]

A5_MATCHED = [DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1),
              DDFInvariantSpec(left=[(0, 1), (1, 1)], right=[(2, 2)], level=2)]

A5_UNMATCHED = [DDFInvariantSpec(left=[], right=[], level=1, allow_unmatched=True),
                DDFInvariantSpec(left=[], right=[(1, 1)], level=2, allow_unmatched=True),
                DDFInvariantSpec(left=[(1, 1)], right=[], level=4, allow_unmatched=True)]


def test_a4_poisson_invariance_pohlmeyer(state_bank):
    worst = 0.0
    observables = [pohlmeyer_observable(spec, OBS_N) for spec in A4_SPECS]
    for state in state_bank[:5]:
        for rows in invariance_report(observables, state, m_window=4, n_samples=OBS_N):
            worst = max(worst, max(r["residue"] for r in rows))
    ok = worst <= 1e-5
    record_acceptance("A4 Poisson invariance (Pohlmeyer)", ok,
                      f"max normalized residue = {worst:.3e} (tol 1e-5, n<=3, |m|<=4, 5 states)")
    assert ok


def test_a5_ddf_invariance_and_level_matching(state_bank, frame4):
    # matched invariants must commute on every state; each unmatched control
    # must produce a loud residue somewhere on the same ensemble (its
    # normalized size is state-dependent)
    worst_matched = 0.0
    control_peaks = {i: 0.0 for i in range(len(A5_UNMATCHED))}
    observables = [ddf_invariant_observable(spec, frame4, OBS_N)
                   for spec in A5_MATCHED + A5_UNMATCHED]
    for state in state_bank[:5]:
        reports = invariance_report(observables, state, m_window=4, n_samples=OBS_N)
        for rows in reports[:len(A5_MATCHED)]:
            worst_matched = max(worst_matched, max(r["residue"] for r in rows))
        for i, rows in enumerate(reports[len(A5_MATCHED):]):
            control_peaks[i] = max(control_peaks[i], max(r["residue"] for r in rows))
    weakest_control = min(control_peaks.values())
    ok = worst_matched <= 1e-5 and weakest_control >= 1e-2
    record_acceptance("A5 DDF invariance + level matching", ok,
                      f"matched residues <= {worst_matched:.3e} (tol 1e-5); "
                      f"weakest of {len(A5_UNMATCHED)} negative controls = {weakest_control:.3e} (>= 1e-2)")
    assert ok


def test_a6_witt_algebra(state_bank):
    worst = 0.0
    for state, chiralities in ((state_bank[0], ("-", "+")), (state_bank[1], ("-",))):
        for chir in chiralities:
            grads = {m: gradient(virasoro_mode(chir, m, OBS_N), state, check=False)
                     for m in range(-4, 5)}
            residues = dense_bracket_residues(chart_for(state), grads, grads,
                                              witt_target(state, chir))
            worst = max(worst, *residues.values())
    ok = worst <= 1e-5
    record_acceptance("A6 Witt algebra", ok,
                      f"max |{{L_m, L_n}} + i(m-n)L_(m+n)|/scale = {worst:.3e} (tol 1e-5, both families)")
    assert ok


def test_a7_canonical_bracket_oracle(state_bank):
    state = state_bank[0]
    chart = chart_for(state)
    omega = dense_omega(chart)
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    basis = [(kind, j) for j in range(1, 9) for kind in ("cos", "sin")]  # 2M = 16
    worst = 0.0
    for ea, eb, eta_ab in [(e1, e1, 1.0), (e0, e0, -1.0), (e1, np.array([0.0, 0, 1, 0]), 0.0)]:
        gx = {b: gradient(smeared_position_observable(b[1], b[0], ea, 256),
                          state, check=False) for b in basis}
        gp = {b: gradient(smeared_momentum_observable(b[1], b[0], eb, 256),
                          state, check=False) for b in basis}
        for b1 in basis:
            for b2 in basis:
                val = complex(gx[b1] @ (omega @ gp[b2]))
                overlap = np.pi if b1 == b2 else 0.0  # oint phi psi for the harmonic basis
                worst = max(worst, abs(val - eta_ab * overlap))
    ok = worst <= 1e-8
    record_acceptance("A7 canonical bracket oracle", ok,
                      f"max |{{int phi X.e, int psi P.e'}} - eta(e,e') oint phi psi| = {worst:.3e} "
                      f"(tol 1e-8, 16x16 basis)")
    assert ok


def test_a8_shuffle_identities(state_bank):
    worst2 = 0.0
    worst3 = 0.0
    for state in state_bank[:5]:
        field = cs.eval_field(state, "-", N_DEFAULT)
        z1 = {mu: pohlmeyer_invariant(field, InvariantSpec("-", (mu,))) for mu in range(4)}
        z2 = {(a, b): pohlmeyer_invariant(field, InvariantSpec("-", (a, b)))
              for a in range(4) for b in range(4)}
        scale2 = max(abs(v) for v in z2.values()) + max(abs(v) ** 2 for v in z1.values())
        for a in range(4):
            for b in range(4):
                worst2 = max(worst2, abs(z1[a] * z1[b] - z2[(a, b)] - z2[(b, a)]) / scale2)
        z3 = {}

        def deg3(word):
            if word not in z3:
                z3[word] = pohlmeyer_invariant(field, InvariantSpec("-", word))
            return z3[word]

        for a in range(4):
            for b in range(4):
                for c in range(4):
                    lhs = z1[a] * z2[(b, c)]
                    rhs = deg3((a, b, c)) + deg3((b, a, c)) + deg3((b, c, a))
                    scale3 = abs(lhs) + max(abs(deg3((a, b, c))), 1e-12) + scale2
                    worst3 = max(worst3, abs(lhs - rhs) / scale3)
    ok = worst2 <= 1e-10 and worst3 <= 1e-9
    record_acceptance("A8 shuffle identities", ok,
                      f"deg-2 {worst2:.3e} (tol 1e-10), deg-3 {worst3:.3e} (tol 1e-9), "
                      f"all index combinations, 5 states")
    assert ok


def test_a9_wilson_loop_assembly(state_bank):
    rng = np.random.default_rng(17)
    worst_match = 0.0
    bound_ok = True
    for state in state_bank[:2]:
        field = cs.eval_field(state, "-", 1024)
        herm = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        anti = 0.5 * (herm - np.conj(np.transpose(herm, (0, 2, 1))))
        anti *= 0.3 / (TAU * np.max(np.sum(np.abs(field.values), axis=1))
                       * max(np.linalg.norm(m, 2) for m in anti))  # C*||A|| = 0.3
        value4, _ = wilson_loop(field, WilsonConfig(anti, n_max=4))

        total = 2.0 + 0.0j
        z_cache = {}
        for deg in range(1, 5):
            for word in np.ndindex(*(4,) * deg):
                if word not in z_cache:
                    z_cache[word] = pohlmeyer_invariant(field, InvariantSpec("-", word))
                mat = np.eye(2, dtype=complex)
                for mu in word:
                    mat = mat @ anti[mu]
                total += z_cache[word] * np.trace(mat)
        worst_match = max(worst_match, abs(value4 - total) / (1 + abs(total)))

        ref, _ = wilson_loop(field, WilsonConfig(anti, n_max=20))
        for n_max in (4, 6, 8):
            value, remainder = wilson_loop(field, WilsonConfig(anti, n_max=n_max))
            # tail sum <= remainder * 1/(1 - x/(n_max+2)) with x <= 0.3; trace adds d
            if abs(value - ref) > 1.1 * 2 * remainder + 1e-14:
                bound_ok = False
    ok = worst_match <= 1e-9 and bound_ok
    record_acceptance("A9 Wilson-loop assembly", ok,
                      f"matrix vs index-enumerated (n<=4): {worst_match:.3e} (tol 1e-9); "
                      f"factorial remainder bound {'respected' if bound_ok else 'VIOLATED'}")
    assert ok


def test_a10_reconstruction_equivalence(state_bank, ddf_bank, frame4):
    worst_default = 0.0
    monotone_ok = True
    for state, entry in zip(state_bank[:5], ddf_bank[:5]):
        direct = cs.reconstruct_field_direct(state, frame4, "-", N_DEFAULT)
        scale = float(np.max(np.abs(direct.values)))
        rec = cs.reconstruct_field(entry["-"]["modes"], N_DEFAULT)
        worst_default = max(worst_default,
                            float(np.max(np.abs(rec.values - direct.values))) / scale)
        errs = []
        for m_out in (16, 32, 64, 128):
            small = cs.reconstruct_field(cs.ddf_modes(state, frame4, "-", m_out, N_DEFAULT),
                                         N_DEFAULT)
            errs.append(float(np.max(np.abs(small.values - direct.values))) / scale)
        if not all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])):
            monotone_ok = False
    ok = worst_default <= 1e-6 and monotone_ok
    record_acceptance("A10 reconstruction equivalence", ok,
                      f"mode-sum vs direct max-norm {worst_default:.3e} at M_out=512 (tol 1e-6); "
                      f"error {'decreases' if monotone_ok else 'DOES NOT decrease'} as M_out doubles")
    assert ok


def test_a11_bruteforce_simplex_oracle(state_bank):
    words = [(0, 1, 2), (3, 2, 1), (0, 0, 1), (2, 3, 3), (1, 2, 0)]
    worst = 0.0
    for state in state_bank[:3]:
        field = cs.eval_field(state, "-", 256)
        for word in words:
            fast = pohlmeyer_invariant(field, InvariantSpec("-", word))
            oracle = iterated_integral_modes([field.values[:, mu] for mu in word])
            worst = max(worst, abs(fast - oracle) / abs(oracle))
    ok = worst <= 1e-9
    record_acceptance("A11 brute-force simplex oracle", ok,
                      f"fast vs exhaustive mode-tuple enumeration at N=256: {worst:.3e} "
                      f"(tol 1e-9, 3 states x 5 triples)")
    assert ok


def test_a12_gradient_cross_validation(state_bank, frame4):
    state = state_bank[0]
    observables = [pohlmeyer_observable(s, OBS_N) for s in A4_SPECS]
    observables += [ddf_invariant_observable(s, frame4, OBS_N)
                    for s in A5_MATCHED + A5_UNMATCHED]
    observables += [virasoro_mode(c, m, OBS_N)
                    for c in ("-", "+") for m in (0, 2, -3)]
    worst = 0.0
    for obs in observables:
        ad = gradient(obs, state, check=False)
        fd = finite_difference_gradient(obs, state)
        scale = max(float(np.max(np.abs(ad))), 1e-300)
        rel = np.abs(ad - fd) / (np.abs(ad) + scale)
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-5
    record_acceptance("A12 gradient cross-validation", ok,
                      f"max |propagated - FD| rel = {worst:.3e} over {len(observables)} "
                      f"observables (tol 1e-5)")
    assert ok
