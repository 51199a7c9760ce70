"""Algebra-level relations between loop invariants and DDF data.

Two statements at low polynomial degree: every iterated-integral invariant
is an explicit polynomial in the DDF modes (membership), and the DDF
invariants separate states that all loop invariants cannot (properness).
"""

import numpy as np
import pytest

import closedstring as cs
from closedstring.ddf import DDFInvariantSpec
from closedstring.numerics import TAU
from closedstring.pohlmeyer import InvariantSpec, align_base_point, pohlmeyer_invariant
from oracles import _integrate_term_dict, dense_omega


@pytest.fixture(scope="module")
def aligned_modes(frame4):
    state = cs.random_state(4, 8, seed=2, frame=frame4)
    clock = cs.compute_R(state, frame4, "-", 1024)
    modes = align_base_point(cs.ddf_modes(state, frame4, "-", 96, 1024), clock)
    return state, modes


def _polynomial_in_modes(modes, word, prune=1e-15):
    """Z as the explicit mode polynomial sum_tuples J(m_1..m_n) prod A_{m_i}^{mu_i}."""
    top = np.abs(modes.modes).max()

    def mode_list(mu):
        col = modes.modes[:, mu]
        return [(m, complex(col[m + modes.m_max]) / np.sqrt(TAU))
                for m in range(-modes.m_max, modes.m_max + 1)
                if abs(col[m + modes.m_max]) > prune * top]

    lists = [mode_list(mu) for mu in word]

    def recurse(level, term, coeff):
        if level == len(lists):
            return coeff * sum(c * TAU ** a for (a, _), c in term.items())
        return sum(recurse(level + 1, _integrate_term_dict(term, f), coeff * cf)
                   for f, cf in lists[level])

    return recurse(0, {(0, 0): 1.0}, 1.0 + 0.0j)


def test_invariants_are_polynomials_in_ddf_modes(aligned_modes):
    # membership half of the statement: the invariant evaluated on the
    # original field equals the same mode polynomial with oscillators
    # replaced by (aligned) DDF modes, term by term in the A_m
    state, modes = aligned_modes
    field = cs.eval_field(state, "-", 1024)
    for word in [(0,), (1,), (0, 1), (2, 3), (1, 1)]:
        direct = pohlmeyer_invariant(field, InvariantSpec("-", word))
        poly = _polynomial_in_modes(modes, word)
        scale = abs(direct) + (TAU * float(np.max(np.abs(field.values)))) ** len(word)
        assert abs(direct - poly) <= 1e-9 * scale


def test_ddf_mode_virasoro_brackets_closed_form(frame4):
    # end-to-end convention check of the bracket engine: same-chirality
    # brackets of the DDF modes vanish, and the cross-chirality ones equal
    # i m A_m sqrt(4 pi T) eta(k, ~alpha_n) / k.p exactly
    from closedstring.poisson import chart_for, ddf_invariant_observable, gradient, virasoro_mode

    state = cs.random_state(4, 8, seed=4, frame=frame4)
    chart = chart_for(state)
    omega = dense_omega(chart)
    root = np.sqrt(2.0 * TAU * state.tension)
    eta = cs.minkowski(4)
    kp = cs.eta_dot(frame4.k, state.p)

    def tilde_mode(n):
        if n == 0:
            return state.alpha0
        return state.right[n - 1] if n > 0 else np.conj(state.right[-n - 1])

    for m, mu in [(1, 1), (2, 0), (-1, 2)]:
        # A_m^mu alone: its stripping phase e^{-i m phi0} and the level phase e^{i m phi0} cancel
        obs = ddf_invariant_observable(DDFInvariantSpec(left=[(mu, m)], right=[], level=m,
                                                        allow_unmatched=True), frame4, 512)
        ga = gradient(obs, state, check=False)
        a_val = complex(obs.fn(state))
        for n in (1, 2, -2):
            gl = gradient(virasoro_mode("-", n, 512), state, check=False)
            same = complex(ga @ (omega @ gl))
            assert abs(same) <= 1e-8 * (1 + abs(a_val))

            glt = gradient(virasoro_mode("+", n, 512), state, check=False)
            opp = complex(ga @ (omega @ glt))
            predicted = 1j * m * a_val * root * np.sum(eta * frame4.k * tilde_mode(n)) / kp
            assert abs(opp - predicted) <= 1e-12 * (1 + abs(predicted))


def test_ddf_invariants_strictly_finer_than_loop_invariants(frame4):
    # properness half: rotating the right-moving sector alone preserves every
    # cyclically symmetrized loop invariant of both chiralities but moves a
    # level-matched composite invariant by the full phase |1 - e^{-ic}|
    state = cs.random_state(4, 8, seed=2, frame=frame4)
    c = 0.9
    ms = np.arange(1, state.truncation + 1)
    rotated = state.replace(right=state.right * np.exp(-1j * ms * c)[:, None])

    for chir in ("-", "+"):
        f1 = cs.eval_field(state, chir, 1024)
        f2 = cs.eval_field(rotated, chir, 1024)
        for word in [(0,), (0, 1), (1, 2, 3)]:
            s1 = pohlmeyer_invariant(f1, InvariantSpec(chir, word, symmetrized=True))
            s2 = pohlmeyer_invariant(f2, InvariantSpec(chir, word, symmetrized=True))
            assert abs(s1 - s2) <= 1e-10 * (1 + abs(s1))

    spec = DDFInvariantSpec(left=[(1, 1)], right=[(2, 1)], level=1)
    d1 = cs.ddf_invariant(state, frame4, spec, 1024)
    d2 = cs.ddf_invariant(rotated, frame4, spec, 1024)
    expected = abs(1 - np.exp(-1j * c)) * abs(d1)
    assert abs(d1 - d2) == pytest.approx(expected, rel=1e-9)
    assert abs(d1 - d2) > 0.5 * abs(d1)
