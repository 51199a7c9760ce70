import json
import tracemalloc

import numpy as np
import pytest

import closedstring as cs
from closedstring import numerics
from closedstring.errors import DegenerateFrame, LevelMismatch, NonMonotone
from closedstring.numerics import TAU, grid_sigma, trig_interpolate
from closedstring.ddf import _non_real_bound, substitute
from oracles import (clock_by_complex_synthesis, ddf_modes_quadrature,
                     mode_sum_by_complex_synthesis, substitute_by_samples)


def zero_osc_state(p, x):
    return cs.StringState(dim=4, tension=cs.DEFAULT_TENSION, truncation=1,
                          x=np.asarray(x, float), p=np.asarray(p, float),
                          left=np.zeros((1, 4), complex), right=np.zeros((1, 4), complex))


def transverse_state(frame, seed=5):
    """State with k.alpha_m = 0 and k.x = 0, so both clocks are the identity."""
    base = cs.random_state(4, 4, seed=seed, frame=frame)
    k = frame.k

    def project(rows):
        # k = (1,1,0,..): k.alpha = -a0 + a1; set a0 = a1 to kill it
        rows = rows.copy()
        avg = 0.5 * (rows[:, 0] + rows[:, 1])
        rows[:, 0] = avg
        rows[:, 1] = avg
        return rows

    x = base.x.copy()
    x[0] = x[1] = 0.5 * (x[0] + x[1])  # k.x = -x0 + x1 = 0
    assert abs(cs.eta_dot(k, x)) < 1e-14
    return base.replace(x=x, left=project(base.left), right=project(base.right))


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------

def test_clock_zero_osc_closed_form(frame4):
    state = zero_osc_state([1.0, 0.2, 0.0, 0.4], [0.3, -0.1, 0.2, 0.0])
    kx = cs.eta_dot(frame4.k, state.x)
    kp = cs.eta_dot(frame4.k, state.p)
    phi0 = 2 * TAU * state.tension * kx / kp
    sig = grid_sigma(64)
    rm = cs.compute_R(state, frame4, "-", 64)
    rp = cs.compute_R(state, frame4, "+", 64)
    assert np.allclose(rm.values(), sig - phi0, atol=1e-13)
    assert np.allclose(rp.values(), sig + phi0, atol=1e-13)


def test_clock_derivative_two_formulas(state_bank, frame4):
    # the sampled R differentiated spectrally vs the mode-formula derivative
    state = state_bank[0]
    for chir in ("-", "+"):
        cmap = cs.compute_R(state, frame4, chir, 1024)
        spec = np.fft.fft(cmap.periodic)
        k = np.rint(np.fft.fftfreq(1024, 1.0 / 1024))
        dr = np.fft.ifft(spec * 1j * k).real + 1.0
        assert np.max(np.abs(dr - cmap.deriv)) < 1e-11


def test_clock_derivative_matches_field(state_bank, frame4):
    state = state_bank[1]
    n = 1024
    cmap = cs.compute_R(state, frame4, "-", n)
    field = cs.eval_field(state, "-", n).values
    kp = cs.eta_dot(frame4.k, state.p)
    expected = (TAU * np.sqrt(2 * state.tension) / kp) * (field @ (frame4.k * cs.minkowski(4)))
    assert np.max(np.abs(cmap.deriv - expected)) < 1e-11


def test_clock_inverse_round_trips(state_bank, frame4, ddf_bank):
    # R o R^-1 = id is guaranteed by the Newton tolerance at any grid size
    # (rho is band-limited, so R's interpolant is exact); the two-way
    # composition R^-1 o R needs the inverse's own spectral decay and holds
    # at the default grid.
    cmap = cs.compute_R(state_bank[0], frame4, "-", 512)
    inv = cs.invert_monotone(cmap)
    sig = grid_sigma(512)
    r_of_inv = inv.values() + trig_interpolate(cmap.periodic, inv.values()).real
    assert np.max(np.abs(r_of_inv - sig)) < 1e-10

    big = ddf_bank[0]["-"]["clock"]
    big_inv = cs.invert_monotone(big)
    back = trig_interpolate(big_inv.periodic, big.values()).real + big.values()
    assert np.max(np.abs(back - grid_sigma(4096))) < 1e-10


def test_clock_inverse_converges_quadratically(ddf_bank):
    # a safeguard that bisects converged points degrades bracketed Newton
    # to ~50 linear halvings, and the crude start sigma - rho to 4-10 steps
    for entry in ddf_bank[:3]:
        for chir in ("-", "+"):
            cs.invert_monotone(entry[chir]["clock"], max_iter=12)


def test_clock_inverse_steps_from_interpolated_start(ddf_bank):
    # from the Hermite interpolant of the sampled inverse, every default clock
    # at N=4096 needs at most 2 Newton bases (the last one only confirming
    # convergence); the linear interpolant needed 3
    for entry in ddf_bank:
        for chir in ("-", "+"):
            cs.invert_monotone(entry[chir]["clock"], max_iter=2)


def test_clock_inverse_converges_on_its_first_basis(state_bank, frame4):
    # at N=8192 the Hermite start of every default clock is within tol of the
    # inverse: the first basis confirms convergence
    for state in state_bank:
        for chir in ("-", "+"):
            cs.invert_monotone(cs.compute_R(state, frame4, chir, 8192), max_iter=1)


@pytest.mark.parametrize("seed, strays", [(4, [4096]), (7, [2048, 4096])])
def test_clock_bandwidth_keeps_rounding_out_of_the_newton_basis(monkeypatch, frame4, seed, strays):
    # read from all 8192 samples, rho's zero-mode rounding passes the 1e-16
    # rule at n/4 and n/2 on these clocks (M = 8, chirality -); read from the
    # alias-free samples that the clock's bandwidth M allows, no basis
    # frequency exceeds M, and the inverse moves by roundoff only
    bases = []
    half_basis = numerics._half_basis
    monkeypatch.setattr(numerics, "_half_basis",
                        lambda points, freqs, *buffers: bases.append(freqs) or half_basis(points, freqs, *buffers))
    cmap = cs.compute_R(cs.random_state(4, 8, seed=seed, frame=frame4), frame4, "-", 8192)
    assert cmap.bandwidth == 8
    inv = cs.invert_monotone(cmap)
    assert bases and max(int(f.max()) for f in bases) <= 8
    bases.clear()
    plain = cs.invert_monotone(numerics.MonotoneCircleMap(cmap.periodic, cmap.deriv))
    assert sorted({int(m) for f in bases for m in f if m > 8}) == strays
    assert np.max(np.abs(inv.periodic - plain.periodic)) <= 1e-14
    assert np.max(np.abs(inv.deriv - plain.deriv) / plain.deriv) <= 1e-13


def test_clock_degenerate_frame(frame4):
    state = zero_osc_state([1.0, 1.0, 0.0, 0.0], np.zeros(4))  # eta(k, p) = 0
    with pytest.raises(DegenerateFrame):
        cs.compute_R(state, frame4, "-", 64)


def test_clock_non_monotone_raises(frame4):
    state = cs.random_state(4, 2, seed=1, frame=frame4)
    blown = state.replace(left=state.left * 50.0)
    with pytest.raises(NonMonotone):
        cs.compute_R(blown, frame4, "-", 256)


# ----------------------------------------------------------------------
# DDF modes
# ----------------------------------------------------------------------

def test_ddf_modes_zero_osc(frame4):
    state = zero_osc_state([1.0, 0.2, 0.0, 0.4], [0.3, -0.1, 0.2, 0.0])
    modes = cs.ddf_modes(state, frame4, "-", 8, 256)
    for m in range(-8, 9):
        if m == 0:
            assert np.allclose(modes.mode(0), state.alpha0, atol=1e-13)
        else:
            assert np.max(np.abs(modes.mode(m))) < 1e-13


def test_ddf_modes_transversality(ddf_bank, frame4):
    signs = cs.minkowski(4)
    for entry in ddf_bank[:5]:
        for chir in ("-", "+"):
            modes = entry[chir]["modes"]
            kdot = np.abs(modes.modes @ (frame4.k * signs))
            kdot[modes.m_max] = 0.0
            assert kdot.max() <= 1e-10 * np.abs(modes.modes).max()


def test_ddf_modes_conjugation(ddf_bank):
    for entry in ddf_bank[:5]:
        arr = entry["-"]["modes"].modes
        resid = np.abs(arr[::-1].conj() - arr).max()
        assert resid <= 1e-11 * np.abs(arr).max()


def test_ddf_modes_quadrature_convergence(state_bank, ddf_bank, frame4):
    # spectral-accuracy certificate at the default sizes: doubling the grid
    # moves no coefficient by more than 1e-11
    state = state_bank[0]
    a = ddf_bank[0]["-"]["modes"].modes
    b = cs.ddf_modes(state, frame4, "-", 512, 8192).modes
    assert np.max(np.abs(a - b)) < 1e-11


@pytest.mark.parametrize("n,m_out", [(1024, 128), (4096, 512)])
def test_ddf_modes_match_dense_quadrature(state_bank, frame4, n, m_out):
    for state in state_bank[:3]:
        for chir in ("-", "+"):
            got = cs.ddf_modes(state, frame4, chir, m_out, n).modes
            ref = ddf_modes_quadrature(state, frame4, chir, m_out, n)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ddf_modes_memory_bound(state_bank, frame4):
    # a (2 m_out + 1) x N exponential matrix alone would take 256 MiB here;
    # with the Newton basis built in blocks of points the peak is about 3.1 MiB
    assert _traced_peak(cs.ddf_modes, state_bank[0], frame4, "-", 1024, 8192) < 8 * 2 ** 20


@pytest.mark.parametrize("modes, decay, n, bound_mib", [(64, 32, 16384, 8), (256, 128, 65536, 32)])
def test_ddf_modes_memory_is_bounded_at_scale(frame4, modes, decay, n, bound_mib):
    # one (2K, N) basis of all N points alone would take 16.2 and 257 MiB here
    state = cs.random_state(4, modes, seed=1, decay=decay, frame=frame4)
    assert _traced_peak(cs.ddf_modes, state, frame4, "-", n // 8, n) <= bound_mib * 2 ** 20


def test_ddf_modes_grid_guard(state_bank, frame4):
    with pytest.raises(ValueError):
        cs.ddf_modes(state_bank[0], frame4, "-", 512, 1024)  # n < 8*m_out


# ----------------------------------------------------------------------
# zero-mode stripping
# ----------------------------------------------------------------------

def test_strip_zero_mode_x_shift(state_bank, frame4):
    state = state_bank[0]
    kbar = np.array([1.0, -1.0, 0.0, 0.0])  # k.kbar = -2 != 0
    delta = 0.37
    shifted = state.replace(x=state.x + delta * kbar)

    m_out, n = 8, 512
    a0 = cs.ddf_modes(state, frame4, "-", m_out, n)
    a1 = cs.ddf_modes(shifted, frame4, "-", m_out, n)
    s0 = cs.strip_zero_mode(a0, state, frame4)
    s1 = cs.strip_zero_mode(a1, shifted, frame4)
    scale = np.abs(s0.modes).max()
    assert np.max(np.abs(s0.modes - s1.modes)) <= 1e-11 * scale

    # unstripped modes rotate by the exact phase e^{i m dphi0}
    dphi = cs.zero_mode_phase(shifted, frame4) - cs.zero_mode_phase(state, frame4)
    ms = np.arange(-m_out, m_out + 1)
    predicted = a0.modes * np.exp(1j * ms * dphi)[:, None]
    assert np.max(np.abs(predicted - a1.modes)) <= 1e-10 * scale


def test_strip_zero_mode_m0_and_zero_osc(frame4):
    state = zero_osc_state([1.0, 0.2, 0.0, 0.4], [0.3, -0.1, 0.2, 0.0])
    modes = cs.ddf_modes(state, frame4, "-", 4, 256)
    stripped = cs.strip_zero_mode(modes, state, frame4)
    assert np.allclose(stripped.mode(0), modes.mode(0))
    for m in (1, 2, 3, 4):
        assert np.max(np.abs(stripped.mode(m))) < 1e-13


# ----------------------------------------------------------------------
# composite invariants
# ----------------------------------------------------------------------

def test_ddf_invariant_empty_product(state_bank, frame4):
    spec = cs.DDFInvariantSpec(left=[], right=[], level=0)
    assert cs.ddf_invariant(state_bank[0], frame4, spec, 512) == pytest.approx(1.0)


def test_ddf_invariant_level_guard():
    with pytest.raises(LevelMismatch):
        cs.DDFInvariantSpec(left=[(0, 1)], right=[(0, 2)], level=1)
    spec = cs.DDFInvariantSpec(left=[(0, 1)], right=[(0, 2)], level=1, allow_unmatched=True)
    assert not spec.is_matched


def test_ddf_spec_rejects_non_integer_factors():
    # a float index or mode number is an error, not silently truncated
    for left in ([(0.7, 1)], [(1, 1.9)], [(1, np.float64(1.0))]):
        with pytest.raises(TypeError):
            cs.DDFInvariantSpec(left=left, right=[(1, 1)], level=1)
    with pytest.raises(TypeError):
        cs.DDFInvariantSpec(left=[(1, 1)], right=[(np.float64(2.5), 1)], level=1)
    # a float level would enter the phase e^{i N phi0} as it stands
    with pytest.raises(TypeError):
        cs.DDFInvariantSpec(left=[], right=[], level=1.5, allow_unmatched=True)
    spec = cs.DDFInvariantSpec(left=[(np.int64(1), np.int32(1))], right=[(2, np.int64(1))],
                               level=np.int64(1))
    assert spec.left == ((1, 1),) and spec.right == ((2, 1),)
    assert all(type(i) is int for pair in spec.left + spec.right for i in pair + (spec.level,))


def test_ddf_invariant_stripped_vs_unstripped_routes(state_bank, frame4):
    # same object through both factorizations:
    # prod(a) prod(~a) e^{+iN phi0}  ==  prod(A) prod(~A) e^{-iN phi0}
    state = state_bank[2]
    spec = cs.DDFInvariantSpec(left=[(1, 1), (2, 1)], right=[(0, 2)], level=2)
    got = cs.ddf_invariant(state, frame4, spec, 512)

    phi0 = cs.zero_mode_phase(state, frame4)
    am = cs.ddf_modes(state, frame4, "-", 2, 512)
    at = cs.ddf_modes(state, frame4, "+", 2, 512)
    unstripped = am.mode(1)[1] * am.mode(1)[2] * at.mode(2)[0] * np.exp(-1j * spec.level * phi0)
    assert abs(got - unstripped) < 1e-12 * (1 + abs(got))


# ----------------------------------------------------------------------
# reconstructions
# ----------------------------------------------------------------------

def test_reconstruct_zero_osc(frame4):
    state = zero_osc_state([1.0, 0.2, 0.0, 0.4], [0.3, -0.1, 0.2, 0.0])
    modes = cs.ddf_modes(state, frame4, "-", 8, 256)
    grid = cs.reconstruct_field(modes, 256)
    direct = cs.reconstruct_field_direct(state, frame4, "-", 256)
    expected = state.p / (TAU * np.sqrt(2 * state.tension))
    assert np.allclose(grid.values, expected[None, :], atol=1e-12)
    assert np.allclose(direct.values, grid.values, atol=1e-12)


def test_reconstruct_identity_clock_round_trip(frame4):
    # with R = identity the DDF modes are the plain Fourier modes, so
    # extract -> reconstruct -> extract is the identity
    state = transverse_state(frame4)
    cmap = cs.compute_R(state, frame4, "-", 512)
    assert np.max(np.abs(cmap.periodic)) < 1e-12

    modes = cs.ddf_modes(state, frame4, "-", 8, 512)
    for m in range(1, 5):
        assert np.max(np.abs(modes.mode(m) - state.left[m - 1])) < 1e-12
    rebuilt = cs.reconstruct_field(modes, 512)
    again = cs.ddf_modes(state, frame4, "-", 8, 512)
    assert np.max(np.abs(again.modes - modes.modes)) < 1e-12

    direct = cs.reconstruct_field_direct(state, frame4, "-", 512)
    field = cs.eval_field(state, "-", 512)
    assert np.max(np.abs(direct.values - field.values)) < 1e-12
    assert np.max(np.abs(rebuilt.values - field.values)) < 1e-12


def test_reconstruction_equivalence_tightens_with_m_out(state_bank, frame4):
    state = state_bank[4]
    n = 2048
    direct = cs.reconstruct_field_direct(state, frame4, "-", n)
    scale = np.max(np.abs(direct.values))
    errs = []
    for m_out in (16, 32, 64, 128):
        rec = cs.reconstruct_field(cs.ddf_modes(state, frame4, "-", m_out, n), n)
        errs.append(np.max(np.abs(rec.values - direct.values)) / scale)
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12
    assert errs[-1] < 1e-6


FRAMES = {"default": cs.default_frame(4), "1,0,1,0": cs.LightlikeFrame(np.array([1.0, 0.0, 1.0, 0.0]))}


@pytest.mark.parametrize("frame_name", sorted(FRAMES))
@pytest.mark.parametrize("n", [64, 512, 8192])
def test_real_synthesis_matches_the_complex_route(frame_name, n):
    # the clock's rho and R' and the DDF mode sum, each one irfft of a half
    # spectrum, against the real part of the complex two-sided sum
    frame = FRAMES[frame_name]
    eps = np.finfo(float).eps
    for seed in (1, 2, 3):
        state = cs.random_state(4, 8, seed=seed, frame=frame)
        for chir in ("-", "+"):
            cmap = cs.compute_R(state, frame, chir, n)
            rho, deriv = clock_by_complex_synthesis(state, frame, chir, n)
            assert np.max(np.abs(cmap.periodic - rho)) <= 4 * eps * np.max(np.abs(rho))
            assert np.max(np.abs(cmap.deriv - deriv)) <= 4 * eps * np.max(np.abs(deriv))
            modes = cs.ddf_modes(state, frame, chir, n // 8, n)
            field, _ = mode_sum_by_complex_synthesis(modes, n)
            rec = cs.reconstruct_field(modes, n)
            assert rec.bandwidth == n // 8
            assert np.max(np.abs(rec.values - field)) <= 4 * eps * np.max(np.abs(field))


def test_transform_counts(state_bank, frame4, fft_calls):
    # real series take one irfft each, the chiral field P among them; the
    # complex mode sum the reality suite checks P against is off this path
    state = state_bank[0]
    modes = cs.ddf_modes(state, frame4, "+", 64, 512)
    for fn, want in ((lambda: cs.compute_R(state, frame4, "-", 512), ["irfft"]),
                     (lambda: cs.reconstruct_field(modes, 512), ["irfft"]),
                     (lambda: cs.ddf_modes(state, frame4, "-", 64, 512), ["irfft", "rfft", "rfft", "rfft"]),
                     (lambda: cs.eval_field(state, "-", 512), ["irfft"])):
        fft_calls.clear()
        fn()
        assert fft_calls == want


def _anti_hermitian(rng, shape):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (x - np.conj(x[::-1])) / 2


def test_reconstruct_rejects_non_real_modes(state_bank, frame4, rng):
    modes = cs.ddf_modes(state_bank[2], frame4, "-", 64, 512)
    scale = np.max(np.abs(modes.modes))
    delta = _anti_hermitian(rng, modes.modes.shape)
    delta *= scale / np.max(np.abs(delta))
    with pytest.raises(ValueError, match="non-real residue"):
        cs.reconstruct_field(cs.DDFModes("-", 64, modes.modes + 1e-6 * delta, modes.k), 512)
    ok = cs.reconstruct_field(cs.DDFModes("-", 64, modes.modes + 1e-12 * delta, modes.k), 512)
    assert np.max(np.abs(ok.values - cs.reconstruct_field(modes, 512).values)) < 1e-10


def test_reconstruct_mode_bound_covers_the_sample_residue(state_bank, frame4, rng):
    # the bound on the modes is never looser than max|Im| / max|Re| of the
    # complex sum's samples, the residue checked before
    base = {chir: cs.ddf_modes(state_bank[3], frame4, chir, 64, 512) for chir in ("-", "+")}
    for trial in range(50):
        modes = base["-" if trial % 2 else "+"]
        size = 10.0 ** rng.uniform(-12, -4) * np.max(np.abs(modes.modes))
        delta = rng.standard_normal(modes.modes.shape) + 1j * rng.standard_normal(modes.modes.shape)
        moved = cs.DDFModes(modes.chirality, 64, modes.modes + size * delta, modes.k)
        re, im = mode_sum_by_complex_synthesis(moved, 512)
        old = np.max(np.abs(im)) / np.max(np.abs(re))
        assert _non_real_bound(moved.modes) / np.max(np.abs(re)) >= old


def test_reconstruct_grid_guards(state_bank, frame4):
    modes = cs.ddf_modes(state_bank[0], frame4, "-", 64, 512)
    for n in (600, 64, 128):  # not a power of two; below 2 m_max + 2 = 130
        with pytest.raises(ValueError):
            cs.reconstruct_field(modes, n)
    assert cs.reconstruct_field(modes, 256).values.shape == (256, 4)


def _assert_substitute_matches_sample_route(state, frame, chir):
    # Q at the 1024-grid targets, every 8th point of the 8192-grid
    targets = grid_sigma(1024)
    for n in (1024, 8192):
        got = substitute(state, frame, chir, n)[::n // 1024]
        ref = substitute_by_samples(state, frame, chir, n, targets)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (chir, n)


@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize("seed", range(1, 9))
def test_substitute_matches_the_sample_route(frame4, seed, m):
    # P and R' read from the inversion's basis against field samples,
    # interpolated densely at Brent roots
    state = cs.random_state(4, m, seed=seed, frame=frame4)
    for chir in ("-", "+"):
        _assert_substitute_matches_sample_route(state, frame4, chir)


def test_substitute_matches_the_sample_route_on_a_steep_clock(frame4):
    # rescaled to the margin: min R' = 1e-2, so (R^{-1})' reaches 100
    state = cs.random_state(4, 8, seed=1, decay=3.0, margin=0.01, frame=frame4)
    assert cs.compute_R(state, frame4, "+", 8192).min_deriv() == pytest.approx(1e-2, rel=0.05)
    _assert_substitute_matches_sample_route(state, frame4, "+")


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

def test_ddfmodes_json_round_trip(state_bank, frame4):
    modes = cs.ddf_modes(state_bank[0], frame4, "+", 6, 512)
    text = cs.ddfmodes_to_json(modes)
    doc = json.loads(text)
    assert doc["format"] == "ddfmodes-v1"
    assert set(doc) == {"format", "chirality", "m_max", "k", "modes"}
    assert len(doc["modes"]) == 2 * modes.m_max + 1
    back = cs.ddfmodes_from_json(text)
    assert back.chirality == "+"
    assert np.array_equal(back.modes, modes.modes)
    assert np.array_equal(back.k, modes.k)


def _flat_modes(doc):
    doc["modes"] = [z for row in doc["modes"] for z in row]


def _one_row(doc):
    doc["m_max"], doc["modes"] = 1, doc["modes"][:1]


def _bad_chirality(doc):
    doc["chirality"] = "x"


@pytest.mark.parametrize("corrupt", [_flat_modes, _one_row, _bad_chirality])
def test_ddfmodes_json_rejects_malformed_input(state_bank, frame4, corrupt):
    # the state reader's checks: rows of [re, im] pairs, one row per mode
    # number, and a known chirality
    doc = json.loads(cs.ddfmodes_to_json(cs.ddf_modes(state_bank[0], frame4, "-", 1, 64)))
    corrupt(doc)
    with pytest.raises(ValueError):
        cs.ddfmodes_from_json(json.dumps(doc))
