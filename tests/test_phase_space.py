import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import closedstring as cs
from closedstring.numerics import TAU, grid_sigma, modes_to_grid, real_modes
from closedstring.phase_space import _continuum_min


def zero_osc_state(p, x=None, dim=4):
    return cs.StringState(dim=dim, tension=cs.DEFAULT_TENSION, truncation=1,
                          x=np.zeros(dim) if x is None else np.asarray(x, float),
                          p=np.asarray(p, float),
                          left=np.zeros((1, dim), complex),
                          right=np.zeros((1, dim), complex))


def test_metric_and_eta_dot():
    assert np.array_equal(cs.minkowski(4), [-1, 1, 1, 1])
    a = np.array([1.0, 2.0, 0.0, 0.0])
    assert cs.eta_dot(a, a) == pytest.approx(3.0)


def test_lightlike_frame_validation():
    cs.LightlikeFrame(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        cs.LightlikeFrame(np.array([1.0, 0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        cs.LightlikeFrame(np.zeros(4))


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def test_random_state_deterministic():
    a = cs.random_state(4, 8, seed=42)
    b = cs.random_state(4, 8, seed=42)
    for f in ("x", "p", "left", "right"):
        va, vb = getattr(a, f), getattr(b, f)
        assert np.array_equal(va, vb)  # bit-identical


def test_random_state_margin_contract(frame4):
    # oracle: evaluate R' on a fine grid for both chiralities
    for seed in (7, 13, 99):
        state = cs.random_state(4, 8, seed=seed, frame=frame4, margin=0.2)
        for chir in ("-", "+"):
            cmap = cs.compute_R(state, frame4, chir, 4096)
            assert cmap.min_deriv() >= 0.2 - 1e-9


def test_random_state_margin_holds_between_samples():
    # the margin holds on the circle, not only on the grid random_state samples;
    # N = 65536 resolves the dips between its 4096 samples
    cases = [(2, 1, 5)] + [(4, m, seed) for m in (1, 8) for seed in range(1, 21)]
    for dim, m, seed in cases:
        frame = cs.default_frame(dim)
        state = cs.random_state(dim, m, seed=seed, frame=frame, margin=0.2)
        for chir in ("-", "+"):
            assert cs.compute_R(state, frame, chir, 65536).min_deriv() >= 0.2 - 1e-12


@pytest.mark.parametrize("m", [8, 16])
def test_continuum_min_bounds_the_oversampled_minimum(m):
    # the bound from n = 4M samples of each clock's R' lies below its minimum
    # on a 64x finer grid, and equals the sum over the full complex spectrum
    for seed in range(1, 21):
        frame = cs.default_frame(4)
        state = cs.random_state(4, m, seed=seed, frame=frame)
        for chir in ("-", "+"):
            coarse = cs.compute_R(state, frame, chir, 4 * m).deriv
            bound = _continuum_min(coarse)
            assert bound <= cs.compute_R(state, frame, chir, 256 * m).min_deriv()
            assert abs(bound - _continuum_min_full_spectrum(coarse)) <= 1e-14 * abs(bound)


def test_continuum_min_weights_the_nyquist_row_once(rng):
    # white noise has a Nyquist component, which the half spectrum holds once
    for n in (8, 64, 1024):
        samples = rng.standard_normal(n)
        want = _continuum_min_full_spectrum(samples)
        assert abs(_continuum_min(samples) - want) <= 1e-13 * abs(want)


def _continuum_min_full_spectrum(samples):
    n = samples.shape[0]
    curvature = np.sum(np.fft.fftfreq(n, 1.0 / n) ** 2 * np.abs(np.fft.fft(samples))) / n
    return float(samples.min()) - (TAU / n) ** 2 / 8.0 * curvature


def test_random_state_zero_osc_trivial_clock(frame4):
    state = zero_osc_state([1.0, 0.2, 0.1, -0.3])
    for chir in ("-", "+"):
        cmap = cs.compute_R(state, frame4, chir, 64)
        assert np.allclose(cmap.deriv, 1.0, atol=1e-14)


def test_random_state_rescale_enforces_margin(frame4):
    # with slowly decaying oscillators the raw draw violates the margin and
    # the global rescale must bring it back, not reject it
    for seed in range(4):
        state = cs.random_state(4, 8, seed=seed, frame=frame4, decay=3.0, margin=0.3)
        for chir in ("-", "+"):
            assert cs.compute_R(state, frame4, chir, 4096).min_deriv() >= 0.3 - 1e-9


def test_minimal_dimensions():
    state = cs.random_state(2, 1, seed=0)
    grid = cs.eval_field(state, "-", 8)
    assert grid.values.shape == (8, 2)
    modes = cs.ddf_modes(state, cs.default_frame(2), "-", 1, 16)
    assert modes.modes.shape == (3, 2)


def test_random_state_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cs.random_state(1, 8, seed=0)
    with pytest.raises(ValueError):
        cs.random_state(4, 8, seed=0, margin=1.5)


# ----------------------------------------------------------------------
# field evaluation
# ----------------------------------------------------------------------

def test_eval_field_zero_oscillators():
    p = np.array([1.0, 0.5, 0.0, -0.2])
    state = zero_osc_state(p)
    expected = p / (TAU * np.sqrt(2 * state.tension))
    for chir in ("-", "+"):
        grid = cs.eval_field(state, chir, 64)
        assert np.allclose(grid.values, expected[None, :], atol=1e-14)


def test_eval_field_single_mode():
    e = np.zeros(4)
    e[1] = 1.0
    state = cs.StringState(dim=4, tension=cs.DEFAULT_TENSION, truncation=1,
                           x=np.zeros(4), p=np.zeros(4),
                           left=np.array([e], complex), right=np.zeros((1, 4), complex))
    grid = cs.eval_field(state, "-", 64)
    sig = grid_sigma(64)
    expected = (2.0 / np.sqrt(TAU)) * np.cos(sig)
    assert np.allclose(grid.values[:, 1], expected, atol=1e-13)
    assert np.allclose(grid.values[:, 0], 0.0, atol=1e-14)


def test_grid_mean_is_zero_mode(state_bank):
    for state in state_bank[:5]:
        for chir in ("-", "+"):
            grid = cs.eval_field(state, chir, 1024)
            mean = grid.values.mean(axis=0)
            expected = state.p / (TAU * np.sqrt(2 * state.tension))
            assert np.max(np.abs(mean - expected)) < 1e-12 * (1 + np.max(np.abs(expected)))


def test_parseval(state_bank):
    state = state_bank[0]
    n = 1024
    grid = cs.eval_field(state, "-", n)
    lhs = (TAU / n) * np.sum(np.abs(grid.values) ** 2)
    rhs = np.sum(np.abs(state.alpha0) ** 2) + 2 * np.sum(np.abs(state.left) ** 2)
    assert abs(lhs - rhs) < 1e-12 * rhs


@pytest.mark.parametrize("dim", [4, 26])
@pytest.mark.parametrize("n", [64, 512, 8192])
def test_eval_field_matches_the_complex_mode_sum(dim, n):
    # one irfft of the half spectrum against the two-sided complex sum over
    # m = -M..M, imaginary round-off included, to a few ulps of the field
    eps = np.finfo(float).eps
    for seed in (1, 2, 3):
        state = cs.random_state(dim, 8, seed=seed)
        for chir, orientation in (("-", +1), ("+", -1)):
            field = cs.eval_field(state, chir, n)
            z = modes_to_grid(real_modes(state.alpha0, state.modes(chir)), n, orientation)
            assert field.values.dtype == float and field.bandwidth == 8
            peak = np.max(np.abs(field.values))
            assert np.max(np.abs(z / np.sqrt(TAU) - field.values)) <= 4 * eps * peak


def test_eval_field_guards(state_bank):
    state = state_bank[0]
    with pytest.raises(ValueError):
        cs.eval_field(state, "-", 16)  # < 4M
    with pytest.raises(ValueError):
        cs.eval_field(state, "-", 48)  # not a power of two
    with pytest.raises(ValueError):
        cs.eval_field(state, "x", 64)


# ----------------------------------------------------------------------
# momentum and density
# ----------------------------------------------------------------------

def test_com_momentum_zero_osc():
    state = zero_osc_state([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(cs.com_momentum(state, 64), [1, 0, 0, 0], atol=1e-14)


def test_com_momentum_matches_stored(state_bank):
    for state in state_bank[:5]:
        got = cs.com_momentum(state, 1024)
        assert np.max(np.abs(got - state.p)) < 1e-12 * (1 + np.max(np.abs(state.p)))


def test_com_momentum_linear_in_p(state_bank):
    state = state_bank[0]
    doubled = state.replace(p=2 * state.p)
    assert np.allclose(cs.com_momentum(doubled, 512), 2 * cs.com_momentum(state, 512))


def test_virasoro_density_zero_osc():
    p = np.array([1.0, 0.5, 0.0, -0.2])
    state = zero_osc_state(p)
    dens = cs.virasoro_density(state, "-", 64)
    c = p / (TAU * np.sqrt(2 * state.tension))
    assert np.allclose(dens.values, cs.eta_dot(c, c), atol=1e-14)


def test_virasoro_density_lightlike_momentum():
    state = zero_osc_state([1.0, 1.0, 0.0, 0.0])
    dens = cs.virasoro_density(state, "+", 64)
    assert np.allclose(dens.values, 0.0, atol=1e-14)


def test_density_mean_matches_l0(state_bank, frame4):
    from closedstring.poisson import virasoro_mode

    state = state_bank[1]
    dens = cs.virasoro_density(state, "-", 1024)
    l0 = complex(virasoro_mode("-", 0, 1024).fn(state))
    assert abs(dens.values.mean() - l0.real / np.pi) < 1e-12 * (1 + abs(l0))


def test_position_field_mean_and_derivative(state_bank):
    state = state_bank[2]
    n = 1024
    x = cs.position_field(state, n)
    assert np.max(np.abs(x.values.mean(axis=0) - state.x)) < 1e-12
    spec = np.fft.fft(x.values, axis=0)
    k = np.rint(np.fft.fftfreq(n, 1.0 / n))[:, None]
    dx = np.fft.ifft(spec * 1j * k, axis=0).real
    pm = cs.eval_field(state, "-", n).values
    pp = cs.eval_field(state, "+", n).values
    assert np.max(np.abs(dx - (pp - pm) / np.sqrt(2 * state.tension))) < 1e-11


# ----------------------------------------------------------------------
# immutability and JSON
# ----------------------------------------------------------------------

def test_state_arrays_frozen(state_bank):
    state = state_bank[0]
    with pytest.raises(ValueError):
        state.p[0] = 0.0


def test_json_round_trip(state_bank):
    state = state_bank[3]
    text = cs.state_to_json(state)
    doc = json.loads(text)
    assert doc["format"] == "stringstate-v1"
    assert set(doc) == {"format", "dim", "tension", "M", "x", "p", "left", "right"}
    back = cs.state_from_json(text)
    assert np.array_equal(back.x, state.x)
    assert np.array_equal(back.p, state.p)
    assert np.array_equal(back.left, state.left)
    assert np.array_equal(back.right, state.right)


def test_json_rejects_unknown_format():
    with pytest.raises(ValueError):
        cs.state_from_json(json.dumps({"format": "nope"}))


@given(st.integers(0, 2 ** 16))
def test_json_round_trip_random(seed):
    state = cs.random_state(3, 2, seed=seed, frame=cs.default_frame(3))
    back = cs.state_from_json(cs.state_to_json(state))
    assert np.array_equal(back.left, state.left)
    assert np.array_equal(back.right, state.right)
