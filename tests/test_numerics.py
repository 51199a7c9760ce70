import numpy as np
import pytest
from hypothesis import given, strategies as st

from closedstring.errors import NonMonotone, NotConverged
from closedstring.numerics import (TAU, ModeVector, MonotoneCircleMap,
                                   grid_sigma, grid_to_modes, invert_monotone,
                                   modes_to_grid, periodic_antiderivative,
                                   simplex_iterated_integral, trig_interpolate)
from oracles import antiderivative_quad, iterated_integral_modes


def band_limited(rng, n, k, decay=3.0):
    sig = grid_sigma(n)
    f = rng.standard_normal() * np.ones(n)
    for m in range(1, k + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-m / decay)
        f += 2 * np.real(c * np.exp(1j * m * sig))
    return f


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

def test_modes_to_grid_constant():
    mv = ModeVector(np.array([0, 1, 0], complex), orientation=+1)
    assert np.allclose(modes_to_grid(mv, 8), 1.0)


def test_modes_to_grid_two_cosine():
    mv = ModeVector(np.array([1, 0, 1], complex), orientation=+1)
    grid = modes_to_grid(mv, 16)
    assert np.allclose(grid.real, 2 * np.cos(grid_sigma(16)), atol=1e-14)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_mode_grid_round_trip(seed, k):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    for orientation in (+1, -1):
        mv = ModeVector(coeffs, orientation)
        back = grid_to_modes(modes_to_grid(mv, 64), k, orientation)
        assert np.max(np.abs(back.coeffs - coeffs)) < 1e-13


def test_grid_to_modes_size_guard():
    with pytest.raises(ValueError):
        grid_to_modes(np.ones(8), 4)
    with pytest.raises(ValueError):
        modes_to_grid(ModeVector(np.zeros(9, complex)), 8)


# ----------------------------------------------------------------------
# antiderivative
# ----------------------------------------------------------------------

def test_antiderivative_constant():
    g, mean = periodic_antiderivative(np.ones(32))
    assert np.allclose(g, 0.0, atol=1e-15)
    assert np.isclose(mean.real, 1.0)


def test_antiderivative_cosine():
    sig = grid_sigma(64)
    g, mean = periodic_antiderivative(np.cos(sig))
    assert np.allclose(g, np.sin(sig), atol=1e-13)
    assert abs(mean) < 1e-15


def test_antiderivative_exp_sin_frozen():
    # oracle: scipy adaptive quadrature of exp(sin) minus its mean I_0(1)
    n = 256
    sig = grid_sigma(n)
    g, mean = periodic_antiderivative(np.exp(np.sin(sig)))
    assert np.isclose(mean.real, 1.2660658777520084, atol=1e-13)
    frozen = {32: 0.17027835210530023, 128: 2.2312947752046872, 192: 1.1156473876023436}
    for j, target in frozen.items():
        assert abs(g[j].real - target) < 1e-12


def test_antiderivative_quadrature_oracle_live():
    n = 256
    sig = grid_sigma(n)
    f = lambda t: np.exp(0.7 * np.sin(t) + 0.2 * np.cos(2 * t))
    g, mean = periodic_antiderivative(f(sig))
    idx = [10, 77, 200]
    oracle = antiderivative_quad(f, sig[idx], mean.real)
    assert np.max(np.abs(g[idx].real - oracle)) < 1e-12


def test_antiderivative_derivative_identity(rng):
    n = 512
    f = band_limited(rng, n, 12)
    g, mean = periodic_antiderivative(f)
    spec = np.fft.fft(g)
    k = np.rint(np.fft.fftfreq(n, 1.0 / n))
    df = np.fft.ifft(spec * 1j * k).real
    assert np.max(np.abs(df - (f - mean.real))) < 1e-11


# ----------------------------------------------------------------------
# simplex integrals
# ----------------------------------------------------------------------

def test_simplex_depth_one_constant():
    assert np.isclose(simplex_iterated_integral([np.ones(64)]), TAU)


def test_simplex_two_constants():
    assert np.isclose(simplex_iterated_integral([np.ones(64)] * 2), TAU ** 2 / 2)


def test_simplex_frozen_values():
    sig = grid_sigma(256)
    fs3 = [1 + 0.5 * np.cos(sig), 0.25 + np.sin(sig), np.cos(2 * sig) - 0.5 * np.sin(sig)]
    assert abs(simplex_iterated_integral(fs3) - 1.2893038551761684) < 1e-12
    fs2 = [np.exp(0.4 * np.cos(sig)), 1 + 0.3 * np.sin(2 * sig)]
    assert abs(simplex_iterated_integral(fs2) - 19.575254582161321) < 1e-10


def test_simplex_triple_vs_mode_enumeration(rng):
    n = 256
    fs = [band_limited(rng, n, 8) for _ in range(3)]
    fast = simplex_iterated_integral(fs)
    oracle = iterated_integral_modes(fs)
    assert abs(fast - oracle) <= 1e-9 * abs(oracle)


@given(st.integers(0, 2 ** 32 - 1))
def test_simplex_shuffle_degree_two(seed):
    rng = np.random.default_rng(seed)
    n = 256
    f, g = band_limited(rng, n, 6), band_limited(rng, n, 6)
    i_f = simplex_iterated_integral([f])
    i_g = simplex_iterated_integral([g])
    fg = simplex_iterated_integral([f, g])
    gf = simplex_iterated_integral([g, f])
    scale = abs(i_f * i_g) + abs(fg) + abs(gf) + 1.0
    assert abs(i_f * i_g - fg - gf) < 1e-10 * scale


def test_simplex_shuffle_degree_three(rng):
    n = 512
    f, g, h = (band_limited(rng, n, 6) for _ in range(3))
    lhs = simplex_iterated_integral([f]) * simplex_iterated_integral([g, h])
    rhs = (simplex_iterated_integral([f, g, h])
           + simplex_iterated_integral([g, f, h])
           + simplex_iterated_integral([g, h, f]))
    assert abs(lhs - rhs) < 1e-9 * (abs(lhs) + abs(rhs) + 1.0)


def test_simplex_empty_rejected():
    with pytest.raises(ValueError):
        simplex_iterated_integral([])


# ----------------------------------------------------------------------
# monotone inversion
# ----------------------------------------------------------------------

def test_invert_rigid_shift():
    n = 128
    c = 0.8
    cmap = MonotoneCircleMap(periodic=np.full(n, c), deriv=np.ones(n))
    inv = invert_monotone(cmap)
    assert np.allclose(inv.periodic, -c, atol=1e-12)
    assert np.allclose(inv.deriv, 1.0, atol=1e-12)


def test_invert_sine_round_trip():
    n = 256
    sig = grid_sigma(n)
    cmap = MonotoneCircleMap(periodic=0.3 * np.sin(sig), deriv=1 + 0.3 * np.cos(sig))
    inv = invert_monotone(cmap)
    fwd = trig_interpolate(inv.periodic, cmap.values()).real + cmap.values()
    assert np.max(np.abs(fwd - sig)) < 1e-10
    # derivative identity (R^-1)' * R' o R^-1 = 1
    rp = trig_interpolate(cmap.deriv, inv.values()).real
    assert np.max(np.abs(inv.deriv * rp - 1.0)) < 1e-9


def test_invert_raises_when_not_converged():
    sig = grid_sigma(256)
    cmap = MonotoneCircleMap(periodic=0.3 * np.sin(sig), deriv=1 + 0.3 * np.cos(sig))
    with pytest.raises(NotConverged):
        invert_monotone(cmap, max_iter=1)


def test_invert_rejects_non_monotone():
    sig = grid_sigma(128)
    cmap = MonotoneCircleMap(periodic=np.sin(sig), deriv=1 + np.cos(sig))
    with pytest.raises(NonMonotone):
        invert_monotone(cmap)
