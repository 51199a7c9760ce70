import numpy as np
import pytest
from hypothesis import given, strategies as st

import closedstring as cs
from closedstring.numerics import TAU, grid_sigma
from closedstring.reparam import ReparamMap, pullback_weight_one, random_diffeo


def test_zero_amplitude_is_identity():
    cmap = random_diffeo(seed=0, order=3, amplitude=0.0)
    sig = grid_sigma(64)
    assert np.allclose(cmap(sig), sig)
    assert np.allclose(cmap.deriv(sig), 1.0)


def test_single_harmonic_closed_form():
    cmap = ReparamMap(np.array([0.5]), np.array([0.0]))
    sig = grid_sigma(128)
    assert np.allclose(cmap(sig), sig + 0.5 * np.sin(sig))
    assert cmap.deriv(sig).min() >= 0.5 - 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.floats(0.05, 0.9))
def test_random_diffeo_monotone_budget(seed, order, amplitude):
    cmap = random_diffeo(seed, order, amplitude, fix_base_point=True)
    j = np.arange(1, cmap.order + 1)
    assert np.sum(j * np.abs(cmap.amplitudes)) <= 0.9 + 1e-9
    # the whole budget is spent, at order 1 too
    assert np.sum(j * np.abs(cmap.amplitudes)) == pytest.approx(amplitude, rel=1e-12, abs=1e-15)
    sig = grid_sigma(4096)
    assert cmap.deriv(sig).min() >= 0.1 - 1e-9
    assert abs(cmap(0.0)) < 1e-12  # base point fixed
    # winding: phi(sigma + 2 pi) = phi(sigma) + 2 pi
    assert np.allclose(cmap(sig + TAU), cmap(sig) + TAU)


def test_random_diffeo_deterministic():
    a = random_diffeo(11, 4, 0.6)
    b = random_diffeo(11, 4, 0.6)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(a.phases, b.phases)


def test_budget_guard():
    with pytest.raises(ValueError):
        ReparamMap(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        random_diffeo(0, 2, amplitude=0.95)


def test_pullback_identity():
    rng = np.random.default_rng(1)
    field = cs.FieldGrid(rng.standard_normal((128, 4)))
    out = pullback_weight_one(field, random_diffeo(0, 2, 0.0))
    assert np.max(np.abs(out.values - field.values)) < 1e-13


def test_pullback_constant_field_closed_form():
    cmap = ReparamMap(np.array([0.5]), np.array([0.0]))
    field = cs.FieldGrid(np.full((256, 2), 3.0))
    out = pullback_weight_one(field, cmap)
    sig = grid_sigma(256)
    assert np.allclose(out.values, 3.0 * (1 + 0.5 * np.cos(sig))[:, None], atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
def test_pullback_preserves_total_integral(seed):
    rng = np.random.default_rng(seed)
    n = 512
    sig = grid_sigma(n)
    field = np.zeros((n, 2))
    for m in range(1, 9):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        field += 2 * np.real(c[None, :] * np.exp(1j * m * sig)[:, None] * np.exp(-m / 3))
    field += rng.standard_normal(2)[None, :]
    grid = cs.FieldGrid(field)
    cmap = random_diffeo(seed, 3, 0.5, fix_base_point=False)
    pulled = pullback_weight_one(grid, cmap)
    before = field.mean(axis=0) * TAU
    after = pulled.values.mean(axis=0) * TAU
    assert np.max(np.abs(before - after)) < 1e-11 * (1 + np.max(np.abs(before)))


def test_pullback_composition_consistency():
    n = 1024
    sig = grid_sigma(n)
    field = cs.FieldGrid(np.column_stack([np.cos(sig) + 0.2, np.sin(2 * sig)]))
    phi = random_diffeo(1, 3, 0.35)
    psi = random_diffeo(2, 2, 0.3)
    step = pullback_weight_one(pullback_weight_one(field, phi), psi)

    class Composed:
        def __call__(self, s):
            return phi(psi(s))

        def deriv(self, s):
            return phi.deriv(psi(s)) * psi.deriv(s)

    once = pullback_weight_one(field, Composed())
    scale = np.max(np.abs(once.values))
    assert np.max(np.abs(step.values - once.values)) < 1e-9 * scale



def test_pullback_of_real_field_is_real():
    # white noise carries a Nyquist mode, whose complex interpolant is not real off the grid
    n = 128
    vals = np.random.default_rng(3).standard_normal((n, 2))
    cmap = random_diffeo(1, 3, 0.5, fix_base_point=False)
    out = pullback_weight_one(cs.FieldGrid(vals), cmap)
    assert out.values.dtype == np.float64
    # oracle: the DFT series with the Nyquist mode taken as its cosine
    sig = grid_sigma(n)
    pts = cmap(sig)
    m = np.fft.fftfreq(n, 1.0 / n)
    waves = np.exp(1j * np.outer(pts, m))
    waves[:, m == -n // 2] = np.cos(n // 2 * pts)[:, None]
    want = (waves @ (np.fft.fft(vals, axis=0) / n)).real * cmap.deriv(sig)[:, None]
    assert np.max(np.abs(out.values - want)) <= 1e-12
