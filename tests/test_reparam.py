import pickle
import sys
import threading

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

        def on_grid(self, n):
            return self(grid_sigma(n)), self.deriv(grid_sigma(n))

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


def test_pullback_reads_a_banded_field_from_its_alias_free_samples(state_bank):
    # the field's bandwidth M routes the interpolation's spectrum through 32
    # samples, not 4096: the same pullback as of its plain samples, to
    # roundoff (at most 1.2e-15 of the largest value over 240 pullbacks of
    # 40 states), and the pulled field carries no bandwidth
    for state in state_bank[:5]:
        field = cs.eval_field(state, "-", 4096)
        for seed in range(3):
            cmap = random_diffeo(seed, 3, 0.5)
            banded = pullback_weight_one(field, cmap)
            plain = pullback_weight_one(cs.FieldGrid(field.values), cmap).values
            assert banded.bandwidth is None
            assert np.max(np.abs(banded.values - plain)) <= 4e-15 * np.max(np.abs(plain))


def test_map_grid_samples_are_made_once_and_read_only():
    cmap = random_diffeo(4, 3, 0.5)
    for n in (64, 4096):
        phi, dphi = cmap.on_grid(n)
        sig = grid_sigma(n)
        assert np.array_equal(phi, cmap(sig)) and np.array_equal(dphi, cmap.deriv(sig))
        assert not phi.flags.writeable and not dphi.flags.writeable
        again = cmap.on_grid(n)
        assert again[0] is phi and again[1] is dphi
    # a copy or an unpickled map starts with none and makes the same samples
    clone = pickle.loads(pickle.dumps(cmap))
    assert clone._grids == {}
    assert np.array_equal(clone.on_grid(64)[0], cmap.on_grid(64)[0])


def test_map_grid_samples_are_shared_across_threads():
    # verify's workers share the diffeos: threads asking at once may each
    # make the pair, but all must get the one pair stored first
    cmap = random_diffeo(5, 3, 0.5)
    barrier = threading.Barrier(8, timeout=5)
    got = []

    def ask():
        barrier.wait()
        got.append(cmap.on_grid(2048))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=ask) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(got) == 8 and all(pair[0] is got[0][0] and pair[1] is got[0][1] for pair in got)
    assert cmap.on_grid(2048)[0] is got[0][0]
