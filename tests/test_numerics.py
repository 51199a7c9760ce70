import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import closedstring as cs
from closedstring import numerics
from closedstring.errors import NonMonotone, NotConverged
from closedstring.numerics import (TAU, MonotoneCircleMap, grid_sigma,
                                   grid_to_modes, invert_monotone,
                                   modes_to_grid, periodic_antiderivative,
                                   real_modes, simplex_iterated_integral,
                                   trig_interpolate, _alias_free_samples, _half_basis,
                                   _half_spectrum, _real_series, _sample_sum, _sigma_antiderivative,
                                   _significant)
from closedstring.phase_space import _field_half_spectrum
from oracles import (antiderivative_quad, basis_longdouble, invert_monotone_brentq,
                     invert_monotone_one_basis, iterated_integral_modes, trig_interpolate_one_basis)


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
    assert np.allclose(modes_to_grid(np.array([0, 1, 0], complex), 8), 1.0)


def test_modes_to_grid_two_cosine():
    grid = modes_to_grid(np.array([1, 0, 1], complex), 16)
    assert np.allclose(grid.real, 2 * np.cos(grid_sigma(16)), atol=1e-14)


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("orientation", [+1, -1])
def test_grid_to_modes_real_route_matches_the_complex_route(rng, n, orientation):
    # a real grid's modes from one rfft and conjugate symmetry, against the
    # fft of the grid + 0j, up to the largest k_max
    grid = rng.standard_normal((n, 3))
    for k_max in (0, 1, n // 4, n // 2 - 1):
        real = grid_to_modes(grid, k_max, orientation)
        cplx = grid_to_modes(grid + 0j, k_max, orientation)
        assert real.shape == cplx.shape == (2 * k_max + 1, 3)
        assert np.max(np.abs(real - cplx)) <= 16 * np.finfo(float).eps * np.max(np.abs(grid))
        assert np.all(real[k_max].imag == 0.0)
        assert np.array_equal(real[:k_max][::-1], np.conj(real[k_max + 1:]))


def test_modes_to_grid_matches_direct_sum(rng):
    # oracle: the trigonometric sum written out per sample point
    coeffs = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    sig = grid_sigma(32)
    for orientation in (+1, -1):
        direct = sum(coeffs[m + 3] * np.exp(orientation * 1j * m * sig)[:, None]
                     for m in range(-3, 4))
        assert np.max(np.abs(modes_to_grid(coeffs, 32, orientation) - direct)) < 1e-13


def test_real_modes_give_real_grid(rng):
    rows = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    coeffs = real_modes(np.array([0.5, -1.0, 2.0]), rows)
    assert coeffs.shape == (9, 3)
    assert np.array_equal(coeffs[4], [0.5, -1.0, 2.0])
    assert np.array_equal(coeffs[0], np.conj(rows[3]))
    assert np.max(np.abs(modes_to_grid(coeffs, 32, -1).imag)) < 1e-14


@pytest.mark.parametrize("orientation", [+1, -1])
def test_real_series_matches_the_complex_route(rng, orientation):
    # one irfft of the half spectrum against the real part of modes_to_grid's
    # two-sided sum, trailing axes carried; c0's imaginary part is dropped,
    # as the real part of the complex sum drops it
    for n, k in ((4, 1), (64, 31), (512, 8)):
        rows = rng.standard_normal((k, 2, 3)) + 1j * rng.standard_normal((k, 2, 3))
        c0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        real = _real_series(c0, rows, n, orientation)
        cplx = modes_to_grid(real_modes(c0.real, rows), n, orientation)
        assert real.shape == (n, 2, 3) and real.dtype == np.float64
        assert np.max(np.abs(real - cplx.real)) <= 8 * np.finfo(float).eps * np.max(np.abs(cplx))


def test_real_series_guards():
    rows = np.ones((4, 2), complex)
    for n in (8, 12, 0):  # below 2k + 2 = 10; not a power of two
        with pytest.raises(ValueError):
            _real_series(np.zeros(2), rows, n, +1)
    with pytest.raises(ValueError):
        _real_series(np.zeros(2), rows, 16, 0)
    assert _real_series(np.zeros(2), rows, 16, -1).shape == (16, 2)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_mode_grid_round_trip(seed, k):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    for orientation in (+1, -1):
        back = grid_to_modes(modes_to_grid(coeffs, 64, orientation), k, orientation)
        assert np.max(np.abs(back - coeffs)) < 1e-13


def test_grid_to_modes_size_guard():
    with pytest.raises(ValueError):
        grid_to_modes(np.ones(8), 4)
    with pytest.raises(ValueError):
        modes_to_grid(np.zeros(9, complex), 8)


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


def test_sigma_antiderivative_top_power_is_the_mean(rng):
    # int_0^sigma (s g_1 + g_0) ds reaches sigma^2 through the mean of g_1 alone:
    # a real constant grid
    from closedstring.numerics import _sigma_antiderivative

    n = 64
    g1, g0 = band_limited(rng, n, 5), band_limited(rng, n, 5)
    top = _sigma_antiderivative([(1, g1), (0, g0)])[2]
    assert top.shape == (n,)
    assert np.all(top.imag == 0.0)
    assert np.allclose(top.real, np.mean(g1) / 2, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("letters", [None, 3])
def test_sigma_antiderivative_real_route_matches_the_complex_route(rng, n, letters):
    # real grids take rfft/irfft and stay real; the same grids + 0j take
    # fft/ifft.  Both are exact on the band-limited data, so they differ by
    # the transforms' rounding, a few eps log2(n) of the largest value
    shape = (n,) if letters is None else (n, letters)
    grids = [band_limited(rng, n * (letters or 1), 9).reshape(shape) for _ in range(3)]
    real = _sigma_antiderivative(enumerate(grids))
    cplx = _sigma_antiderivative((k, g + 0j) for k, g in enumerate(grids))
    assert sorted(real) == sorted(cplx) == [0, 1, 2, 3]
    for p, g in real.items():
        assert g.dtype == np.float64 and cplx[p].dtype == np.complex128
        assert g.shape == cplx[p].shape == shape
        scale = np.max(np.abs(cplx[p]))
        assert np.max(np.abs(g - cplx[p])) <= 64 * np.finfo(float).eps * scale


# ----------------------------------------------------------------------
# simplex integrals
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [64, 4096])
def test_simplex_real_route_matches_the_complex_route(rng, n):
    factors = [band_limited(rng, n, 7) for _ in range(4)]
    for degree in (1, 2, 4):
        real = simplex_iterated_integral(factors[:degree])
        cplx = simplex_iterated_integral([f + 0j for f in factors[:degree]])
        assert isinstance(real, float) and isinstance(cplx, float)
        assert abs(real - cplx) <= 64 * np.finfo(float).eps * (TAU * np.max(np.abs(factors))) ** degree


def test_simplex_depth_one_constant():
    assert np.isclose(simplex_iterated_integral([np.ones(64)]), TAU)


def test_simplex_two_constants():
    # the simplex volume (2 pi)^n / n! for all-ones factors, n = 1..8
    for n in range(1, 9):
        exact = TAU ** n / math.factorial(n)
        assert abs(simplex_iterated_integral([np.ones(64)] * n) - exact) <= 1e-14 * exact


def test_simplex_transform_count(fft_calls):
    # step j of a degree-n word has j input terms and j + 1 output powers, the
    # top one a constant that needs no transform; the last integral needs none.
    # Real words take the real transforms, counted with the complex ones
    f = np.cos(grid_sigma(64)) + 0.5
    simplex_iterated_integral([f] * 6)  # fill the cached end weights
    for n in (1, 2, 4, 6):
        fft_calls.clear()
        simplex_iterated_integral([f] * n)
        assert len(fft_calls) == n * (n - 1)


def test_simplex_memory_bound():
    # the step loop holds only the current state, about n complex grids (the
    # top power is a broadcast constant), with the next state, the step's
    # spectra, each freed once transformed, and a few temporaries: 11 grids
    # at n = 6 and 15 at n = 8; keeping the whole prefix path, n(n - 1)/2
    # grids, took 22.5 and 35.6, and holding every input, spectrum and
    # output of a step at once about 4n + 6
    n_grid = 1 << 16
    f = np.cos(grid_sigma(n_grid)) + 0.5
    for n in (1, 2, 4, 6, 7, 8):
        tracemalloc.start()
        try:
            simplex_iterated_integral([f] * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (3 * n + 6) * n_grid * 16


def test_white_noise_integrates_to_real(rng):
    # white noise carries a Nyquist component; integrating it as if it were
    # e^{-i n sigma/2} would make real input integrate to complex output
    n = 128
    g, _ = periodic_antiderivative(rng.standard_normal(n))
    assert np.max(np.abs(g.imag)) <= 1e-12 * np.max(np.abs(g))
    out = simplex_iterated_integral([rng.standard_normal(n) for _ in range(3)])
    assert isinstance(out, float)


def test_end_weights_integrate_sigma_powers():
    # int_0^{2 pi} s^k e^{ims} ds: (2 pi)^{k+1}/(k+1) at m = 0, else by parts
    from closedstring.numerics import _end_weights

    n = 64
    sig = grid_sigma(n)
    for k in range(7):
        w = _end_weights(n, k)
        assert not w.flags.writeable
        for m in (0, 1, -3, 31):
            exact = TAU ** (k + 1) / (k + 1) if m == 0 else sum(
                -math.factorial(k) / math.factorial(k - j) * TAU ** (k - j) / (-1j * m) ** (j + 1)
                for j in range(k))
            got = w @ np.exp(1j * m * sig)
            assert abs(got - exact) <= 1e-13 * TAU ** (k + 1)


@pytest.mark.parametrize("n", [8, 100, 4096])
def test_sample_sum_bits_do_not_depend_on_the_width(rng, n):
    # a block close sums the columns of many words at once and must give
    # each word the bits of its own close
    x = rng.standard_normal((n, 26)) + 1j * rng.standard_normal((n, 26))
    alone = _sample_sum(x[:, 0])
    for width in (1, 4, 26):
        assert _sample_sum(x[:, :width])[0] == alone
        assert _sample_sum(x[:, None, :width])[0, 0] == alone
    assert _sample_sum(x.real[:, :4])[0] == _sample_sum(x.real[:, 0])


def test_sigma_antiderivative_columns_do_not_depend_on_the_width(rng):
    # the zero-mode constant of power 0 is a sample sum, the rest is per column
    g = rng.standard_normal((64, 26)) + 1j * rng.standard_normal((64, 26))
    wide = _sigma_antiderivative([(0, g), (1, 0.5 * g)])
    for a in (0, 7, 25):
        alone = _sigma_antiderivative([(0, g[:, a]), (1, 0.5 * g[:, a])])
        assert list(alone) == list(wide)
        for p, grid in alone.items():
            assert np.array_equal(wide[p][:, a], grid)


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


def test_alias_free_samples_take_the_smallest_power_of_two_above_2nK():
    values = np.arange(4096.0 * 3).reshape(4096, 3)
    for bandwidth, degree, n_min in [(8, 1, 32), (8, 4, 128), (8, 3, 64), (0, 5, 1),
                                     (1, 1, 4), (512, 1, 2048), (16, 4, 256)]:
        got = _alias_free_samples(values, bandwidth, degree)
        assert got.shape == (n_min, 3)
        assert np.shares_memory(got, values)
        assert np.array_equal(got, values[::4096 // n_min])
    # no known bandwidth, a grid no smaller than n, or one that does not divide n
    assert _alias_free_samples(values, None, 4) is values
    assert _alias_free_samples(values, 512, 2) is values
    assert _alias_free_samples(values, 1024, 4) is values
    odd = np.ones((96, 2))
    assert _alias_free_samples(odd, 7, 2).shape == (32, 2)
    assert _alias_free_samples(odd, 8, 4) is odd


def test_words_on_alias_free_samples_match_the_full_grid(rng):
    # a degree-n product of bandwidth-K factors is exact on any grid n' > 2nK
    n, k = 1024, 6
    fs = np.column_stack([band_limited(rng, n, k) for _ in range(4)])
    for word in [(0,), (1, 2), (3, 0, 2), (2, 2, 1, 0), (0, 1, 2, 3, 1)]:
        cols = _alias_free_samples(fs, k, len(word))
        assert cols.shape[0] < n
        full = simplex_iterated_integral([fs[:, mu] for mu in word])
        fast = simplex_iterated_integral([cols[:, mu] for mu in word])
        assert abs(fast - full) <= 1e-14 * (abs(full) + (TAU * np.max(np.abs(fs))) ** len(word))


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

def test_trig_interpolate_takes_the_nyquist_mode_as_its_cosine(rng):
    # the half spectrum weights m = n/2 once: (-1)^j samples are cos(n s/2)
    n = 64
    f = band_limited(rng, n, 5)
    a = 0.7
    pts = rng.uniform(-1.0, TAU + 1.0, 50)
    got = trig_interpolate(f + a * (-1.0) ** np.arange(n), pts)
    assert np.max(np.abs(got - trig_interpolate(f, pts) - a * np.cos(n * pts / 2))) <= 1e-13


def test_trig_interpolate_reads_band_limited_samples_exactly(rng):
    n, k = 128, 9
    coeffs = (rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)) * np.exp(-np.arange(k + 1) / 3)
    pts = rng.uniform(-1.0, TAU + 1.0, 200)

    def series(s):
        return (np.exp(1j * np.multiply.outer(s, np.arange(k + 1))) @ coeffs).real

    assert np.max(np.abs(trig_interpolate(series(grid_sigma(n)), pts) - series(pts))) <= 1e-13


def test_trig_interpolate_carries_trailing_axes(rng):
    n = 128
    f = np.empty((n, 3, 2))
    for j in range(3):
        for i in range(2):
            f[:, j, i] = band_limited(rng, n, 4 + i + j)
    pts = rng.uniform(0.0, TAU, 40)
    got = trig_interpolate(f, pts)
    assert got.shape == (40, 3, 2)
    for j in range(3):
        for i in range(2):
            one = trig_interpolate(f[:, j, i], pts)
            assert np.max(np.abs(got[:, j, i] - one)) <= 1e-14 * np.max(np.abs(one))
    assert trig_interpolate(f[:, 0, 0], pts.reshape(8, 5)).shape == (8, 5)
    # all-zero samples keep no frequency and still give zeros of that shape
    for zero in (np.zeros(n), np.zeros((n, 3, 2))):
        out = trig_interpolate(zero, pts.reshape(8, 5))
        assert out.shape == (8, 5) + zero.shape[1:] and not np.any(out)


def test_trig_interpolate_rejects_complex_samples():
    with pytest.raises(TypeError):
        trig_interpolate(np.ones(16, complex), np.zeros(3))


def test_trig_interpolate_bandwidth_route_matches_all_samples(rng):
    # with a bandwidth K the spectrum comes from the alias-free samples
    # (32 of 4096 at K = 8) and keeps no row above K; values move by roundoff,
    # which reached 2.0e-15 of the largest value over 300 random draws
    n, k = 4096, 8
    pts = rng.uniform(-1.0, TAU + 1.0, 300)
    flat = band_limited(rng, n, k)
    stacked = np.column_stack([band_limited(rng, n, k - j) for j in range(4)])
    for samples in (flat, stacked, np.zeros((n, 3))):
        full = trig_interpolate(samples, pts)
        banded = trig_interpolate(samples, pts, bandwidth=k)
        assert banded.shape == full.shape
        assert np.max(np.abs(banded - full)) <= 4e-15 * max(np.max(np.abs(full)), 1e-300)
    # every K from 0 to n/2 - 1 is a promise the samples can keep
    assert np.max(np.abs(trig_interpolate(np.full(64, 2.5), pts, bandwidth=0) - 2.5)) <= 1e-15
    trig_interpolate(flat[::n // 64], pts, bandwidth=31)
    for bad in (-1, 32):
        with pytest.raises(ValueError, match="bandwidth"):
            trig_interpolate(flat[::n // 64], pts, bandwidth=bad)
    with pytest.raises(TypeError):
        trig_interpolate(flat, pts, bandwidth=8.0)


@pytest.mark.parametrize("n", [64, 63])
def test_half_spectrum_without_bandwidth_keeps_its_formula(rng, n):
    # the doubling of kept rows only is bit for bit the doubling of every
    # row that has a partner -m; the even grid carries a Nyquist row
    sig = grid_sigma(n)
    samples = np.column_stack([band_limited(rng, n, 5), band_limited(rng, n, 3)])
    if n % 2 == 0:
        samples[:, 0] += 0.7 * (-1.0) ** np.arange(n)
    for rel in (1e-16, 1e-3):
        c = np.fft.rfft(samples, axis=0) / n
        keep = _significant(c, rel)
        c[1:(n + 1) // 2] *= 2.0
        freqs, half = _half_spectrum(samples, rel)
        assert np.array_equal(freqs, np.flatnonzero(keep))
        assert np.array_equal(half, c[keep])
    assert (n // 2 in freqs) == (n % 2 == 0)
    assert np.allclose(np.real(np.exp(1j * np.multiply.outer(sig, freqs)) @ half), samples, atol=1e-13)


@pytest.mark.parametrize("freqs", [np.arange(9), np.array([0, 2, 3, 15, 16, 17, 40, 300, 2047])])
def test_half_basis_matches_long_double(rng, freqs):
    pts = rng.uniform(-1.0, TAU + 1.0, 300)
    re, im = basis_longdouble(pts, freqs)
    basis = _half_basis(pts, freqs)
    k = len(freqs)
    assert basis.shape == (2 * k, 300)
    err = max(np.max(np.abs(basis[:k].T - re)), np.max(np.abs(basis[k:].T - im)))
    ref = np.exp(1j * np.multiply.outer(pts, freqs.astype(float)))
    assert err <= 2.0 * max(np.max(np.abs(ref.real - re)), np.max(np.abs(ref.imag - im)))


@pytest.mark.parametrize("freqs", [
    np.arange(9),                                                   # contiguous, low
    np.array([0, 2, 3, 5, 15, 16, 17, 40, 41, 300, 301, 1023, 2048]),  # sparse
    np.arange(2049),                                                # every frequency up to N/2
])
@pytest.mark.parametrize("shape", [(300,), (20, 15)])
def test_basis_matches_long_double(rng, freqs, shape):
    # products of e^{is} must stay as accurate as one exp per entry, on points
    # of any shape (trig_interpolate evaluates shaped points on this basis)
    pts = rng.uniform(-1.0, TAU + 1.0, shape)
    re, im = basis_longdouble(pts, freqs)
    basis = _half_basis(pts, freqs)
    k = len(freqs)
    assert basis.shape == (2 * k,) + shape
    cos, sin = np.moveaxis(basis[:k], 0, -1), np.moveaxis(basis[k:], 0, -1)
    err = max(np.max(np.abs(cos - re)), np.max(np.abs(sin - im)))
    ref = np.exp(1j * np.multiply.outer(pts, freqs.astype(float)))
    assert err <= 2.0 * max(np.max(np.abs(ref.real - re)), np.max(np.abs(ref.imag - im)))


# ----------------------------------------------------------------------
# monotone inversion
# ----------------------------------------------------------------------

def test_monotone_map_validates_its_bandwidth():
    sig = grid_sigma(64)
    periodic, deriv = 0.3 * np.sin(sig), 1 + 0.3 * np.cos(sig)
    assert MonotoneCircleMap(periodic, deriv).bandwidth is None
    cmap = MonotoneCircleMap(periodic, deriv, bandwidth=np.int64(31))
    assert cmap.bandwidth == 31 and type(cmap.bandwidth) is int
    for bad in (-1, 32):
        with pytest.raises(ValueError, match="bandwidth"):
            MonotoneCircleMap(periodic, deriv, bandwidth=bad)
    with pytest.raises(TypeError):
        MonotoneCircleMap(periodic, deriv, bandwidth=1.0)


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


@pytest.mark.parametrize("a", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [64, 256, 4096])
def test_invert_steep_clock_matches_brentq(a, n):
    # min R' = 1 - a: the flat stretches are where a poor start or a
    # safeguard would show
    sig = grid_sigma(n)
    cmap = MonotoneCircleMap(periodic=a * np.sin(3 * sig) / 3, deriv=1 + a * np.cos(3 * sig))
    s = invert_monotone(cmap).values()
    assert np.max(np.abs(s - invert_monotone_brentq(cmap.periodic))) <= 1e-12
    assert np.max(np.abs(s + a * np.sin(3 * s) / 3 - sig)) <= 1e-12


@pytest.mark.parametrize("a", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [64, 256, 4096])
def test_invert_deriv_matches_the_interpolated_clock_slope(a, n):
    # (R^{-1})' by one Taylor step on the last Newton basis against R'
    # interpolated at the converged points
    sig = grid_sigma(n)
    cmap = MonotoneCircleMap(periodic=a * np.sin(3 * sig) / 3, deriv=1 + a * np.cos(3 * sig))
    inv = invert_monotone(cmap)
    ref = 1.0 / trig_interpolate(cmap.deriv, inv.values())
    assert np.max(np.abs(inv.deriv - ref) / ref) <= 1e-12


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99, 0.999])
def test_invert_carries_a_series_to_the_inverse_points(rng, a):
    # the carried half spectrum h_0 = c_0, h_m = 2 c_m, read at R^{-1}(sigma_j)
    n, k = 512, 7
    sig = grid_sigma(n)
    cmap = MonotoneCircleMap(periodic=0.4 + a * np.sin(3 * sig + 1.0) / 3,
                             deriv=1 + a * np.cos(3 * sig + 1.0))
    coeffs = (rng.standard_normal((k + 1, 2, 3)) + 1j * rng.standard_normal((k + 1, 2, 3)))
    coeffs[0] = coeffs[0].real
    half = np.concatenate([coeffs[:1], 2.0 * coeffs[1:]])
    inv, moved = invert_monotone(cmap, half)
    assert moved.shape == (n, 2, 3)
    s = inv.values()
    exact = np.einsum("jm,m...->j...", np.exp(1j * np.multiply.outer(s, np.arange(k + 1))), half).real
    assert np.max(np.abs(moved - exact)) <= 1e-13 * np.max(np.abs(exact))
    # the carried frequencies widen the Newton basis, which moves only last bits
    plain = invert_monotone(cmap)
    assert np.max(np.abs(plain.periodic - inv.periodic)) <= 1e-14
    assert np.max(np.abs(plain.deriv - inv.deriv) / plain.deriv) <= 1e-12


def test_invert_rejects_non_monotone():
    sig = grid_sigma(128)
    cmap = MonotoneCircleMap(periodic=np.sin(sig), deriv=1 + np.cos(sig))
    with pytest.raises(NonMonotone):
        invert_monotone(cmap)


# ----------------------------------------------------------------------
# evaluation in blocks of points: the one-basis reference, bit for bit
# ----------------------------------------------------------------------

def _equal_maps(a, b):
    return np.array_equal(a.periodic, b.periodic) and np.array_equal(a.deriv, b.deriv)


@pytest.fixture(params=["budget", "floor"])
def block_rule(request, monkeypatch):
    # "budget": blocks as _block_points gives them; "floor": a zero budget,
    # so every evaluation of more than one point is cut in blocks of
    # _BASIS_BLOCK points
    if request.param == "floor":
        monkeypatch.setattr(numerics, "_BASIS_BYTES", 0)
    return request.param


@pytest.mark.parametrize("n, blocks", [(512, {"budget": 1, "floor": 1}),
                                       (4096, {"budget": 1, "floor": 4}),
                                       (65536, {"budget": 64, "floor": 64})])
def test_blocked_inversion_equals_one_basis(n, blocks, block_rule):
    # blocks of a default clock's 9 frequencies (M = 8)
    assert -(-n // numerics._block_points(9, n)) == blocks[block_rule]
    frame = cs.default_frame(4)
    for seed, chir in ((1, "+"), (2, "-")):
        state = cs.random_state(4, 8, seed=seed, frame=frame)
        cmap = cs.compute_R(state, frame, chir, n)
        half = _field_half_spectrum(state, chir)
        for clock in (cmap, MonotoneCircleMap(cmap.periodic, cmap.deriv)):  # banded and plain
            assert _equal_maps(invert_monotone(clock), invert_monotone_one_basis(clock))
        # carried series with one trailing axis (D) and with two
        for carry in (half, np.stack([half, 0.5j * half], axis=-1)):
            (inv, moved), (ref, ref_moved) = (invert_monotone(cmap, carry),
                                              invert_monotone_one_basis(cmap, carry))
            assert moved.shape == (n,) + carry.shape[1:]
            assert _equal_maps(inv, ref) and np.array_equal(moved, ref_moved)


def test_block_points_follow_the_byte_budget():
    # a basis and its powers take 32 K bytes per point: all the points are one
    # block while they fit 1.25 MiB, else blocks of _BASIS_BLOCK points
    assert numerics._block_points(9, 4096) == numerics._block_points(10, 4096) == 4096
    assert numerics._block_points(9, 4551) == 4551
    for k, n in ((11, 4096), (9, 4552), (9, 8192), (257, 65536)):
        assert numerics._block_points(k, n) == numerics._BASIS_BLOCK
    assert numerics._block_points(9, 0) == 1


def test_blocked_interpolation_equals_one_basis(rng):
    # 2,500 points at 21 frequencies do not fit one block: two blocks of
    # 1024 and a ragged one of 452, flat and as (50, 50)
    assert numerics._block_points(21, 2500) == 1024
    n = 256
    one = band_limited(rng, n, 20)
    table = np.stack([band_limited(rng, n, 20) for _ in range(3)], axis=1)
    pts = rng.uniform(-1.0, 7.0, 2500)
    for points in (pts, pts.reshape(50, 50)):
        for samples, bandwidth in ((one, None), (table, None), (one, 20), (table, 20)):
            got = trig_interpolate(samples, points, bandwidth=bandwidth)
            ref = trig_interpolate_one_basis(samples, points, bandwidth)
            assert got.shape == ref.shape == np.shape(points) + samples.shape[1:]
            assert np.array_equal(got, ref)


def test_blocked_inversion_raises_when_not_converged(block_rule):
    # at N = 4096 (1 block, or 4 at the floor) this default clock needs a
    # second basis
    frame = cs.default_frame(4)
    cmap = cs.compute_R(cs.random_state(4, 8, seed=1, frame=frame), frame, "+", 4096)
    with pytest.raises(NotConverged):
        invert_monotone(cmap, max_iter=1)
    assert _equal_maps(invert_monotone(cmap, max_iter=2), invert_monotone_one_basis(cmap))


def test_blocked_inversion_bisects_away_from_the_first_block(monkeypatch):
    # min R' = 1e-3: one point falls back to bisection, in the third block of
    # _BASIS_BLOCK points (at the byte budget this 4-frequency clock is one block)
    monkeypatch.setattr(numerics, "_BASIS_BYTES", 0)
    n, a = 4096, 0.999
    sig = grid_sigma(n)
    cmap = MonotoneCircleMap(periodic=a * np.sin(3 * sig) / 3, deriv=1 + a * np.cos(3 * sig))
    bisected = []
    ref = invert_monotone_one_basis(cmap, bisected=bisected)
    where = np.concatenate(bisected)
    assert where.size and np.all(where >= numerics._BASIS_BLOCK)
    inv = invert_monotone(cmap)
    assert _equal_maps(inv, ref)
    assert np.max(np.abs(inv.values() - invert_monotone_brentq(cmap.periodic))) <= 1e-12
