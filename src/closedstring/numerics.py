"""Spectral primitives shared by every module.

Everything lives on the uniform periodic grid sigma_j = 2*pi*j/N, and every
field is a real trigonometric polynomial given by its modes.  The
workhorses are the one mode/grid transform pair (:func:`modes_to_grid`,
:func:`grid_to_modes`, with :func:`real_modes` assembling a real series),
the trigonometric interpolant of real samples at off-grid points (a real
series read by its half spectrum, frequencies m >= 0, on one real basis of
cosines and sines; from its alias-free samples when its bandwidth is
known), one closed-form
spectral antiderivative of sigma-polynomials with periodic coefficients
(behind the periodic antiderivative, the nested simplex (iterated)
integrals and the Wilson loops), and safeguarded inversion of monotone
degree-one circle maps.  Interpolation and inversion evaluate their series
on the cosine and sine basis in blocks of points (:func:`_on_basis`: one
block when it fits 1.25 MiB, else blocks of 1024 points), so their work
memory is at most max(1.25 MiB, 32 K KiB) for K frequencies on top of
their O(N W) output of W series, whatever the N points.  All
functions take plain ndarrays.  Real data
take real transforms: the antiderivative of real grids (words of real
fields, their blocks and cotangent paths) runs ``rfft``/``irfft`` on the
half spectrum and keeps its states real, a real grid's modes come from
one ``rfft``, and a real series is synthesized from its half spectrum by
one ``irfft`` (:func:`_real_series`: the chiral field, the clock, the DDF
mode sum); complex data (Wilson matrices, cotangents) take ``fft``/``ifft``
in the same routines, with the same transform counts, and
:func:`modes_to_grid` keeps complex coefficients and complex samples.

Costs of the iterated integrals: one degree-n word is O(n^2 N log N), the
last of its n integrals, needed only at 2*pi, closing by end weights at no
transform; the D^n words of degree n in lexicographic order, sharing
prefixes, are O(D^{n-1} n N log N), in batched steps and closes of all
words under one head, as few heads as keep each block within a fixed
number of elements.  Every sum over samples is one
:func:`_sample_sum`, whose bits do not depend on the batch width, so batched
and single words agree bit for bit.  On a field of known bandwidth K,
:func:`_alias_free_samples` strides the N samples to the smallest exact grid
N' > 2nK, a power of two at most 4nK, at O(N); a word then costs
O(n^2 N' log N') whatever N is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import NonMonotone, NotConverged

TAU = 2.0 * np.pi

__all__ = [
    "TAU",
    "grid_sigma",
    "is_power_of_two",
    "real_modes",
    "modes_to_grid",
    "grid_to_modes",
    "periodic_antiderivative",
    "simplex_iterated_integral",
    "MonotoneCircleMap",
    "invert_monotone",
    "trig_interpolate",
]


def grid_sigma(n):
    """Sample points sigma_j = 2*pi*j/n, j = 0..n-1."""
    return TAU * np.arange(n) / n


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _int_freqs(n, ndim=1):
    """Integer FFT frequencies shaped to broadcast along axis 0."""
    k = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
    return k.reshape((n,) + (1,) * (ndim - 1))


# ----------------------------------------------------------------------
# mode <-> grid transforms
# ----------------------------------------------------------------------

def real_modes(c0, rows):
    """Two-sided coefficients [conj(rows[::-1]), c0, rows] for m = -k..k.

    ``rows[m-1]`` holds c_m for m = 1..k; c_{-m} = conj(c_m) makes the series
    real.  ``c0`` has the shape of one row.
    """
    return np.concatenate([np.conj(rows[::-1]), np.asarray(c0)[None], rows])


def modes_to_grid(coeffs, n: int, orientation: int = +1):
    """Samples of sum_{|m|<=k} c_m e^{orientation*i*m*sigma} on the n-grid (exact).

    ``coeffs`` is indexed m = -k..k along axis 0 (offset by k); trailing axes
    are carried through.  One scatter and one unscaled DFT: the forward FFT
    of the spectrum placed at index -orientation*m mod n.
    """
    shape = coeffs.shape
    k = (shape[0] - 1) // 2
    if shape[0] != 2 * k + 1:
        raise ValueError("coeffs must cover m = -k..k (odd first axis)")
    _synthesis_guard(n, k, orientation)
    spec = np.zeros((n,) + shape[1:], np.complex128)
    spec[(-orientation * np.arange(-k, k + 1)) % n] = coeffs
    return np.fft.fft(spec, axis=0)


def _real_series(c0, rows, n: int, orientation: int):
    """Samples of c0 + 2 Re sum_{m>=1} rows[m-1] e^{orientation*i*m*sigma} on the n-grid.

    The real twin of :func:`modes_to_grid`, as :func:`grid_to_modes`' ``rfft``
    is of its ``fft``: the same series as
    ``modes_to_grid(real_modes(c0, rows), n, orientation).real``, from one
    unscaled ``irfft`` of the half spectrum (the real part of ``c0``, then
    ``rows``, conjugated for orientation -1).  Trailing axes are carried
    through, and the guards are :func:`modes_to_grid`'s: n a power of two and
    n >= 2k + 2 for k rows, so no row reaches the Nyquist frequency.
    """
    k = rows.shape[0]
    _synthesis_guard(n, k, orientation)
    spec = np.zeros((n // 2 + 1,) + rows.shape[1:], np.complex128)
    spec[0] = np.real(c0)
    spec[1:k + 1] = rows if orientation > 0 else np.conj(rows)
    return np.fft.irfft(spec, n, axis=0, norm="forward")


def _synthesis_guard(n, k, orientation):
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    if n < 2 * k + 2:
        raise ValueError(f"grid size {n} too small for bandwidth {k}")
    if not is_power_of_two(n):
        raise ValueError("grid size must be a power of two")


def grid_to_modes(grid, k_max: int, orientation: int = +1):
    """Coefficients c_m = (1/n) sum_j grid_j e^{-orientation*i*m*sigma_j}, m = -k_max..k_max.

    A real grid takes one ``rfft``, c_m for m = 0..k_max, and its c_{-m} =
    conj(c_m) by :func:`real_modes`; a complex one takes one ``fft``.
    """
    n = grid.shape[0]
    if k_max > n // 2 - 1:
        raise ValueError(f"k_max {k_max} exceeds n/2 - 1 for n = {n}")
    if np.iscomplexobj(grid):
        return np.fft.fft(grid, axis=0)[(orientation * np.arange(-k_max, k_max + 1)) % n] / n
    half = np.fft.rfft(grid, axis=0)[:k_max + 1] / n
    return real_modes(half[0], half[1:] if orientation > 0 else np.conj(half[1:]))


# ----------------------------------------------------------------------
# iterated integration
# ----------------------------------------------------------------------

def _sigma_antiderivative(terms):
    """int_0^sigma sum_k s^k g_k(s) ds for periodic grids g_k, as {power: grid}.

    The one integration routine.  On each spectrum, term by term,

        int_0^sigma s^k e^{ims} ds = sum_{j<=k} (-1)^j k!/(k-j)! sigma^{k-j} e^{i m sigma}/(im)^{j+1}
                                     - (value at 0)          (m != 0),

    and the mean integrates to mean * sigma^{k+1}/(k+1).  Only power 0 is
    nonzero at sigma = 0, so the constant of integration is the zero mode of
    power 0 alone.  The top power K+1 (K the highest input power) has the
    mean of g_K alone, so its grid is that constant, filled without a
    transform.  One FFT per input term and one IFFT per output power below
    the top; axis 0 is the sample axis and trailing axes (matrices) ride
    along.  Real grids (words of real fields and their blocks) take
    ``rfft`` and ``irfft`` on the half spectrum m = 0..n/2 and give real
    grids; complex ones (Wilson matrices, cotangents) take ``fft`` and
    ``ifft``, with the same counts.  The first term sets the route.
    ``terms`` yields the (k, g_k) pairs and is read once: a
    generator lets each input grid go as soon as its spectrum is taken,
    and each output spectrum goes once transformed, so a call holds
    about one grid per output power, not every input, spectrum and output
    at once.
    """
    out, means = {}, {}
    for k, g in terms:
        if not out:
            n, real = g.shape[0], not np.iscomplexobj(g)
            inv_im = _spectral_divisors(n, g.ndim)
            if real:
                inv_im = inv_im[:n // 2 + 1]
        spec = np.fft.rfft(g, axis=0) if real else np.fft.fft(g, axis=0)
        del g
        _acc(means, k + 1, spec[0] / (k + 1))
        coef = spec * inv_im
        del spec
        for p in range(k, -1, -1):
            _acc(out, p, coef)
            if p:
                coef = coef * inv_im * -p
        del coef
    # the zero mode that makes power 0 vanish at 0; every other row of power 0 is kept as is.
    # A half spectrum's rows m = 1..n/2 - 1 stand for their conjugates at -m too (rows 0 and
    # n/2 of power 0 are 0, as 1/(im) is)
    zero = out[0]
    zero[0] = zero[0] - (2.0 * _sample_sum(zero[1:]).real if real else _sample_sum(zero))
    for p, mean in means.items():
        if p in out:
            out[p][0] = out[p][0] + mean
    top = max(means)
    row = (means[top].real if real else means[top]) / n
    grids = {top: np.broadcast_to(row, (n,) + np.shape(row))}  # read-only, no copy
    grids.update((p, np.fft.irfft(out.pop(p), n, axis=0) if real else np.fft.ifft(out.pop(p), axis=0))
                 for p in list(out))
    return grids


@lru_cache(maxsize=64)
def _spectral_divisors(n, ndim=1):
    """1/(im) on the FFT frequencies, shaped to broadcast along axis 0.

    1/(im) is 0 at m = 0 and at the Nyquist mode m = -n/2: on real samples
    that mode is cos(n sigma/2), whose antiderivative is no single
    exponential, and dividing it by i*m would turn real input complex.
    Read-only and cached per (n, ndim).
    """
    freqs = _int_freqs(n, ndim)
    osc = (freqs != 0) & (2 * np.abs(freqs) != n)
    inv_im = np.zeros(freqs.shape, complex)
    inv_im[osc] = -1j / freqs[osc]
    inv_im.setflags(write=False)
    return inv_im


def _acc(d, k, g):
    d[k] = d[k] + g if k in d else g


def _at_two_pi(terms):
    """Value of sum_k sigma^k g_k(sigma) at sigma = 2*pi (the g_k are periodic)."""
    return sum(TAU ** k * g[0] for k, g in terms.items())


@lru_cache(maxsize=64)
def _end_weights(n, k):
    """Weights w with sum_j w[j] h(sigma_j) = int_0^{2 pi} s^k h(s) ds.

    Exact for trigonometric polynomials h below the Nyquist mode, which is
    dropped as in :func:`_sigma_antiderivative`: w = fft(I)/n with the
    moments I(m) = int_0^{2 pi} s^k e^{ims} ds from I_k = ((2 pi)^k - k I_{k-1})/(im),
    I_0 = 0 (m != 0), and I(0) = (2 pi)^{k+1}/(k+1).  The moments are
    Hermitian, so w is real.  Read-only and cached per (n, k).
    """
    inv_im = _spectral_divisors(n)
    moments = np.zeros(n, complex)
    for p in range(1, k + 1):
        moments = (TAU ** p - p * moments) * inv_im
    moments[0] = TAU ** (k + 1) / (k + 1)
    w = np.fft.fft(moments).real / n
    w.setflags(write=False)
    return w


def _end_weighted(n, terms):
    """sum_k w_k h_k on the n-grid, w_k the end weights of :func:`_end_weights`.

    Its :func:`_sample_sum` is int_0^{2 pi} sum_k s^k h_k(s) ds for periodic
    grids (or constants) h_k; trailing axes (matrices, letters) ride along.
    """
    total = None
    for k, h in terms:
        w = _end_weights(n, k)
        term = (w if np.ndim(h) < 2 else w.reshape(w.shape + (1,) * (h.ndim - 1))) * h
        total = term if total is None else total + term
    return total


def _sample_sum(x):
    """sum_j x[j] over the sample axis 0, with bits independent of the trailing shape.

    Every sum over samples goes through here, so that a column summed
    alone and the same column summed among others agree bit for bit: a
    1-D input takes numpy's pairwise sum, and a stacked one is laid out
    with the sample axis last and contiguous (no copy when it already is),
    where each row takes the same pairwise sum.
    """
    if x.ndim == 1:
        return np.add.reduce(x)
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(x, 0, -1)), axis=-1)


def periodic_antiderivative(values):
    """Split f = mean + oscillatory and integrate the oscillatory part.

    Returns ``(G, mean)`` where G(sigma) = int_0^sigma (f - mean), computed by
    dividing Fourier modes by i*m, so that int_0^sigma f = G(sigma) +
    mean*sigma.  Spectrally accurate for smooth periodic samples.
    """
    out = _sigma_antiderivative([(0, values)])
    return out[0], out[1][0]


def _nested_step(state, f):
    """int_0^sigma f(s) G(s) ds for G(s) = sum_k s^k state[k](s), as {power: grid}."""
    return _sigma_antiderivative((k, g * f) for k, g in state.items())


def _nested_close(state, f):
    """int_0^{2 pi} f(s) G(s) ds for G as in :func:`_nested_step`, with the real cut.

    One product and one :func:`_sample_sum`: the end-weighted state
    sum_k w_k G_k (see :func:`_end_weighted`) times f.
    """
    weighted = _end_weighted(f.shape[0], state.items())
    return _real_cut(complex(_sample_sum(weighted * f)))


def _real_cut(z):
    """z as a float when its imaginary part is roundoff, else z."""
    return z.real if abs(z.imag) <= 1e-9 * (1.0 + abs(z)) else z


# complex elements in one product of :func:`_block_close` (4 MiB)
_CLOSE_CHUNK = 1 << 18
# samples times words of the widest block of :class:`_PrefixIntegrals`; wider
# bounds (2^17, 2^18) made sweeps on 2048 and 4096 plain samples slower
_BLOCK_BOUND = 1 << 16


def _block_close(weighted, columns):
    """int_0^{2 pi} f_b(s) G_a(s) ds for every letter a of a wide state and column f_b.

    ``weighted`` is the (N, A) end-weighted state of :func:`_end_weighted`
    with a trailing letter axis a, ``columns`` the (N, D) f_b.  Returns the
    (A, D) complex totals before the real cut, each bit-identical to
    :func:`_nested_close` of column a against f_b: the same products and
    :func:`_sample_sum`.  The products are written with the sample axis
    last and contiguous, where :func:`_sample_sum` reads them in place, a
    few letters at a time, so that none holds more than ``_CLOSE_CHUNK``
    elements.
    """
    n, d = columns.shape
    rows = weighted.shape[1]
    step = max(1, _CLOSE_CHUNK // (n * d))
    out = np.empty((rows, d), complex)
    for lo in range(0, rows, step):
        part = weighted[:, lo:lo + step]
        products = np.empty((part.shape[1], d, n), np.result_type(part, columns))
        np.multiply(part.T[:, None, :], columns.T[None, :, :], out=products)
        out[lo:lo + step] = _sample_sum(np.moveaxis(products, -1, 0))
    return out


class _PrefixIntegrals:
    """Nested-integral states along the prefix path of the last word, and word blocks.

    :meth:`walk` takes the letters of a prefix as columns of one (N, D)
    sample array and returns the sigma-polynomial state before the first
    letter and after each one; it reuses the longest common prefix with the
    previous walk and steps only the new letters, and keeps the longer path
    when the prefix is one of its own.  :meth:`integral` walks a
    word's prefix and closes the last integral by end weights.  A degree-n
    word alone costs n(n - 1) transforms; words in lexicographic order
    share prefixes, and the D^n words of degree n cost
    sum_{0<j<n} D^j 2j = O(D^{n-1} n N log N) word by word.

    :meth:`read` serves a degree-n word from the block of its head
    h = word[:l]: the head's state steps each of the n - 1 - l letters after
    it as one more trailing letter axis of all D columns (one
    :func:`_sigma_antiderivative` call per level, the step from j letters
    2(j + 1) transforms of (N, D^(j + 1 - l)) grids), and one
    :func:`_block_close` gives all D^(n - l) words under h at once.  l is
    the shortest head length with N D^(n - l) <= ``_BLOCK_BOUND`` elements
    (:func:`_head_length`), and n - 2 when none fits, so a block holds D^2
    words at the least (at n = 1 the D integrals of the columns).  On a
    banded D = 4 field (N <= 128 to degree 4) every head is (), one block
    per degree; at D = 26, or on 4096 plain samples at D = 4 from degree 3,
    blocks hold D^2 words.  In lexicographic order the D^n words of degree n
    take D^l blocks, plus the walks of their heads: sum_{0<j<n} 2j D^j
    transforms of N samples, O(D^{n-1} n N log N) whatever l is, in
    D^l (n(n - 1) - l(l + 1)) + sum_{0<j<=l} 2j D^j calls.  As N or D grows
    the head lengthens by a letter for every factor D, so the elements a
    block steps and closes at once stay within the bound (its wide state n
    grids of at most the bound / D).  One entry per degree,
    ``blocks[n] = [head, block, reads]``, holds the block's values after the
    real cut.  A block is built on the third word in a row under its head,
    or on the first when the degree's previous head served at least D
    words (a sweep of siblings); every other word goes word by word, so a
    stream of unrelated words, or of the rotations of symmetrized words
    under heads of one letter or more, pays for no words it does not read.
    Values do not depend on the route or on the order of the calls: block
    and word closes agree bit for bit.

    The path of a degree-n word holds (n-1)(n+2)/2 grids.  The caller passes
    the same columns on every call, and may keep them with the path as
    ``columns``; a field keeps one path per grid (see
    :class:`~closedstring.phase_space.FieldGrid`).
    """

    def __init__(self, columns=None):
        self.columns = columns
        self.prefix = []
        self.states = [{0: 1.0}]
        self.blocks = {}

    def walk(self, columns, prefix):
        keep = 0
        for a, b in zip(self.prefix, prefix):
            if a != b:
                break
            keep += 1
        if keep < len(prefix):
            del self.prefix[keep:], self.states[keep + 1:]
            for mu in prefix[keep:]:
                self.states.append(_nested_step(self.states[-1], columns[:, mu]))
                self.prefix.append(mu)
        return self.states[:len(prefix) + 1]

    def integral(self, columns, word):
        return _nested_close(self.walk(columns, word[:-1])[-1], columns[:, word[-1]])

    def read(self, columns, word):
        degree = len(word)
        entry = self.blocks.get(degree)
        # the head length is fixed per degree on the path's columns
        h = _head_length(*columns.shape, degree) if entry is None else len(entry[0])
        head = word[:h]
        if entry is None or entry[0] != head:
            swept = entry is not None and entry[2] >= columns.shape[1]
            block = self._block(columns, head, degree) if swept else None
            entry = self.blocks[degree] = [head, block, 0]
        entry[2] += 1
        block = entry[1]
        if block is None:
            if entry[2] < 3:
                return self.integral(columns, word)
            block = entry[1] = self._block(columns, head, degree)
        return block[word[h:]]

    def _block(self, columns, head, degree):
        n, dim = columns.shape
        wide = {k: np.broadcast_to(g, (n,))[:, None] for k, g in self.walk(columns, head)[-1].items()}
        for _ in range(degree - len(head) - 1):
            wide = _sigma_antiderivative((k, (g[:, :, None] * columns[:, None, :]).reshape(n, -1))
                                         for k, g in wide.items())
        totals = _block_close(_end_weighted(n, wide.items()), columns)
        block = np.empty(totals.size, object)
        block[:] = [_real_cut(z) for z in totals.ravel().tolist()]
        return block.reshape((dim,) * (degree - len(head)))


def _head_length(n, dim, degree):
    """Length h of the shortest head w[:h] whose block of a degree-``degree`` word fits.

    The block of h holds the dim^(degree - h) words under it, and its close
    multiplies n samples of each: h is the least with n dim^(degree - h) <=
    ``_BLOCK_BOUND``, and max(degree - 2, 0) (a block of dim^2 words, of dim
    at degree 1) when none fits.
    """
    h = max(degree - 2, 0)
    while h and n * dim ** (degree - h + 1) <= _BLOCK_BOUND:
        h -= 1
    return h


def _alias_free_samples(values, bandwidth, degree):
    """The samples a degree-``degree`` product of the field needs: values[::n // n'].

    ``values`` are n samples (axis 0) of a real trigonometric polynomial of
    degree ``bandwidth``; every product, sigma-antiderivative and end weight
    of ``degree`` such factors is one of degree ``degree * bandwidth``, exact
    on any grid n' > 2 * degree * bandwidth.  Returns the strided view on the
    smallest such power of two n' (:func:`_alias_free_size`), the exact
    samples of the same polynomial, and ``values`` itself when n' = n.
    """
    n = values.shape[0]
    size = _alias_free_size(n, bandwidth, degree)
    return values if size == n else values[::n // size]


def _check_bandwidth(bandwidth, n):
    """A bandwidth K for n samples as an int, or None: ValueError unless 0 <= K and 2K + 2 <= n.

    A non-integer K raises TypeError.
    """
    if bandwidth is None:
        return None
    k = operator.index(bandwidth)
    if k < 0 or 2 * k + 2 > n:
        raise ValueError(f"bandwidth {k} needs 0 <= K and 2K + 2 <= n = {n}")
    return k


def _alias_free_size(n, bandwidth, degree):
    """n' of :func:`_alias_free_samples` for n samples.

    n itself when the bandwidth is None (not known), or when the smallest
    power of two above 2 degree K does not divide n (n' >= n among them).
    """
    if bandwidth is None:
        return n
    n_min = 1 << (2 * degree * bandwidth).bit_length()  # smallest power of two > 2 degree K
    return n if n_min >= n or n % n_min else n_min


def simplex_iterated_integral(factors):
    """Iterated integral over 0 <= s_1 <= ... <= s_n <= 2*pi of prod f_i(s_i).

    The first factor is attached to the innermost integration variable.
    Computed by the cumulative recursion G_j = int_0^sigma f_j G_{j-1}
    (:func:`_nested_step`), where G_j is a polynomial of degree j in sigma
    with periodic coefficients: step j costs 2j transforms and the last
    integral, needed only at 2*pi, closes by end weights at no transform
    (:func:`_nested_close`): n(n - 1) for the word, i.e. O(n^2 N log N)
    instead of the O(N^n) of direct quadrature.  Only the current G_j is
    kept, not the prefix path a :class:`_PrefixIntegrals` word keeps.
    """
    grids = [_as_scalar_grid(f) for f in factors]
    if not grids:
        raise ValueError("need at least one factor")
    if any(g.shape != grids[0].shape for g in grids):
        raise ValueError("all factors must share one grid")
    return _nested_close(reduce(_nested_step, grids[:-1], {0: 1.0}), grids[-1])


def _as_scalar_grid(f):
    g = np.asarray(getattr(f, "values", f))
    if g.ndim != 1:
        raise ValueError("factors must be scalar grids")
    return g


# ----------------------------------------------------------------------
# monotone circle maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneCircleMap:
    """Degree-one circle map R stored through its periodic part R(sigma)-sigma.

    The winding relation R(sigma + 2*pi) = R(sigma) + 2*pi holds exactly by
    this representation.  ``deriv`` carries samples of R' = 1 + (R - sigma)',
    the same polynomial as the derivative of ``periodic``'s interpolant.
    ``bandwidth`` K, when not None, promises that both are samples of real
    trigonometric polynomials of degree <= K, validated as
    :class:`~closedstring.phase_space.FieldGrid`'s (0 <= K, 2K + 2 <= n):
    :func:`~closedstring.ddf.compute_R` sets it to the truncation M, and
    :func:`invert_monotone` then reads both from their alias-free samples.
    """

    periodic: np.ndarray
    deriv: np.ndarray
    bandwidth: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", _check_bandwidth(self.bandwidth, self.n_samples))

    @property
    def n_samples(self):
        return self.periodic.shape[0]

    def values(self):
        return self.periodic + grid_sigma(self.n_samples)

    def min_deriv(self):
        return float(np.min(self.deriv.real))


def _significant(spec, rel):
    mags = np.abs(spec).reshape(spec.shape[0], -1).max(axis=1)
    return mags > rel * max(mags.max(), 1e-300)


# :func:`_powers` takes a true exponential at every multiple of this power
_ANCHOR = 16


def _powers(s, ks, z, out):
    """e^{i k s} for plain points s, from z = e^{is}: one row of ``out`` per k of ``ks``.

    The ``ks`` are nonnegative and ascending.  The powers follow from z in
    increasing k by one product with z each, re-anchored by a true ``exp``
    at every multiple of 16 and wherever k - 1 is not among the ``ks``, so
    no product chain is longer than 15 and the error stays that of the
    ``exp`` route (about |k s| machine epsilons).  Cost: one ``exp`` per
    point per 16 powers, not one per (point, frequency).  ``out`` is a
    complex ``(len(ks),) + s.shape`` array, returned; a repeated k copies
    the row before it.
    """
    power, last = 1.0, 0
    for row, k in zip(out, ks):
        if k == last:
            row[...] = power
        elif k == last + 1 and k % _ANCHOR:
            np.multiply(power, z, out=row)
        else:
            np.exp(1j * k * s, out=row)
        power, last = row, k
    return out


def _half_basis(points, freqs, out=None, work=None, z=None):
    """cos(m s) and sin(m s) for plain points s and ascending frequencies m >= 0, real.

    The real and imaginary parts of the :func:`_powers`, as the rows
    cos(m_0 s), ..., cos(m_{K-1} s), sin(m_0 s), ..., sin(m_{K-1} s) of one
    (2K,) + points.shape array: the basis on which :func:`_real_rows`
    coefficients give real series by one real matrix product, each series a
    contiguous row.  ``out`` (that real array), ``work`` (a complex
    (K,) + points.shape one for the powers) and ``z`` (e^{is} at the
    points), when given, are used instead of new ones; ``out`` is returned.
    """
    s = np.asarray(points, float)
    k = len(freqs)
    powers = _powers(s, freqs, np.exp(1j * s) if z is None else z,
                     np.empty((k,) + s.shape, complex) if work is None else work)
    if out is None:
        out = np.empty((2 * k,) + s.shape)
    out[:k] = powers.real
    out[k:] = powers.imag
    return out


def _real_rows(half):
    """Coefficients on :func:`_half_basis` of the real series Re sum_m h_m e^{i m s}.

    ``half`` holds h_m on the basis frequencies (axis 0; one column per
    series on axis 1): Re(h e^{ims}) = Re h cos(ms) - Im h sin(ms), so the
    rows are [Re h; -Im h], and ``_real_rows(half).T @ basis`` holds one
    series per row.
    """
    return np.concatenate([half.real, -half.imag])


# work bytes under which :func:`_on_basis` takes all its points as one block:
# the basis and powers take 2K reals and K complexes, 32 K bytes, per point,
# so a clock of up to 10 frequencies at N = 4096 is one block, one product
# and as few NumPy calls as one basis (verify's worker threads pay for each
# call in wall time)
_BASIS_BYTES = 5 << 18
# points per block of a larger evaluation: 2048 doubled the work memory and
# its page faults at scale (M = 64, N = 16384) and gained nothing on
# ddf_highres
_BASIS_BLOCK = 1 << 10


def _block_points(k, n):
    """Points per block of :func:`_on_basis` for ``n`` points and ``k`` frequencies."""
    return _BASIS_BLOCK if 32 * k * n > _BASIS_BYTES else max(n, 1)


def _on_basis(rows, freqs, points, out):
    """rows.T @ _half_basis(points, freqs), written into ``out`` one block of points at a time.

    ``rows`` are (2K, W) coefficients on the basis of the K ascending
    ``freqs`` (:func:`_real_rows`), ``points`` a flat array and ``out`` a
    (W, len(points)) real array, returned.  The points are one block when
    their basis and powers fit ``_BASIS_BYTES`` (1.25 MiB), else blocks of
    ``_BASIS_BLOCK`` (1024) points (:func:`_block_points`).  Each block
    fills one (2K, block) basis, through one (K, block) complex
    array of powers, both reused from block to block, and takes one product
    with it, written straight into its columns of ``out``; z = e^{is} is
    one ``exp`` of all the points.  Every column is the product of the same
    basis column as on one basis of all the points, and with these blocks
    the bits equal that one product's (the oracle tests check it; blocks of
    1920 or 2048 of 2,500 points did not, as BLAS splits a product by its
    width).  Work memory at most max(1.25 MiB, 32 K KiB), plus z, on top of
    ``out``.
    """
    k, step = len(freqs), _block_points(len(freqs), len(points))
    size = min(len(points), step)
    # one allocation, not two: glibc returned two equal ones to the system
    # after each call, and ddf_modes at N = 4096 faulted about 440 pages in
    # afresh per call (2 with one)
    buf = np.empty(4 * k * size)
    basis = buf[:2 * k * size].reshape(2 * k, size)
    work = buf[2 * k * size:].view(complex).reshape(k, size)
    z = np.exp(1j * points)
    for start in range(0, len(points), step):
        part = slice(start, start + step)
        width = len(points[part])
        block = _half_basis(points[part], freqs, basis[:, :width], work[:, :width], z[part])
        np.matmul(rows.T, block, out=out[:, part])
    return out


def _half_spectrum(samples, rel, bandwidth=None):
    """Frequencies m >= 0 and weights h_m of real periodic samples, pruned.

    One ``rfft`` gives c_m = rfft/n; the samples are the real series
    Re sum_{m>=0} h_m e^{i m sigma} with h_0 = c_0, h_m = 2 c_m and, for even
    n, h_{n/2} = c_{n/2} (the Nyquist mode, the cosine cos(n sigma/2)).  A
    frequency is dropped when its coefficients c_m are all below ``rel``
    times the largest: the rule of the two-sided spectrum, whose c_{-m} =
    conj(c_m) have the same magnitudes.  Only the kept rows are doubled.

    A ``bandwidth`` K promises a real trigonometric polynomial of degree
    <= K: the rows come from its alias-free samples
    (:func:`_alias_free_samples` at degree 1, 32 of them at K = 8), and rows
    above K are dropped before the pruning, so no rounding on a frequency
    above K is kept.
    """
    samples = _alias_free_samples(samples, bandwidth, 1)
    n = samples.shape[0]
    c = np.fft.rfft(samples, axis=0) / n
    if bandwidth is not None:
        c = c[:bandwidth + 1]
    freqs = np.flatnonzero(_significant(c, rel))
    half = c[freqs]
    # every m with a partner -m; the Nyquist mode of even n has none
    half[(freqs > 0) & (2 * freqs < n)] *= 2.0
    return freqs, half


def trig_interpolate(samples, points, bandwidth=None):
    """Evaluate the trigonometric interpolant of real periodic samples at points.

    Samples (axis 0; trailing axes ride along) are read by their half
    spectrum (:func:`_half_spectrum`), with frequencies whose coefficients
    are below 1e-15 of the largest dropped, and evaluated by
    :func:`_on_basis` on the :func:`_half_basis` of width 2K for K kept
    frequencies m >= 0, in blocks of points (one when the basis fits
    1.25 MiB, else blocks of 1024); the Nyquist mode is its cosine.  Work
    memory at most max(1.25 MiB, 32 K KiB) on top of the output, W
    series at P points, O(P W).  Exact (to roundoff) for band-limited data;
    all-zero samples give zeros of shape ``points.shape + trailing``.
    ``bandwidth`` K, when not None, promises samples of a real
    trigonometric polynomial of degree <= K, as
    :class:`~closedstring.phase_space.FieldGrid`'s does: the spectrum is
    read from the smallest alias-free grid (O(K log K), not O(N log N)) and
    has no frequency above K.  A K < 0 or 2K + 2 > n raises ValueError.
    Complex samples raise TypeError.
    """
    if np.iscomplexobj(samples):
        raise TypeError("trig_interpolate takes real samples")
    samples = np.asarray(samples, float)
    freqs, half = _half_spectrum(samples, 1e-15, _check_bandwidth(bandwidth, samples.shape[0]))
    if not freqs.size:  # all-zero samples keep no frequency
        return np.zeros(np.shape(points) + half.shape[1:])
    rows = _real_rows(half.reshape(len(freqs), -1))
    flat = np.asarray(points, float).reshape(-1)
    out = _on_basis(rows, freqs, flat, np.empty((rows.shape[1], flat.size)))  # one row per series
    return np.moveaxis(out, 0, -1).reshape(np.shape(points) + half.shape[1:])


def invert_monotone(cmap: MonotoneCircleMap, carry=None, tol=1e-13, max_iter=60):
    """Inverse of a monotone circle map on the uniform grid, optionally carrying a series.

    Each R^{-1}(sigma_j) is found by bisection-bracketed Newton on the
    trigonometric interpolant of the periodic part rho = R - sigma, read by
    its half spectrum (``rfft``, frequencies below 1e-16 of the largest
    dropped).  A map with a ``bandwidth`` K (a clock of
    :func:`~closedstring.ddf.compute_R`, K = M) has rho and R' read from
    their alias-free samples (:func:`_half_spectrum`: 32 of them at M = 8,
    whatever N is), with no frequency above K; with none, from all N
    samples, where the 1e-16 rule can keep the rounding of rho's zero mode
    at isolated high frequencies (n/4, n/2) as basis frequencies.  A
    bracket end moves only on a residual of its own strict sign, and a
    Newton step falls back to bisection only when it lands strictly outside
    the bracket and is larger than ``tol``, so converged points stay put and
    convergence is quadratic.  Newton starts from the
    sampled inverse R(sigma_j) -> sigma_j with its slopes 1/R'(sigma_j)
    from ``cmap.deriv``, interpolated by cubic Hermite pieces, periodically,
    and clipped to the bracket: its error is O(h^4), h = 2 pi/N.  On the
    40 clocks of 20 default states (M=8), with no bisection, the start is
    within ``tol`` at N=8192, so the first basis only confirms convergence
    (1 basis per inversion, where the linear start took 2), and at N=4096
    some clocks take one Newton step more (1.5 bases per inversion, where
    the linear start took 2.4); steep clocks with min R' down to 1e-3 take
    at most 4.
    Each iteration evaluates rho and rho', then the W series it carries
    (R' and the columns of ``carry``) and their derivatives, by
    :func:`_on_basis`: per block of points (one block for a default clock
    at N = 4096, blocks of 1024 points at N = 8192) one real product of these
    stacked rows with the block's :func:`_half_basis`, of width 2K for K
    frequencies m >= 0 (one ``exp`` per point per 16 powers of e^{is}),
    written into one (2 + 2W, N) array.  The bracket update and the step
    then run on all N points.  Work memory O(block K) on top of that array,
    which is of the order of the O(N W) output.  Raises
    :class:`~closedstring.errors.NotConverged` when ``max_iter`` iterations
    leave some step above ``tol``.

    The last iteration's products are reused: every inverse point s lies
    within |delta| <= ``tol`` of the point they were taken at, so one
    first-order Taylor step F(s) = F(s - delta) + F'(s - delta) delta,
    exact to O(tol^2), moves each carried series.  R' is one such series, read
    from the half spectrum of ``cmap.deriv`` (the samples of 1 + rho', as
    :func:`~closedstring.ddf.compute_R` makes them; frequencies below 1e-15
    of the largest dropped), and (R^{-1})' = 1/(R' + R'' delta).  rho's own
    spectrum is not differentiated for it: read from all N samples, the
    rounding that rho's zero mode leaves on them passes the 1e-16 rule at
    isolated high frequencies (n/4, n/2), where m times it reaches 1e-12 of
    R'.

    ``carry``, when given, is the half spectrum of a real series
    F(s) = Re sum_{m>=0} h_m e^{ims}, rows m = 0..K (axis 0; trailing axes
    ride along), with h_0 = c_0 and h_m = 2 c_m; its frequencies whose
    weights are all below 1e-16 of the largest are dropped, the rest (like
    those of R') join the basis, and the result is the pair
    (inverse, F(R^{-1}(sigma_j))), the latter of shape (n,) + trailing.
    Cost O(iterations N K W) for the bases and their products, plus one
    ``rfft`` each of rho and R' (of O(K) samples with a bandwidth, of N
    without).
    """
    if cmap.min_deriv() <= 0.0:
        raise NonMonotone(f"min R' = {cmap.min_deriv():.3e} <= 0")
    n = cmap.n_samples
    sigma = grid_sigma(n)
    rho_v = cmap.periodic

    freqs, rho_h = _half_spectrum(rho_v, 1e-16, cmap.bandwidth)
    # R' is read from its own samples, whose spectrum has none of the
    # rounding that the zero mode of rho leaves on rho's high frequencies
    carried = [_half_spectrum(cmap.deriv, 1e-15, cmap.bandwidth)]
    if carry is not None:
        carry = np.asarray(carry)
        flat = carry.reshape(carry.shape[0], -1)
        kept = np.flatnonzero(_significant(flat, 1e-16))
        carried.append((kept, flat[kept]))
    union = reduce(np.union1d, (f for f, _ in carried), freqs)
    rho_h = _on_frequencies(union, freqs, rho_h)
    series = np.concatenate([_on_frequencies(union, f, h.reshape(len(f), -1)) for f, h in carried],
                            axis=1)
    freqs = union
    m = freqs.astype(float)
    width = series.shape[1]
    # one product per block gives rho and rho' (the Newton rows), then the
    # carried series and their derivatives, in the order of ``at``'s rows
    stacked = np.concatenate([_real_rows(np.stack([rho_h, 1j * m * rho_h], axis=1)),
                              _real_rows(np.concatenate([series, 1j * m[:, None] * series], axis=1))],
                             axis=1)
    at = np.empty((2 + 2 * width, n))

    # the continuum extrema of rho can overshoot the grid extrema between
    # samples; pad the bracket by a bound on that overshoot
    pad = (TAU / n) * (float(np.max(np.abs(cmap.deriv - 1.0))) + 1.0)
    lo = sigma - rho_v.max() - pad
    hi = sigma - rho_v.min() + pad
    # start from the sampled inverse R(sigma_j) -> sigma_j with its slopes
    # 1/R'(sigma_j), interpolated by cubic Hermite pieces on one period of
    # the table (R(sigma_j), sigma_j) closed by (R(0) + 2 pi, 2 pi), each
    # target moved into it by a whole period
    ends = sigma + rho_v
    t = ends[0] + (sigma - ends[0]) % TAU
    s = _hermite(np.append(ends, ends[0] + TAU), np.append(sigma, TAU),
                 1.0 / np.append(cmap.deriv, cmap.deriv[0]), t) + (sigma - t)
    s = np.clip(s, lo, hi)
    moved = np.inf
    for _ in range(max_iter):
        r, dr = _on_basis(stacked, freqs, s, at)[:2]
        # (s - sigma) first: at steep points s + r rounds r's last bits away
        resid = (s - sigma) + r
        hi = np.where(resid > 0, np.minimum(hi, s), hi)
        lo = np.where(resid < 0, np.maximum(lo, s), lo)
        step = resid / (1.0 + dr)
        s_new = s - step
        bad = ((s_new < lo) | (s_new > hi)) & (np.abs(step) > tol)
        s_new = np.where(bad, 0.5 * (lo + hi), s_new)
        moved = float(np.max(np.abs(s_new - s)))
        if moved <= tol:
            break
        s = s_new
    else:
        raise NotConverged(f"monotone inversion: last step {moved:.3e} > tol {tol:.1e} "
                           f"after {max_iter} iterations")

    # the last products sat at s, within |delta| <= tol of the inverse s_new:
    # F(s_new) = F(s) + F'(s) delta for R' and the carried series
    delta = s_new - s
    at = at[2:2 + width] + at[2 + width:] * delta
    inverse = MonotoneCircleMap(periodic=s_new - sigma, deriv=1.0 / at[0])
    if carry is None:
        return inverse
    return inverse, at[1:].T.reshape((n,) + carry.shape[1:])


def _hermite(x, y, dy, t):
    """Cubic Hermite interpolant of the values ``y`` and slopes ``dy`` at ascending ``x``, at t.

    Each t in [x[0], x[-1]] is read on its piece [x[i], x[i+1]] (found by
    one ``interp`` of the piece index, a guessed search for t in runs of
    ascending order), as y_i + u (a + u (3 d - 2 a - b + u (a + b - 2 d)))
    in u = (t - x_i)/h, with h = x_{i+1} - x_i, d = y_{i+1} - y_i and the
    scaled slopes a = h dy_i, b = h dy_{i+1}: C^1, and exact for cubics.
    """
    i = np.minimum(np.interp(t, x, np.arange(len(x), dtype=float)).astype(np.intp), len(x) - 2)
    h, d = np.diff(x), np.diff(y)
    a, b = dy[:-1] * h, dy[1:] * h
    u = (t - x[i]) / h[i]
    return y[i] + u * (a[i] + u * ((3 * d - 2 * a - b)[i] + u * (a + b - 2 * d)[i]))


def _on_frequencies(freqs, own, coeffs):
    """Coefficients given on the frequencies ``own``, placed on their superset ``freqs`` (0 elsewhere)."""
    out = np.zeros((len(freqs),) + coeffs.shape[1:], complex)
    out[np.searchsorted(freqs, own)] = coeffs
    return out
