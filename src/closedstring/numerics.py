"""Spectral primitives shared by every module.

Everything lives on the uniform periodic grid sigma_j = 2*pi*j/N, and every
field is a real trigonometric polynomial given by its modes.  The
workhorses are the one mode/grid transform pair (:func:`modes_to_grid`,
:func:`grid_to_modes`, with :func:`real_modes` assembling a real series),
the trigonometric interpolant at off-grid points, one closed-form
spectral antiderivative of sigma-polynomials with periodic coefficients
(behind the periodic antiderivative, the nested simplex (iterated)
integrals and the Wilson loops), and safeguarded inversion of monotone
degree-one circle maps.  All functions take plain ndarrays.

Costs of the iterated integrals: one degree-n word is O(n^2 N log N), the
last of its n integrals, needed only at 2*pi, closing by end weights at no
transform; the D^n words of degree n in lexicographic order, sharing
prefixes, are O(D^{n-1} n N log N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    "weight_one_pullback",
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
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    shape = coeffs.shape
    k = (shape[0] - 1) // 2
    if shape[0] != 2 * k + 1:
        raise ValueError("coeffs must cover m = -k..k (odd first axis)")
    if n < 2 * k + 2:
        raise ValueError(f"grid size {n} too small for bandwidth {k}")
    if not is_power_of_two(n):
        raise ValueError("grid size must be a power of two")
    spec = np.zeros((n,) + shape[1:], np.complex128)
    spec[(-orientation * np.arange(-k, k + 1)) % n] = coeffs
    return np.fft.fft(spec, axis=0)


def grid_to_modes(grid, k_max: int, orientation: int = +1):
    """Coefficients c_m = (1/n) sum_j grid_j e^{-orientation*i*m*sigma_j}, m = -k_max..k_max."""
    n = grid.shape[0]
    if k_max > n // 2 - 1:
        raise ValueError(f"k_max {k_max} exceeds n/2 - 1 for n = {n}")
    return np.fft.fft(grid, axis=0)[(orientation * np.arange(-k_max, k_max + 1)) % n] / n


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
    along.  ``terms`` yields the (k, g_k) pairs and is read once: a
    generator lets each input grid go as soon as its spectrum is taken,
    and each output spectrum goes once transformed, so a call holds
    about one grid per output power, not every input, spectrum and output
    at once.
    """
    out, means = {}, {}
    for k, g in terms:
        spec = np.fft.fft(g, axis=0)
        del g
        if not out:
            n = spec.shape[0]
            inv_im = _spectral_divisors(n, spec.ndim)
        _acc(means, k + 1, spec[0] / (k + 1))
        coef = spec * inv_im
        del spec
        for p in range(k, -1, -1):
            _acc(out, p, coef)
            if p:
                coef = coef * inv_im * -p
        del coef
    # the zero mode that makes power 0 vanish at 0; every other row of power 0 is kept as is
    out[0][0] = out[0][0] - out[0].sum(axis=0)
    for p, mean in means.items():
        if p in out:
            out[p][0] = out[p][0] + mean
    top = max(means)
    row = means[top] / n
    grids = {top: np.broadcast_to(row, (n,) + np.shape(row))}  # read-only, no copy
    grids.update((p, np.fft.ifft(out.pop(p), axis=0)) for p in list(out))
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


def _integral_to_two_pi(terms):
    """int_0^{2 pi} sum_k s^k h_k(s) ds for periodic grids h_k, by end weights.

    Costs no transform: one weighted sum over the sample axis per term;
    trailing axes (matrices) ride along.
    """
    total = 0.0
    for k, h in terms:
        total = total + _weighted_sum(_end_weights(h.shape[0], k), h)
    return total


def _weighted_sum(w, h):
    """sum_j w[j] h[j] over axis 0; trailing axes (matrices) ride along."""
    if h.ndim == 1:
        return w @ h
    return (w @ h.reshape(h.shape[0], -1)).reshape(h.shape[1:])


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
    """int_0^{2 pi} f(s) G(s) ds for G as in :func:`_nested_step`, with the real cut."""
    out = complex(_integral_to_two_pi((k, g * f) for k, g in state.items()))
    return out.real if abs(out.imag) <= 1e-9 * (1.0 + abs(out)) else out


class _PrefixIntegrals:
    """Nested-integral states along the prefix path of the last word.

    :meth:`walk` takes the letters of a prefix as columns of one (N, D)
    sample array and returns the sigma-polynomial state before the first
    letter and after each one; it reuses the longest common prefix with the
    previous walk and steps only the new letters.  :meth:`integral` walks a
    word's prefix and closes the last integral by end weights.  A degree-n
    word alone costs n(n - 1) transforms; the D^n words of degree n in
    lexicographic order share prefixes and cost
    sum_{0<j<n} D^j 2j = O(D^{n-1} n N log N).  The path of a degree-n
    word holds (n-1)(n+2)/2 grids.  The caller keeps the columns the same
    between calls, or clears the path.
    """

    def __init__(self):
        self.prefix = []
        self.states = [{0: 1.0}]

    def clear(self):
        del self.prefix[:], self.states[1:]

    def walk(self, columns, prefix):
        keep = 0
        for a, b in zip(self.prefix, prefix):
            if a != b:
                break
            keep += 1
        del self.prefix[keep:], self.states[keep + 1:]
        for mu in prefix[keep:]:
            self.states.append(_nested_step(self.states[-1], columns[:, mu]))
            self.prefix.append(mu)
        return self.states

    def integral(self, columns, word):
        return _nested_close(self.walk(columns, word[:-1])[-1], columns[:, word[-1]])


def simplex_iterated_integral(factors):
    """Iterated integral over 0 <= s_1 <= ... <= s_n <= 2*pi of prod f_i(s_i).

    The first factor is attached to the innermost integration variable.
    Computed by the cumulative recursion G_j = int_0^sigma f_j G_{j-1}, where
    G_j is a polynomial of degree j in sigma with periodic coefficients: step
    j costs 2j transforms and the last integral, needed only at 2*pi,
    closes by end weights at no transform: n(n - 1) for the word,
    i.e. O(n^2 N log N) instead of the O(N^n) of direct quadrature.  Only
    the current state is held; :class:`_PrefixIntegrals` keeps the path.
    """
    grids = [_as_scalar_grid(f) for f in factors]
    if not grids:
        raise ValueError("need at least one factor")
    n = grids[0].shape[0]
    for g in grids:
        if g.shape[0] != n:
            raise ValueError("all factors must share one grid")
    state = {0: 1.0}
    for f in grids[:-1]:
        state = _nested_step(state, f)
    return _nested_close(state, grids[-1])


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
    this representation.  ``deriv`` carries samples of R'.
    """

    periodic: np.ndarray
    deriv: np.ndarray

    @property
    def n_samples(self):
        return self.periodic.shape[0]

    def values(self):
        return self.periodic + grid_sigma(self.n_samples)

    def min_deriv(self):
        return float(np.min(self.deriv.real))


def _pruned_spectrum(samples, rel):
    """Frequencies and coefficients c_m = fft/n of periodic samples, pruned.

    A frequency is dropped when its coefficients are all below ``rel``
    times the largest.  ``freqs`` is shaped to broadcast against ``coeffs``.
    """
    n = samples.shape[0]
    spec = np.fft.fft(samples, axis=0)
    keep = _significant(spec, rel)
    freqs = _int_freqs(n, spec.ndim)[keep].astype(float)
    return freqs, spec[keep] / n


def _significant(spec, rel):
    mags = np.abs(spec).reshape(spec.shape[0], -1).max(axis=1)
    return mags > rel * max(mags.max(), 1e-300)


# :func:`_basis` takes a true exponential at every multiple of this power
_ANCHOR = 16


def _basis(points, freqs):
    """e^{i m s} for plain points s (rows) and integer frequencies m (columns).

    One complex ``exp`` gives z = e^{is}; the powers e^{i|m|s} follow in
    increasing |m| by one product with z each, re-anchored by a true ``exp``
    at every multiple of 16 and wherever |m| - 1 is not among the
    frequencies, so no product chain is longer than 15 and the error stays
    that of the ``exp`` route (about |m s| machine epsilons); negative m
    take the conjugate.  Cost: one ``exp`` per point per 16 powers, not one
    per (point, frequency).  The columns are rows of one (frequencies,
    points) buffer, filled contiguously and returned as its (points,
    frequencies) view.
    """
    s = np.asarray(points, float)
    m = freqs.ravel().astype(np.int64)
    out = np.empty(m.shape + s.shape, complex)
    z = np.exp(1j * s)
    power, last = np.ones_like(z), 0
    for col in np.argsort(np.abs(m), kind="stable"):
        k = abs(m[col])
        if k != last:
            power = power * z if k == last + 1 and k % _ANCHOR else np.exp(1j * k * s)
            last = k
        if m[col] >= 0:
            out[col] = power
        else:
            np.conjugate(power, out=out[col])
    return np.moveaxis(out, 0, -1)


def trig_interpolate(samples, points):
    """Evaluate the trigonometric interpolant of periodic samples at points.

    Modes with |c_m| below 1e-15 of the largest coefficient are dropped;
    exact (to roundoff) for band-limited data.  Real samples give a real
    interpolant: the real part, which takes the Nyquist mode as its cosine.
    """
    freqs, coeffs = _pruned_spectrum(samples, 1e-15)
    out = _basis(points, freqs) @ coeffs
    return out.real if np.isrealobj(samples) else out


def weight_one_pullback(samples, points, slope):
    """Samples (F o phi) * phi' of the weight-one pullback on the grid.

    ``samples`` are F on the grid (trailing axes ride along), ``points``
    are phi(sigma_j) and ``slope`` is phi'(sigma_j); F o phi comes from
    :func:`trig_interpolate`, so a real field pulls back to a real one.
    """
    moved = trig_interpolate(samples, points)
    return moved * slope[(slice(None),) + (None,) * (moved.ndim - 1)]


def invert_monotone(cmap: MonotoneCircleMap, tol=1e-13, max_iter=60):
    """Inverse of a monotone circle map on the uniform grid.

    Each R^{-1}(sigma_j) is found by bisection-bracketed Newton on the
    trigonometric interpolant of the periodic part; derivative samples are
    (R^{-1})' = 1/R' o R^{-1}.  A bracket end moves only on a residual of
    its own strict sign, and a Newton step falls back to bisection only when
    it lands strictly outside the bracket and is larger than ``tol``, so
    converged points stay put and convergence is quadratic.  Newton starts
    from the sampled inverse R(sigma_j) -> sigma_j, interpolated linearly
    and periodically and clipped to the bracket: clocks of default states
    (M=8) at N=4096 take 2-3 iterations, the last only confirming
    convergence, with no bisection; steep clocks with min R' down to 1e-3
    take at most 4.  Each iteration evaluates the interpolant on one
    :func:`_basis`, i.e. one ``exp`` per point per 16 powers of e^{is}.  Raises
    :class:`~closedstring.errors.NotConverged` when ``max_iter`` iterations
    leave some step above ``tol``.
    """
    if cmap.min_deriv() <= 0.0:
        raise NonMonotone(f"min R' = {cmap.min_deriv():.3e} <= 0")
    n = cmap.n_samples
    sigma = grid_sigma(n)
    rho_v = cmap.periodic

    freqs, coeffs = _pruned_spectrum(rho_v, 1e-16)

    def rho_and_drho(s):
        basis = _basis(s, freqs)
        return (basis @ coeffs).real, (basis @ (1j * freqs * coeffs)).real

    # the continuum extrema of rho can overshoot the grid extrema between
    # samples; pad the bracket by a bound on that overshoot
    pad = (TAU / n) * (float(np.max(np.abs(cmap.deriv - 1.0))) + 1.0)
    lo = sigma - rho_v.max() - pad
    hi = sigma - rho_v.min() + pad
    # start from the sampled inverse R(sigma_j) -> sigma_j, interpolated
    # linearly; R^{-1}(t) - t = -rho(R^{-1}(t)) is 2 pi-periodic in t
    s = np.clip(sigma + np.interp(sigma, sigma + rho_v, -rho_v, period=TAU), lo, hi)
    moved = np.inf
    for _ in range(max_iter):
        r, dr = rho_and_drho(s)
        resid = s + r - sigma
        hi = np.where(resid > 0, np.minimum(hi, s), hi)
        lo = np.where(resid < 0, np.maximum(lo, s), lo)
        step = resid / (1.0 + dr)
        s_new = s - step
        bad = ((s_new < lo) | (s_new > hi)) & (np.abs(step) > tol)
        s_new = np.where(bad, 0.5 * (lo + hi), s_new)
        moved = float(np.max(np.abs(s_new - s)))
        s = s_new
        if moved <= tol:
            break
    else:
        raise NotConverged(f"monotone inversion: last step {moved:.3e} > tol {tol:.1e} "
                           f"after {max_iter} iterations")

    return MonotoneCircleMap(periodic=s - sigma, deriv=1.0 / trig_interpolate(cmap.deriv, s))

